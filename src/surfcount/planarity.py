"""Planarity testing via the left-right criterion (Brandes 2009).

The testing phase only: no embedding is extracted, so no lowpoint edges
or sides are kept, and `ref` holds just the links that chain an
interval's return edges for trimming. Runs after quick Euler-count
rejections, inside the flap-enumeration loops. Both DFS passes are
iterative, so no recursion limit or size cap applies.
"""

from __future__ import annotations

from .errors import InternalInvariantError
from .graph import Graph


def is_planar(g: Graph) -> bool:
    """True iff g embeds in the sphere.

    Near-linear and without a size cap. Disconnected inputs are fine: the
    DFS forest covers every component.

    Edge i of ``sorted(g.edges)`` gives dart 2i from its smaller end and
    dart 2i + 1 back, so ``d ^ 1`` reverses d; every per-edge table is a
    flat list indexed by dart. A conflict pair is a list [left low, left
    high, right low, right high] of darts, -1 where unset. A side's low
    is set whenever its high is, so a side is empty exactly when its low
    is -1.
    """
    n = g.n
    if n <= 4:
        return True
    if g.m > 3 * n - 6:
        return False
    head: list[int] = []
    out: list[list[int]] = [[] for _ in range(n)]  # each vertex's darts, by increasing head
    for u, v in sorted(g.edges):
        out[u].append(len(head))
        out[v].append(len(head) + 1)
        head += (v, u)
    darts = len(head)
    height = [-1] * n
    parent = [-1] * n  # the tree dart entering each vertex
    lowpt = [-1] * darts  # set when the dart is oriented
    lowpt2 = [0] * darts
    nesting = [-1] * darts  # set when the oriented dart is finished

    # phase 1: orient the edges along a DFS; lowpoints and nesting depths
    following = [0] * n  # per vertex: index of the next dart in out[v]
    for root in range(n):
        if height[root] >= 0:
            continue
        height[root] = 0
        stack = [root]
        while stack:
            v = stack[-1]
            if following[v] == len(out[v]):
                stack.pop()
                d = parent[v]
                if d < 0:
                    continue
            else:
                d = out[v][following[v]]
                following[v] += 1
                if lowpt[d ^ 1] >= 0:  # oriented from the other end
                    continue
                w = head[d]
                lowpt[d] = lowpt2[d] = height[v]
                if height[w] < 0:  # tree dart: finished once w is
                    parent[w] = d
                    height[w] = height[v] + 1
                    stack.append(w)
                    continue
                lowpt[d] = height[w]  # back dart
            # finish d = v -> w: its nesting depth, then the lowpoints of
            # the tree dart into v
            v = head[d ^ 1]
            nesting[d] = 2 * lowpt[d]
            if lowpt2[d] < height[v]:  # chordal: nest inside
                nesting[d] += 1
            e = parent[v]
            if e >= 0:
                if lowpt[d] < lowpt[e]:
                    lowpt2[e] = min(lowpt[e], lowpt2[d])
                    lowpt[e] = lowpt[d]
                elif lowpt[d] > lowpt[e]:
                    lowpt2[e] = min(lowpt2[e], lowpt[d])
                else:
                    lowpt2[e] = min(lowpt2[e], lowpt2[d])

    # phase 2: walk the DFS tree again, each vertex's oriented darts in
    # nesting order, merging conflict pairs of return darts
    ordered = [sorted((d for d in out[v] if nesting[d] >= 0), key=nesting.__getitem__)
               for v in range(n)]
    ref = [-1] * darts
    stack_bottom: list[list[int] | None] = [None] * darts
    pairs: list[list[int]] = []
    following = [0] * n
    for root in range(n):
        if parent[root] >= 0:
            continue
        stack = [root]
        while stack:
            v = stack[-1]
            if following[v] < len(ordered[v]):
                d = ordered[v][following[v]]
                following[v] += 1
                stack_bottom[d] = pairs[-1] if pairs else None
                if parent[head[d]] == d:  # tree dart: descend first
                    stack.append(head[d])
                    continue
                pairs.append([-1, -1, d, d])  # back dart
            else:
                stack.pop()
                d = parent[v]
                if d < 0:
                    continue
                v = head[d ^ 1]
                # trim the return darts ending at v, the parent: drop whole
                # pairs whose lowest return dart ends there, then trim the
                # sides of the next pair down
                while pairs and height[v] == min(
                        lowpt[low] for low in pairs[-1][::2] if low >= 0):
                    pairs.pop()
                if pairs:
                    p = pairs[-1]
                    for low, high in ((0, 1), (2, 3)):
                        while p[high] >= 0 and head[p[high]] == v:
                            p[high] = ref[p[high]]
                        if p[high] < 0:
                            p[low] = -1
            # integrate d = v -> w; the first dart's return darts stay on
            # the stack as they are
            if d == ordered[v][0] or lowpt[d] >= height[v]:
                continue
            e = parent[v]
            if e < 0:  # only non-root vertices get here
                raise InternalInvariantError("constraints added at the DFS root")
            p = [-1, -1, -1, -1]
            # merge return darts of d into p's right side
            while True:
                q = pairs.pop()
                if q[0] >= 0:
                    q[:2], q[2:] = q[2:], q[:2]
                if q[0] >= 0:
                    return False
                if q[2] < 0:
                    raise InternalInvariantError("a conflict pair's right interval is empty")
                if lowpt[q[2]] > lowpt[e]:
                    if p[2] < 0:
                        p[3] = q[3]
                    else:
                        ref[p[2]] = q[3]
                    p[2] = q[2]
                if (pairs[-1] if pairs else None) is stack_bottom[d]:
                    break
            # merge conflicting return darts of earlier siblings into p's
            # left side; a side conflicts with d when its high returns
            # above d's lowpoint
            while pairs and any(high >= 0 and lowpt[high] > lowpt[d]
                                for high in pairs[-1][1::2]):
                q = pairs.pop()
                if q[3] >= 0 and lowpt[q[3]] > lowpt[d]:
                    q[:2], q[2:] = q[2:], q[:2]
                if q[3] >= 0 and lowpt[q[3]] > lowpt[d]:
                    return False
                if p[2] >= 0:
                    ref[p[2]] = q[3]
                if q[2] >= 0:
                    p[2] = q[2]
                if p[0] < 0:
                    p[1] = q[1]
                else:
                    ref[p[0]] = q[1]
                p[0] = q[0]
            if p[0] >= 0 or p[2] >= 0:
                pairs.append(p)
    return True

"""Planarity testing via the left-right criterion (Brandes 2009).

The testing phase only: no embedding is extracted, so no lowpoint edges
or sides are kept, and `ref` holds just the links that chain an
interval's return edges for trimming. Runs after quick Euler-count
rejections, inside the flap-enumeration loops. Both DFS passes are
iterative, so no recursion limit or size cap applies.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalInvariantError
from .graph import Graph

DEdge = tuple[int, int]


class _NonPlanar(Exception):
    pass


@dataclass
class _Interval:
    low: DEdge | None = None
    high: DEdge | None = None

    def empty(self) -> bool:
        return self.low is None and self.high is None


@dataclass
class _ConflictPair:
    left: _Interval
    right: _Interval

    def swap(self) -> None:
        self.left, self.right = self.right, self.left


class _LRTest:
    def __init__(self, g: Graph):
        n = g.n
        self.n = n
        self.adj = [sorted(g.adj[v]) for v in range(n)]
        self.height: list[int | None] = [None] * n
        self.parent_edge: list[DEdge | None] = [None] * n
        self.lowpt: dict[DEdge, int] = {}
        self.lowpt2: dict[DEdge, int] = {}
        self.nesting_depth: dict[DEdge, int] = {}
        self.ordered_adj: list[list[int]] = [[] for _ in range(n)]
        self.ref: dict[DEdge, DEdge | None] = {}
        self.stack: list[_ConflictPair] = []
        self.stack_bottom: dict[DEdge, _ConflictPair | None] = {}

    def run(self) -> bool:
        for s in range(self.n):
            if self.height[s] is None:
                self.height[s] = 0
                self._dfs_orient(s)
        for v in range(self.n):
            out = [w for w in self.adj[v] if (v, w) in self.nesting_depth]
            out.sort(key=lambda w: self.nesting_depth[(v, w)])
            self.ordered_adj[v] = out
        try:
            for s in range(self.n):
                if self.parent_edge[s] is None:
                    self._dfs_test(s)
        except _NonPlanar:
            return False
        return True

    # -- phase 1: orientation, lowpoints, nesting depth ----------------------

    def _dfs_orient(self, root: int) -> None:
        idx = [0] * self.n
        stack = [root]
        while stack:
            v = stack[-1]
            descended = False
            while idx[v] < len(self.adj[v]):
                w = self.adj[v][idx[v]]
                idx[v] += 1
                if (w, v) in self.lowpt:  # oriented from w's side
                    continue
                vw = (v, w)
                self.lowpt[vw] = self.height[v]
                self.lowpt2[vw] = self.height[v]
                if self.height[w] is None:  # tree edge
                    self.parent_edge[w] = vw
                    self.height[w] = self.height[v] + 1
                    stack.append(w)
                    descended = True
                    break
                # back edge
                self.lowpt[vw] = self.height[w]
                self._finish_edge(vw)
            if not descended:
                stack.pop()
                e = self.parent_edge[v]
                if e is not None:
                    self._finish_edge(e)

    def _finish_edge(self, vw: DEdge) -> None:
        v = vw[0]
        self.nesting_depth[vw] = 2 * self.lowpt[vw]
        if self.lowpt2[vw] < self.height[v]:  # chordal: nest inside
            self.nesting_depth[vw] += 1
        e = self.parent_edge[v]
        if e is not None:
            if self.lowpt[vw] < self.lowpt[e]:
                self.lowpt2[e] = min(self.lowpt[e], self.lowpt2[vw])
                self.lowpt[e] = self.lowpt[vw]
            elif self.lowpt[vw] > self.lowpt[e]:
                self.lowpt2[e] = min(self.lowpt2[e], self.lowpt[vw])
            else:
                self.lowpt2[e] = min(self.lowpt2[e], self.lowpt2[vw])

    # -- phase 2: testing -----------------------------------------------------

    def _top(self) -> _ConflictPair | None:
        return self.stack[-1] if self.stack else None

    def _dfs_test(self, root: int) -> None:
        # frame: [v, next edge index, index of a tree edge awaiting integration]
        frames: list[list] = [[root, 0, None]]
        while frames:
            frame = frames[-1]
            v = frame[0]
            e = self.parent_edge[v]
            if frame[2] is not None:
                i = frame[2]
                frame[2] = None
                self._integrate((v, self.ordered_adj[v][i]), e, i)
                continue
            if frame[1] < len(self.ordered_adj[v]):
                i = frame[1]
                frame[1] = i + 1
                w = self.ordered_adj[v][i]
                vw = (v, w)
                self.stack_bottom[vw] = self._top()
                if vw == self.parent_edge[w]:  # tree edge: descend first
                    frame[2] = i
                    frames.append([w, 0, None])
                else:  # back edge
                    self.stack.append(_ConflictPair(_Interval(), _Interval(vw, vw)))
                    self._integrate(vw, e, i)
                continue
            frames.pop()
            if e is not None:
                self._trim_back_edges(e[0])

    def _integrate(self, vw: DEdge, e: DEdge | None, i: int) -> None:
        # the first edge's return edges stay on the stack as they are
        if i > 0 and self.lowpt[vw] < self.height[vw[0]]:
            self._add_constraints(vw, e)

    def _conflicting(self, interval: _Interval, b: DEdge) -> bool:
        return interval.high is not None and self.lowpt[interval.high] > self.lowpt[b]

    def _add_constraints(self, ei: DEdge, e: DEdge | None) -> None:
        if e is None:  # only non-root vertices get here
            raise InternalInvariantError("constraints added at the DFS root")
        p = _ConflictPair(_Interval(), _Interval())
        # merge return edges of ei into p.right
        while True:
            q = self.stack.pop()
            if not q.left.empty():
                q.swap()
            if not q.left.empty():
                raise _NonPlanar
            if q.right.low is None:
                raise InternalInvariantError("a conflict pair's right interval is empty")
            if self.lowpt[q.right.low] > self.lowpt[e]:
                if p.right.empty():
                    p.right.high = q.right.high
                else:
                    self.ref[p.right.low] = q.right.high
                p.right.low = q.right.low
            if self._top() is self.stack_bottom[ei]:
                break
        # merge conflicting return edges of earlier siblings into p.left
        while self.stack and (
            self._conflicting(self.stack[-1].left, ei)
            or self._conflicting(self.stack[-1].right, ei)
        ):
            q = self.stack.pop()
            if self._conflicting(q.right, ei):
                q.swap()
            if self._conflicting(q.right, ei):
                raise _NonPlanar
            if p.right.low is not None:
                self.ref[p.right.low] = q.right.high
            if q.right.low is not None:
                p.right.low = q.right.low
            if p.left.empty():
                p.left.high = q.left.high
            else:
                self.ref[p.left.low] = q.left.high
            p.left.low = q.left.low
        if not (p.left.empty() and p.right.empty()):
            self.stack.append(p)

    def _lowest(self, p: _ConflictPair) -> int:
        if p.left.empty():
            return self.lowpt[p.right.low]
        if p.right.empty():
            return self.lowpt[p.left.low]
        return min(self.lowpt[p.left.low], self.lowpt[p.right.low])

    def _trim_back_edges(self, u: int) -> None:
        # drop entire conflict pairs ending at u
        while self.stack and self._lowest(self.stack[-1]) == self.height[u]:
            self.stack.pop()
        if self.stack:
            p = self.stack.pop()
            while p.left.high is not None and p.left.high[1] == u:
                p.left.high = self.ref.get(p.left.high)
            if p.left.high is None:
                p.left.low = None
            while p.right.high is not None and p.right.high[1] == u:
                p.right.high = self.ref.get(p.right.high)
            if p.right.high is None:
                p.right.low = None
            self.stack.append(p)


def is_planar(g: Graph) -> bool:
    """True iff g embeds in the sphere.

    Near-linear and without a size cap. Disconnected inputs are fine: the
    DFS forest covers every component.
    """
    if g.n <= 4:
        return True
    if g.m > 3 * g.n - 6:
        return False
    return _LRTest(g).run()

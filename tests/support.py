"""Shared test helpers: independent brute-force oracles and random generators.

Everything here is deliberately written from the definitions, without
reusing the production shortcuts, so tests cross-check two routes.
"""

from __future__ import annotations

import itertools
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

from surfcount import flaps
from surfcount.counting import clique_counts
from surfcount.embedding import EmbeddedGraph, switch_vertex
from surfcount.errors import InternalInvariantError, ParseError, PreconditionError
from surfcount.flaps import Separation, flap_family_and_number
from surfcount.graph import (
    Graph, add_clique, blocks, connected_components, induced_subgraph, is_connected, twin_classes)
from surfcount.planarity import is_planar
from surfcount.spqrk import REAL, VIRTUAL, SpqrkNode, SpqrkTree


# ---------------------------------------------------------------------------
# A fresh interpreter on the package in src/
# ---------------------------------------------------------------------------


def fresh_python(code: str, *args: str) -> str:
    """The stdout of ``python -c code args`` in a fresh interpreter that
    imports the package from ``src/``, under the same -O level as the
    running one; it must exit 0 with nothing on stderr."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, *["-O"] * sys.flags.optimize, "-c", code, *args],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    return proc.stdout


# ---------------------------------------------------------------------------
# Graph helpers that only tests need
# ---------------------------------------------------------------------------


def disjoint_union(a: Graph, b: Graph) -> Graph:
    edges = list(a.edges) + [(u + a.n, v + a.n) for u, v in b.edges]
    return Graph.build(a.n + b.n, edges)


def max_clique_size(g: Graph) -> int:
    return len(clique_counts(g)) - 1


# ---------------------------------------------------------------------------
# Random generators (always seeded by the caller)
# ---------------------------------------------------------------------------


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph.build(n, edges)


def random_tree(rng: random.Random, n: int) -> Graph:
    """Uniform random labeled tree from a random Pruefer sequence."""
    if n <= 1:
        return Graph.build(n, [])
    if n == 2:
        return Graph.build(2, [(0, 1)])
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    import heapq

    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u = heapq.heappop(leaves)
    w = heapq.heappop(leaves)
    edges.append((u, w))
    return Graph.build(n, edges)


def random_connected_graph(rng: random.Random, n: int, extra_p: float) -> Graph:
    tree = random_tree(rng, n)
    edges = set(tree.edges)
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in edges and rng.random() < extra_p:
                edges.add((i, j))
    return Graph.build(n, edges)


def _glue_piece(rng: random.Random) -> Graph:
    """A K5 or K3,3, whole, less an edge or with an edge subdivided; or a
    K4, a cycle, a tree or an edge."""
    kind = rng.randrange(7)
    if kind <= 2:
        piece = rng.choice([_K5, _K33])
        n, edges = piece.n, sorted(piece.edges)
        if kind == 1:
            edges.remove(rng.choice(edges))
        elif kind == 2:
            u, v = edges.pop(rng.randrange(len(edges)))
            edges += [(u, n), (n, v)]
            n += 1
        return Graph.build(n, edges)
    if kind == 3:
        return Graph.build(4, list(itertools.combinations(range(4), 2)))
    if kind == 4:
        k = rng.randint(3, 6)
        return Graph.build(k, [(i, (i + 1) % k) for i in range(k)])
    if kind == 5:
        return random_tree(rng, rng.randint(2, 5))
    return Graph.build(2, [(0, 1)])


def random_glued_graph(rng: random.Random, max_n: int = 16) -> Graph:
    """Pieces from ``_glue_piece`` glued one after another at 0, 1 or 2
    vertices of the graph so far, sometimes with isolated vertices added,
    then relabelled at random. So non-planar blocks, planar 2-connected
    pieces, 1- and 2-vertex overlaps and several components all occur."""
    n = 0
    edges: set[tuple[int, int]] = set()
    while True:
        piece = _glue_piece(rng)
        glue = min(rng.choice([0, 1, 1, 2, 2, 2]), n, piece.n)
        if n and n + piece.n - glue > max_n:
            break
        where = rng.sample(range(n), glue) + list(range(n, n + piece.n - glue))
        rng.shuffle(where)
        edges |= {(min(where[u], where[v]), max(where[u], where[v])) for u, v in piece.edges}
        n = max(n, max(where) + 1)
    if n < max_n and rng.random() < 0.3:
        n += rng.randint(1, min(2, max_n - n))
    perm = rng.sample(range(n), n)
    return Graph.build(n, [(perm[u], perm[v]) for u, v in edges])


def random_rotation_system(rng: random.Random, n: int) -> EmbeddedGraph:
    """Random rotations and signs on a random graph: a tree, a connected
    graph or a sparse one, so pendant and isolated vertices, degree-2
    corners and negative edges all occur."""
    kind = rng.randrange(3)
    if kind == 0:
        g = random_tree(rng, n)
    elif kind == 1:
        g = random_connected_graph(rng, n, rng.choice([0.1, 0.3, 0.6]))
    else:
        g = random_graph(rng, n, rng.choice([0.1, 0.25]))
    rotations = [rng.sample(sorted(g.adj[v]), g.degree(v)) for v in range(g.n)]
    p = rng.choice([0.0, 0.3, 0.7])
    return EmbeddedGraph.build(g, rotations, [e for e in g.edges if rng.random() < p])


# the tetrahedron, each face oriented so that every edge runs both ways
_TETRAHEDRON = ((0, 1, 2), (1, 0, 3), (0, 2, 3), (1, 3, 2))


def random_stacked(rng: random.Random, n: int, hub_bias: float = 0.0,
                   switch_p: float = 0.0) -> tuple[EmbeddedGraph, list[tuple[int, int, int]]]:
    """A random stacked triangulation of the sphere on n >= 4 vertices and
    its faces: each new vertex goes inside a face, drawn with probability
    ``hub_bias`` among the faces at vertex 0, which makes vertex 0 a hub
    (degree about 0.4n at 0.5). Rotations come from the oriented faces, with
    every edge positive; then each vertex is switched with probability
    ``switch_p`` (rotation reversed, its edges' signs flipped)."""
    faces = list(_TETRAHEDRON)
    for x in range(4, n):
        while True:
            i = rng.randrange(len(faces))
            if rng.random() >= hub_bias or 0 in faces[i]:
                break
        a, b, c = faces[i]
        faces[i] = (a, b, x)
        faces += [(b, c, x), (c, a, x)]
    succ: list[dict[int, int]] = [{} for _ in range(n)]
    for a, b, c in faces:
        succ[a][b], succ[b][c], succ[c][a] = c, a, b
    rotations = []
    for v in range(n):
        first = min(succ[v])
        rot = [first]
        while succ[v][rot[-1]] != first:
            rot.append(succ[v][rot[-1]])
        if len(rot) != len(succ[v]):
            raise AssertionError(f"link of vertex {v} is not one cycle")
        rotations.append(rot)
    edges = {(min(a, b), max(a, b)) for f in faces for a, b in zip(f, f[1:] + f[:1])}
    switched = {v for v in range(n) if rng.random() < switch_p}
    for v in switched:
        rotations[v].reverse()
    negative = [(a, b) for a, b in edges if (a in switched) != (b in switched)]
    return EmbeddedGraph.build(Graph.build(n, edges), rotations, negative), faces


# ---------------------------------------------------------------------------
# Backtracking map counter: the oracle for the homomorphism-basis counts
# ---------------------------------------------------------------------------


def _backtrack_maps(h: Graph, g: Graph, injective: bool, leaf_filter=None) -> int:
    """Visit every adjacency-preserving map V(h) -> V(g) one at a time.

    Vertices are taken in breadth-first order per component, so each has
    an earlier mapped neighbor when one exists; ``leaf_filter(image)`` may
    veto complete maps."""
    order: list[int] = []
    seen = [False] * h.n
    for s in range(h.n):
        if not seen[s]:
            seen[s] = True
            order.append(s)
            k = len(order) - 1
            while k < len(order):
                for w in sorted(h.adj[order[k]]):
                    if not seen[w]:
                        seen[w] = True
                        order.append(w)
                k += 1
    pos = {v: i for i, v in enumerate(order)}
    anchors = [[w for w in h.adj[v] if pos[w] < i] for i, v in enumerate(order)]
    image = [-1] * h.n
    used = [False] * g.n
    count = 0

    def rec(i: int) -> None:
        nonlocal count
        if i == h.n:
            if leaf_filter is None or leaf_filter(image):
                count += 1
            return
        v = order[i]
        anc = anchors[i]
        if anc:
            cands = [c for c in g.adj[image[anc[0]]]
                     if all(c in g.adj[image[w]] for w in anc[1:])]
        else:
            cands = range(g.n)
        for c in cands:
            if injective and used[c]:
                continue
            image[v] = c
            used[c] = True
            rec(i + 1)
            used[c] = False
        image[v] = -1

    rec(0)
    return count


def backtrack_hom(h: Graph, g: Graph) -> int:
    return _backtrack_maps(h, g, injective=False)


def backtrack_injective(h: Graph, g: Graph) -> int:
    return _backtrack_maps(h, g, injective=True)


def backtrack_copies(h: Graph, g: Graph) -> int:
    """Injective maps, keeping one per automorphism orbit: the image tuple
    that no automorphism makes lexicographically smaller."""
    nontrivial = [a for a in slow_automorphisms(h) if any(a[i] != i for i in range(h.n))]

    def least_in_orbit(image: list[int]) -> bool:
        for a in nontrivial:
            for i in range(h.n):
                x, y = image[a[i]], image[i]
                if x != y:
                    if x < y:
                        return False  # a permuted tuple is lexicographically less
                    break
        return True

    return _backtrack_maps(h, g, injective=True, leaf_filter=least_in_orbit)


def slow_automorphisms(h: Graph) -> list[tuple[int, ...]]:
    """Every automorphism of h as an image tuple, enumerated one at a time:
    vertices by degree descending, each among the neighbors of an earlier
    neighbor's image when it has one, checked against every earlier
    vertex. The oracle for |Aut(h)| = inj(h, h)."""
    hadj = h.adj
    order = sorted(range(h.n), key=lambda v: (-len(hadj[v]), v))
    anchor = [next((w for w in order[:i] if w in hadj[v]), -1)
              for i, v in enumerate(order)]
    image = [-1] * h.n
    used = [False] * h.n
    found: list[tuple[int, ...]] = []

    def rec(i: int) -> None:
        if i == h.n:
            found.append(tuple(image))
            return
        v = order[i]
        a = anchor[i]
        for c in (hadj[image[a]] if a >= 0 else range(h.n)):
            if (not used[c] and len(hadj[c]) == len(hadj[v])
                    and all((w in hadj[v]) == (image[w] in hadj[c]) for w in order[:i])):
                image[v] = c
                used[c] = True
                rec(i + 1)
                used[c] = False
        image[v] = -1

    rec(0)
    return found


def slow_count_cliques(g: Graph, s: int) -> int:
    """s-cliques by a recursive search over each vertex's later neighbors
    in the (degree, index) order, each clique reached once from its
    earliest vertex."""
    if s == 0:
        return 1
    order = sorted(range(g.n), key=lambda v: (g.degree(v), v))
    rank = [0] * g.n
    for i, v in enumerate(order):
        rank[v] = i
    later = [frozenset(w for w in g.adj[v] if rank[w] > rank[v]) for v in range(g.n)]

    def rec(cands: frozenset[int], chosen: int) -> int:
        if chosen == s:
            return 1
        if len(cands) < s - chosen:
            return 0
        return sum(rec(cands & later[v], chosen + 1) for v in cands)

    return sum(rec(later[v], 1) for v in order)


def slow_twin_quotient(g: Graph) -> tuple[Graph, tuple[int, ...]]:
    """The weighted twin quotient read off every edge of g: one vertex per
    class of ``twin_classes``, an edge for each pair of classes that an
    edge of g joins, weighted by class size; g itself, with unit weights,
    when every class is a singleton."""
    classes = twin_classes(g)
    if len(classes) == g.n:
        return g, (1,) * g.n
    where = [0] * g.n
    for i, c in enumerate(classes):
        for v in c:
            where[v] = i
    edges = frozenset((min(where[u], where[v]), max(where[u], where[v])) for u, v in g.edges)
    return Graph(len(classes), edges), tuple(len(c) for c in classes)


# ---------------------------------------------------------------------------
# Brute-force minor detection and the planarity oracle
# ---------------------------------------------------------------------------


def contract_edge_simple(g: Graph, e: tuple[int, int]) -> Graph:
    """Contract edge e, identifying both endpoints into the smaller index.

    Parallel edges merge and the loop disappears, so the result is a simple
    minor of g with one fewer vertex.
    """
    u, v = sorted(e)
    if (u, v) not in g.edges:
        raise PreconditionError(f"edge ({u},{v}) not in graph")
    # v is removed; vertices above v shift down by one.
    remap = [w if w < v else w - 1 for w in range(g.n)]
    remap[v] = remap[u]
    edges = {(remap[a], remap[b]) for a, b in g.edges if remap[a] != remap[b]}
    return Graph.build(g.n - 1, edges)


def _connected_mask(adj_masks: list[int], mask: int) -> bool:
    lowest = mask & -mask
    seen = lowest
    frontier = lowest
    while frontier:
        nxt = 0
        m = frontier
        while m:
            b = m & -m
            m ^= b
            v = b.bit_length() - 1
            nxt |= adj_masks[v] & mask & ~seen
        seen |= nxt
        frontier = nxt
    return seen == mask


def has_minor(g: Graph, h: Graph) -> bool:
    """True iff h is a minor of g. Exhaustive over partitions of vertex
    subsets of g into |V(h)| unlabeled connected parts, then all bijections
    parts -> V(h). Use only for small graphs (say n <= 8)."""
    if h.n > g.n or h.m > g.m:
        return False
    adj_masks = [0] * g.n
    for u, v in g.edges:
        adj_masks[u] |= 1 << v
        adj_masks[v] |= 1 << u
    k = h.n
    h_adj = [set(h.adj[v]) for v in range(h.n)]

    def contact_contains_h(masks: list[int]) -> bool:
        contact = [[False] * k for _ in range(k)]
        for a in range(k):
            for b in range(a + 1, k):
                touch = False
                m = masks[a]
                while m and not touch:
                    bit = m & -m
                    m ^= bit
                    v = bit.bit_length() - 1
                    if adj_masks[v] & masks[b]:
                        touch = True
                contact[a][b] = contact[b][a] = touch
        # bijection parts -> V(h) preserving h's edges
        image = [-1] * k  # image[part] = h-vertex
        used = [False] * k

        def assign(part: int) -> bool:
            if part == k:
                return True
            for hv in range(k):
                if used[hv]:
                    continue
                ok = True
                for earlier in range(part):
                    if image[earlier] in h_adj[hv] and not contact[part][earlier]:
                        ok = False
                        break
                if ok:
                    image[part] = hv
                    used[hv] = True
                    if assign(part + 1):
                        return True
                    used[hv] = False
                    image[part] = -1
            return False

        return assign(0)

    assignment = [-1] * g.n

    def rec(v: int, started: int) -> bool:
        if started + (g.n - v) < k:
            return False  # not enough vertices left to start all parts
        if v == g.n:
            if started < k:
                return False
            masks = [0] * k
            for vv, b in enumerate(assignment):
                if b >= 0:
                    masks[b] |= 1 << vv
            if any(not _connected_mask(adj_masks, bm) for bm in masks):
                return False
            return contact_contains_h(masks)
        # canonical: part indices appear in order of first use
        for b in range(-1, min(started + 1, k)):
            assignment[v] = b
            if rec(v + 1, started + (1 if b == started else 0)):
                return True
        assignment[v] = -1
        return False

    return rec(0, 0)


_K5 = Graph.build(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
_K33 = Graph.build(6, [(i, j) for i in range(3) for j in range(3, 6)])


def planar_oracle(g: Graph) -> bool:
    """Planarity by Kuratowski/Wagner minor search. Small graphs only."""
    if g.n <= 4:
        return True
    if g.n >= 3 and g.m > 3 * g.n - 6:
        return False
    return not (has_minor(g, _K5) or has_minor(g, _K33))


# ---------------------------------------------------------------------------
# Reference left-right planarity test (the class-based translation)
# ---------------------------------------------------------------------------


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


def reference_is_planar(g: Graph) -> bool:
    """The left-right test as first written: a class over (v, w) edge
    tuples with a conflict-pair dataclass and an exception that unwinds
    the search, a line-by-line translation of Brandes's pseudocode (testing
    phase only). Same quick answers as ``is_planar``."""
    if g.n <= 4:
        return True
    if g.m > 3 * g.n - 6:
        return False
    return _LRTest(g).run()


# ---------------------------------------------------------------------------
# Literal separation / flap oracle, straight from the definitions
# ---------------------------------------------------------------------------


def _subsets_le2(n: int):
    yield ()
    for i in range(n):
        yield (i,)
    for i in range(n):
        for j in range(i + 1, n):
            yield (i, j)


def _components_without(g: Graph, removed: tuple[int, ...]) -> list[frozenset[int]]:
    removed_set = set(removed)
    seen = set(removed_set)
    comps = []
    for s in range(g.n):
        if s in seen:
            continue
        stack = [s]
        seen.add(s)
        comp = {s}
        while stack:
            v = stack.pop()
            for w in g.adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
                    comp.add(w)
        comps.append(frozenset(comp))
    return comps


def brute_cut_vertices(g: Graph, removed: tuple[int, ...] = ()) -> list[int]:
    """Vertices of g - removed whose deletion leaves more components,
    found by deleting each one in turn and counting components."""
    base = len(_components_without(g, removed))
    return [v for v in range(g.n) if v not in removed
            and len(_components_without(g, removed + (v,))) > base]


def brute_blocks(g: Graph) -> list[tuple[int, ...]]:
    """The blocks of g from the definition, sorted: the maximal vertex sets
    of three or more vertices that stay connected after deleting any one
    of their vertices, and the end pairs of the bridges, the edges whose
    deletion leaves more components. Exponential; small graphs only."""
    def connected_without(kept: frozenset[int], dropped: tuple[int, ...]) -> bool:
        outside = tuple(v for v in range(g.n) if v not in kept) + dropped
        return len(_components_without(g, outside)) == 1

    two_connected = [frozenset(u) for r in range(3, g.n + 1)
                     for u in itertools.combinations(range(g.n), r)
                     if connected_without(frozenset(u), ())
                     and all(connected_without(frozenset(u), (v,)) for v in u)]
    found = [tuple(sorted(u)) for u in two_connected
             if not any(u < other for other in two_connected)]
    base = len(_components_without(g, ()))
    found += [e for e in sorted(g.edges)
              if len(_components_without(Graph(g.n, g.edges - {e}), ())) > base]
    return sorted(found)


def literal_flap_interiors(g: Graph) -> tuple[bool, set[frozenset[int]]]:
    """(some separation exists, set of interiors S that are flap sides for
    some cut set X), enumerating unions of components and every X of size
    at most 2 as in the raw definition."""
    any_separation = False
    interiors: set[frozenset[int]] = set()
    for x in _subsets_le2(g.n):
        comps = _components_without(g, x)
        if len(comps) < 2:
            continue
        any_separation = True
        for r in range(1, len(comps)):
            for chosen in itertools.combinations(comps, r):
                s = frozenset().union(*chosen)
                if s in interiors:
                    continue
                verts = sorted(s | set(x))
                index = {v: i for i, v in enumerate(verts)}
                side = add_clique(induced_subgraph(g, verts), [index[v] for v in x])
                if is_planar(side):
                    interiors.add(s)
    return any_separation, interiors


def slow_flap_candidates(g: Graph) -> tuple[list[Separation], bool]:
    """The candidate flaps in ``flaps._search`` order, and whether any cut
    set separates g: every single-component side gets its own planarity
    test of the side plus a clique on the cut set."""
    cands = []
    separable = False
    for x in _subsets_le2(g.n):
        comps = _components_without(g, x)
        if len(comps) < 2:
            continue
        separable = True
        for s in comps:
            verts = sorted(s | set(x))
            index = {v: i for i, v in enumerate(verts)}
            if is_planar(add_clique(induced_subgraph(g, verts), [index[v] for v in x])):
                cands.append(Separation(x, tuple(s)))
    return cands, separable


def _mask_components(adjm: list[int], alive: int) -> list[tuple[int, tuple[int, ...]]]:
    """The components of the graph with adjacency masks ``adjm`` induced on
    the vertex mask ``alive``, ordered by least member, each as its vertex
    mask and its sorted vertices."""
    comps = []
    while alive:
        todo = alive & -alive
        alive ^= todo
        comp = 0
        members = []
        while todo:
            low = todo & -todo
            todo ^= low
            comp |= low
            v = low.bit_length() - 1
            members.append(v)
            reach = adjm[v] & alive
            alive ^= reach
            todo |= reach
        comps.append((comp, tuple(sorted(members))))
    return comps


def slow_flap_sides(g: Graph) -> tuple[list[tuple[tuple[int, ...], int, bool | None]], bool]:
    """``flaps._search`` as one component search per cut set of at most two
    vertices: the single-component sides (X, S) not ruled non-planar, each
    as X, S's mask and True (planar) or None (pending), and whether any cut
    set separates g. Each side's edges are counted vertex by vertex, and
    g's non-planar blocks get one planarity test each."""
    adjm = [sum(1 << w for w in nbrs) for nbrs in g.adj]
    bad = [sum(1 << v for v in b) for b in blocks(g)
           if not is_planar(induced_subgraph(g, b))]
    sides = []
    separable = False
    for x in _subsets_le2(g.n):
        xmask = sum(1 << v for v in x)
        comps = _mask_components(adjm, ((1 << g.n) - 1) & ~xmask)
        if len(comps) < 2:
            continue
        separable = True
        for smask, s in comps:
            vmask = xmask | smask
            touching = sum(1 for v in x if adjm[v] & smask)
            m = sum((adjm[v] & vmask).bit_count() for v in x + s) // 2
            if len(x) == 2 and not adjm[x[0]] >> x[1] & 1:
                m += 1
            planar = flaps._certain(len(x) + len(s), m, 2 if x and not touching else 1)
            if planar is None:
                if any(not b & ~vmask for b in bad):
                    planar = False
                elif touching < 2:
                    planar = True
            if planar is not False:
                sides.append((x, smask, planar))
    return sides, separable


def slow_max_packing(items: list[tuple[int, int]], forced: int | None = None) -> list[int]:
    """``flaps._max_packing`` as a recursive branch and bound that prunes
    to the inclusion-minimal items on every call: the maximum set of
    mutually compatible items (i compatible with j iff mask_i & block_j
    == 0), ties to the lexicographically first. ``forced`` includes that
    item and narrows the search to the items compatible with it."""
    live = range(len(items))
    if forced is not None:
        fmask, fblock = items[forced]
        live = [i for i in live if i != forced
                and not (items[i][0] & fblock) and not (items[i][1] & fmask)]
    keep = [i for i in live
            if not any(j != i and items[j][0] & ~items[i][0] == 0 for j in live)]
    pruned = [items[i] for i in keep]
    k = len(pruned)
    best: list[int] = []
    chosen: list[int] = []

    def rec(i: int, blocked: int) -> None:
        nonlocal best
        if len(chosen) + (k - i) <= len(best):
            return
        if i == k:
            best = chosen.copy()
            return
        mask, block = pruned[i]
        if not (mask & blocked):
            chosen.append(i)
            rec(i + 1, blocked | block)
            chosen.pop()
        rec(i + 1, blocked)

    rec(0, 0)
    return ([] if forced is None else [forced]) + [keep[i] for i in best]


def interior_item(g: Graph, s) -> tuple[int, int]:
    """The packing item of the vertex set s: its mask, and the mask of s
    and its neighbours."""
    mask = sum(1 << v for v in s)
    return mask, mask | sum(1 << w for w in {w for v in s for w in g.adj[v]})


def eager_flap_solve(g: Graph) -> tuple[list[Separation], int, list[Separation]]:
    """The maximum flap family, the flap number and the pool of valid
    first members as the solver found them before it decided sides on
    demand: every single-component side tested (``slow_flap_candidates``),
    one packing per distinct interior with that interior forced
    (``slow_max_packing``), the flap number the largest of them, the pool
    every candidate whose interior's packing reaches it, and the family
    the packing of the first side-maximal pool member. Graphs of at least
    2 vertices."""
    cands, _ = slow_flap_candidates(g)
    if not cands:
        return [], int(is_planar(g)), []
    firsts: dict[tuple[int, ...], Separation] = {}
    for cand in cands:
        firsts.setdefault(cand.s, cand)
    items = [interior_item(g, s) for s in firsts]
    packings = dict(zip(firsts, (slow_max_packing(items, i) for i in range(len(items)))))
    k = max(map(len, packings.values()))
    pool = [c for c in cands if len(packings[c.s]) == k]
    side_sets = [set(c.x) | set(c.s) for c in pool]
    first = next(c for c, side in zip(pool, side_sets)
                 if not any(side < other for other in side_sets))
    order = list(firsts.values())
    return [first] + [order[i] for i in packings[first.s][1:]], k, pool


def eager_flap_reduction(g: Graph, family: list[Separation], k: int,
                         pool: list[Separation]) -> Graph:
    """``flaps.flap_reduction`` of an independent family of flaps, checked
    against the flap number k and the pool of ``eager_flap_solve(g)``: the
    first member's interior removed and its cut set completed to a
    clique."""
    if len(family) != k:
        raise PreconditionError(f"family of {len(family)} is not maximum (flap number {k})")
    first_side = set(family[0].x) | set(family[0].s)
    if any(first_side < set(c.x) | set(c.s) for c in pool):
        raise PreconditionError("first member not maximal")
    remaining = sorted(set(range(g.n)) - set(family[0].s))
    index = {v: i for i, v in enumerate(remaining)}
    return add_clique(induced_subgraph(g, remaining), [index[v] for v in family[0].x])


def literal_flap_number(g: Graph) -> int:
    """Flap number straight from the definition: maximum pairwise independent
    family of flaps, over separations with arbitrary component unions."""
    any_sep, interiors = literal_flap_interiors(g)
    if not any_sep:
        return 1 if is_planar(g) else 0
    if not interiors:
        return 0
    # pairwise independence depends only on interiors: disjoint and no edge
    # between them. Max packing by DP over vertex masks.
    cands = []
    for s in interiors:
        smask = 0
        for v in s:
            smask |= 1 << v
        block = smask
        for v in s:
            for w in g.adj[v]:
                block |= 1 << w
        cands.append((smask, block))
    by_vertex: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for smask, block in cands:
        low = (smask & -smask).bit_length() - 1
        by_vertex[low].append((smask, block))

    from functools import lru_cache

    @lru_cache(maxsize=None)
    def best(mask: int) -> int:
        if mask == 0:
            return 0
        low = (mask & -mask).bit_length() - 1
        result = best(mask & (mask - 1))  # low vertex not a lowest member
        for smask, block in by_vertex[low]:
            if smask & ~mask:
                continue
            result = max(result, 1 + best(mask & ~block))
        return result

    full = (1 << g.n) - 1
    return best(full)


def literal_strongly_non_planar(g: Graph) -> bool:
    if is_planar(g):
        return False
    _, interiors = literal_flap_interiors(g)
    return not interiors


# ---------------------------------------------------------------------------
# Pasting through relabelled side graphs: the oracle for lower_bound_graph
# ---------------------------------------------------------------------------


def slow_lower_bound_graph(h: Graph, n: int) -> Graph:
    """``lower_bound_graph`` with each flap side built as an induced
    subgraph on its sorted vertices and mapped back, copy by copy, through
    a table of fresh vertices. Refuses with the same messages."""
    if not is_connected(h):
        raise PreconditionError("pasting construction needs a connected graph")
    if n < 4 * h.n:
        raise PreconditionError(f"need n >= 4|V(H)| = {4 * h.n}")
    family, number = flap_family_and_number(h)
    if not family:
        if number == 0:
            raise PreconditionError("strongly non-planar: no flap to paste")
        copies = n // h.n
        edges = [(c * h.n + u, c * h.n + v) for c in range(copies) for u, v in h.edges]
        return Graph.build(copies * h.n, edges)
    q = n // h.n - 1
    edges = set(h.edges)
    deleted: set[int] = set()
    for sep in family:
        if len(sep.x) == 2:
            deleted.update(sep.s)
            edges.add((min(sep.x), max(sep.x)))
    next_vertex = h.n
    for sep in family:
        side = sorted(set(sep.x) | set(sep.s))
        side_graph = induced_subgraph(h, side)
        place = {v: j for j, v in enumerate(side)}
        side_edges = set(side_graph.edges)
        if len(sep.x) == 2:
            a, b = place[sep.x[0]], place[sep.x[1]]
            side_edges.add((min(a, b), max(a, b)))
        for _ in range(q):
            fresh = {}
            for v in side:
                if v in sep.x:
                    fresh[place[v]] = v
                else:
                    fresh[place[v]] = next_vertex
                    next_vertex += 1
            for a, b in side_edges:
                u, v = fresh[a], fresh[b]
                if u != v:
                    edges.add((min(u, v), max(u, v)))
    keep = [v for v in range(next_vertex) if v not in deleted]
    index = {v: i for i, v in enumerate(keep)}
    out_edges = [(index[u], index[v]) for u, v in edges
                 if u not in deleted and v not in deleted]
    return Graph.build(len(keep), out_edges)


# ---------------------------------------------------------------------------
# Split growth by retracing: the oracle for the face heap and the splitter
# ---------------------------------------------------------------------------


def slow_split_path(eg: EmbeddedGraph, x: int, v: int, y: int) -> EmbeddedGraph:
    """split_path on immutable rotation tuples: switch x and y to make xv
    and yv positive; a new vertex w = n takes over v's rotation arc
    strictly between x and y. Rotation starts: v's at x, w's at v; w goes
    just before v at x and just after v at y; each arc vertex puts w in
    v's place."""
    if eg.sign(x, v) < 0:
        eg = switch_vertex(eg, x)
    if eg.sign(y, v) < 0:
        eg = switch_vertex(eg, y)
    rot_v = list(eg.rotations[v])
    rot_v = rot_v[rot_v.index(x):] + rot_v[:rot_v.index(x)]  # (x, arc..., y, rest...)
    iy = rot_v.index(y)
    arc, rest = rot_v[1:iy], rot_v[iy + 1:]
    w = eg.n
    rotations = [list(r) for r in eg.rotations]
    edges = set(eg.graph.edges)
    negative = set(eg.negative_edges)
    for a in arc:
        old, new = (min(v, a), max(v, a)), (a, w)
        edges.discard(old)
        edges.add(new)
        if old in negative:
            negative.discard(old)
            negative.add(new)
        rotations[a][rotations[a].index(v)] = w
    rotations[v] = [x, w, y] + rest
    rotations[x].insert(rotations[x].index(v), w)
    rotations[y].insert(rotations[y].index(v) + 1, w)
    rotations.append([v, x] + arc + [y])
    edges.update({(v, w), (x, w), (y, w)})
    return EmbeddedGraph.build(Graph.build(w + 1, edges), rotations, negative)


def slow_split(eg: EmbeddedGraph, a: int, b: int, c: int) -> EmbeddedGraph:
    """Split the facial triangle traced a -> b -> c: switch the vertex
    shared by two negative sides, then split the path at the first
    rotation-consecutive corner."""
    sides = ((a, b), (b, c), (c, a))
    negative = [e for e in sides if eg.sign(*e) < 0]
    if len(negative) == 2:
        (shared,) = set(negative[0]) & set(negative[1])
        eg = switch_vertex(eg, shared)
    for x, v, y in ((a, b, c), (b, c, a), (c, a, b), (c, b, a), (b, a, c), (a, c, b)):
        rot = eg.rotations[v]
        if rot[(rot.index(x) + 1) % len(rot)] == y:
            return slow_split_path(eg, x, v, y)
    raise AssertionError("no corner of the face is rotation-consecutive")


def slow_split_growth(seed: EmbeddedGraph, n: int) -> EmbeddedGraph:
    """Retrace every face at every step and split the least face by
    sorted vertex triple, the first in trace order on ties."""
    eg = seed
    while eg.n < n:
        face = min(map(face_tail_vertices, slow_trace_faces(eg)), key=sorted)
        eg = slow_split(eg, *face)
    return eg


# ---------------------------------------------------------------------------
# Parsing through edge sets: the oracle for the parse's fast path
# ---------------------------------------------------------------------------


def slow_read_rotations(n: int, lines: list[str]) -> EmbeddedGraph | None:
    """The rotation lines read whole with ``int``, or None on the first sign
    of a fault. The checks go through two edge sets: no loops or duplicates
    (each would leave fewer edges than half the listings), each neighbor
    listing its vertex back (so it is in range, and every rotation is a
    permutation of its neighbors), equal signs. The result is built through
    the checked constructors."""
    try:
        split = [ln.partition(":") for ln in lines]
        if list(map(int, [head for head, _, _ in split])) != list(range(n)):
            return None
        rests = [rest for _, _, rest in split]
        rotations = [None if "-" in rest else tuple(map(int, rest.split())) for rest in rests]
        negative: list[tuple[int, int]] = []  # negative marks, as (from, to)
        for v in [v for v, rot in enumerate(rotations) if rot is None]:
            toks = rests[v].split()
            rotations[v] = rot = tuple(int(t[:-1]) if t[-1] == "-" else int(t) for t in toks)
            negative += [(v, u) for t, u in zip(toks, rot) if t[-1] == "-"]
    except ValueError:
        return None
    edges = frozenset([(v, u) for v, rot in enumerate(rotations) for u in rot if v < u])
    if (2 * len(edges) != sum(map(len, rotations))
            or edges != {(u, v) for v, rot in enumerate(rotations) for u in rot if u < v}):
        return None
    signed = frozenset((v, u) for v, u in negative if v < u)
    if signed != {(u, v) for v, u in negative if u < v}:
        return None
    return EmbeddedGraph.build(Graph.build(n, edges), rotations, signed)


def slow_parse_fault(n: int, lines: list[tuple[int, str]]) -> ParseError:
    """The first fault of numbered rotation lines that ``slow_read_rotations``
    refuses, named as the parse names it: this module's own copy of the
    token reader, so a changed message does not pass as its own oracle."""
    negative_at: dict[tuple[int, int], bool] = {}  # (v, u): u is marked at v
    for expect, (lineno, ln) in enumerate(lines[1:]):
        head, _, rest = ln.partition(":")
        try:
            v = int(head.strip())
        except ValueError:
            return ParseError(f"expected 'v: ...', got {ln!r}", lineno)
        if v != expect:
            return ParseError(f"rotation lines must be in order; expected {expect}", lineno)
        for tok in rest.split():
            try:
                u = int(tok[:-1] if tok.endswith("-") else tok)
            except ValueError:
                return ParseError(f"bad neighbor token {tok!r}", lineno)
            if u == v:
                return ParseError(f"self-loop at vertex {v}", lineno)
            if not 0 <= u < n:
                return ParseError(f"neighbor {u} out of range", lineno)
            if (v, u) in negative_at:
                return ParseError(f"duplicate neighbor {u} at vertex {v}", lineno)
            negative_at[v, u] = tok.endswith("-")
    for (v, u), marked in negative_at.items():
        if (u, v) not in negative_at:
            return ParseError(f"vertex {u} does not list {v} back")
        if negative_at[u, v] != marked:
            return ParseError(f"edge {(min(u, v), max(u, v))} has conflicting signs "
                              "at its endpoints")
    raise InternalInvariantError("the edge-set reader refused a document with no fault")


def slow_parse_embedding(text: str) -> EmbeddedGraph:
    """``parse_embedding`` with ``slow_read_rotations`` as its fast path:
    the same header checks, and ``slow_parse_fault`` names any fault."""
    lines = [
        (i + 1, ln) for i, ln in enumerate(text.splitlines())
        if ln.strip() and not ln.lstrip().startswith("#")
    ]
    if not lines:
        raise ParseError("empty embedding document")
    lineno, header = lines[0]
    try:
        n = int(header.strip())
    except ValueError:
        raise ParseError(f"expected vertex count, got {header!r}", lineno) from None
    if len(lines) - 1 != n:
        raise ParseError(f"expected {n} rotation lines, found {len(lines) - 1}")
    eg = slow_read_rotations(n, [ln for _, ln in lines[1:]])
    if eg is None:
        raise slow_parse_fault(n, lines)
    return eg


# ---------------------------------------------------------------------------
# Face tracing by tuple states: the oracle for the dart-table tracer
# ---------------------------------------------------------------------------


def slow_step(eg: EmbeddedGraph, state: tuple[int, int, int]) -> tuple[int, int, int]:
    """One step of the signed rule from state (from u, to v, sign s): s
    takes the sign of uv, then the walk leaves v towards u's rotation
    successor when s is positive, its predecessor when negative."""
    u, v, sign = state
    if (min(u, v), max(u, v)) in eg.negative_edges:
        sign = -sign
    rot = eg.rotations[v]
    i = rot.index(u)
    return (v, rot[(i + 1) % len(rot)] if sign > 0 else rot[(i - 1) % len(rot)], sign)


Steps = tuple[tuple[int, int], ...]


def slow_trace_faces(eg: EmbeddedGraph) -> list[Steps]:
    """Every face as the directed edges (from, to) its walk takes. Every
    (from, to, sign) state in sorted order; each one not yet seen starts a
    face, which is its orbit. The reverse traversal, from the mirror state
    (v, u, -s * sign(uv)), must be an orbit of the same length made of
    unseen states."""
    seen: set[tuple[int, int, int]] = set()
    faces = []
    for start in sorted((p, q, s) for u, v in eg.graph.edges
                        for p, q in ((u, v), (v, u)) for s in (1, -1)):
        if start in seen:
            continue
        orbit = [start]
        cur = slow_step(eg, start)
        while cur != start:
            orbit.append(cur)
            cur = slow_step(eg, cur)
        seen.update(orbit)
        u, v, sign = start
        if (min(u, v), max(u, v)) not in eg.negative_edges:
            sign = -sign
        cur = back = (v, u, sign)
        size = 0
        while cur not in seen:
            seen.add(cur)
            size += 1
            cur = slow_step(eg, cur)
        if cur != back or size != len(orbit):
            raise AssertionError("face orbits do not pair off by traversal direction")
        faces.append(tuple((u, v) for u, v, _ in orbit))
    return faces


def face_tail_vertices(steps: Steps) -> tuple[int, ...]:
    """The vertex each step of a face leaves, in walk order."""
    return tuple(u for u, _ in steps)


def is_triangle_face(steps: Steps) -> bool:
    """Three steps through three distinct vertices."""
    return len(steps) == 3 and len(set(face_tail_vertices(steps))) == 3


# ---------------------------------------------------------------------------
# Contraction by rebuilding through the checked constructors
# ---------------------------------------------------------------------------


def slow_contract_reducible(eg: EmbeddedGraph, edge: tuple[int, int]) -> EmbeddedGraph:
    """``contract_reducible`` on sets of edges: the triangles through vw
    from the adjacency, the triangulation test from the tuple-state oracle's
    walks, w switched by hand when vw is negative, and the result renumbered
    edge by edge and rebuilt through ``Graph.build`` and
    ``EmbeddedGraph.build``, which re-check it. Refuses with the same
    messages."""
    v, w = edge
    g = eg.graph
    if not g.has_edge(v, w):
        raise PreconditionError(f"edge ({v},{w}) not in graph")
    thirds = sorted(set(g.adj[v]) & set(g.adj[w]))
    if len(thirds) != 2:
        raise PreconditionError(
            f"edge ({v},{w}) lies in {len(thirds)} triangles, need exactly 2")
    if not all(map(is_triangle_face, slow_trace_faces(eg))):
        raise PreconditionError("contraction is defined for triangulations")
    rotations = list(eg.rotations)
    negative = set(eg.negative_edges)
    if _norm_pair(v, w) in negative:
        rotations[w] = tuple(reversed(rotations[w]))
        negative ^= {_norm_pair(w, u) for u in g.adj[w]}
    rot_w = list(rotations[w])
    rot_w = rot_w[rot_w.index(v):] + rot_w[:rot_w.index(v)]  # (v, x, ..., y)
    if len(rot_w) < 3:
        raise PreconditionError("degenerate contraction site")
    x, y = rot_w[1], rot_w[-1]
    if x == y or {x, y} != set(thirds):
        raise PreconditionError(
            f"the two faces at ({v},{w}) are not the two triangles through it")
    arc = rot_w[2:-1]
    rot_v = list(rotations[v])
    rot_v = rot_v[rot_v.index(w):] + rot_v[:rot_v.index(w)]  # (w, y, ..., x)
    if rot_v[1] != y or rot_v[-1] != x:
        raise InternalInvariantError("face corners disagree at v")
    merged = arc + [y] + rot_v[2:-1] + [x]
    edges = set(g.edges)
    for gone in ((v, w), (w, x), (w, y)):
        edges.discard(_norm_pair(*gone))
        negative.discard(_norm_pair(*gone))
    for a in arc:
        old, new = _norm_pair(w, a), _norm_pair(v, a)
        edges.discard(old)
        edges.add(new)
        if old in negative:
            negative.discard(old)
            negative.add(new)
        rot_a = list(rotations[a])
        rot_a[rot_a.index(w)] = v
        rotations[a] = tuple(rot_a)
    rotations[v] = tuple(merged)
    for z in (x, y):
        rot_z = list(rotations[z])
        rot_z.remove(w)
        rotations[z] = tuple(rot_z)
    remap = [u if u < w else u - 1 for u in range(g.n)]
    new_edges = {_norm_pair(remap[a], remap[b]) for a, b in edges}
    new_neg = {_norm_pair(remap[a], remap[b]) for a, b in negative}
    new_rots = [tuple(remap[u] for u in rotations[z]) for z in range(g.n) if z != w]
    return EmbeddedGraph.build(Graph.build(g.n - 1, new_edges), new_rots, new_neg)


# ---------------------------------------------------------------------------
# Rotation systems from face lists by scanning every face for each vertex
# ---------------------------------------------------------------------------


def _norm_pair(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


def slow_embedding_from_faces(n: int, faces: list[tuple[int, int, int]]) -> EmbeddedGraph:
    """The signed rotation system whose faces are the listed triangles.
    Each edge must lie in exactly two faces (counting multiplicity) and
    each vertex link must be a single cycle. Each vertex link is read by a
    scan over every face: O(n * f)."""
    edge_faces: dict[tuple[int, int], list[int]] = {}
    for i, f in enumerate(faces):
        if len(set(f)) != 3:
            raise PreconditionError(f"face {f} is not a triangle")
        for a, b in ((f[0], f[1]), (f[1], f[2]), (f[2], f[0])):
            edge_faces.setdefault(_norm_pair(a, b), []).append(i)
    for e, fs in edge_faces.items():
        if len(fs) != 2:
            raise PreconditionError(f"edge {e} lies in {len(fs)} faces, need 2")
    graph = Graph.build(n, edge_faces.keys())
    # vertex links: each neighbor's partners around v
    rotations = []
    for v in range(n):
        partners: dict[int, list[int]] = {}
        for f in faces:
            if v in f:
                rest = [u for u in f if u != v]
                partners.setdefault(rest[0], []).append(rest[1])
                partners.setdefault(rest[1], []).append(rest[0])
        nbrs = sorted(graph.adj[v])
        if not nbrs:
            raise PreconditionError(f"vertex {v} is isolated")
        if sorted(partners) != nbrs or any(len(p) != 2 for p in partners.values()):
            raise PreconditionError(f"link of vertex {v} is not a single cycle")
        start = nbrs[0]
        second = min(partners[start])
        cycle = [start, second]
        while True:
            prev, cur = cycle[-2], cycle[-1]
            nxts = [u for u in partners[cur] if u != prev]
            nxt = nxts[0] if nxts else prev  # doubled link edge (degree 2)
            if nxt == cycle[0] and len(cycle) == len(nbrs):
                break
            cycle.append(nxt)
            if len(cycle) > len(nbrs):
                raise PreconditionError(f"link of vertex {v} is not a single cycle")
        if sorted(cycle) != nbrs:
            raise PreconditionError(f"link of vertex {v} is not a single cycle")
        rotations.append(tuple(cycle))
    # derive edge signs from corner orientations: walking a face, the sign
    # of each step edge is the product of the corner senses at its ends
    def corner_sense(v: int, come: int, go: int) -> int:
        rot = rotations[v]
        i = rot.index(come)
        if rot[(i + 1) % len(rot)] == go:
            return 1
        if rot[(i - 1) % len(rot)] == go:
            return -1
        raise PreconditionError(
            f"face corner at {v} ({come}->{go}) not rotation-consecutive")

    signs: dict[tuple[int, int], int] = {}
    for f in faces:
        walk = list(f)
        eps = []
        for t in range(3):
            come = walk[(t - 1) % 3]
            v = walk[t]
            go = walk[(t + 1) % 3]
            eps.append(corner_sense(v, come, go))
        for t in range(3):
            e = _norm_pair(walk[t], walk[(t + 1) % 3])
            lam = eps[t] * eps[(t + 1) % 3]
            if signs.setdefault(e, lam) != lam:
                raise PreconditionError(f"inconsistent sign derivation at edge {e}")
    negative = {e for e, s in signs.items() if s < 0}
    eg = EmbeddedGraph.build(graph, rotations, negative)
    want = sorted(tuple(sorted(f)) for f in faces)
    got = sorted(tuple(sorted(face_tail_vertices(f))) for f in slow_trace_faces(eg))
    if want != got:
        raise PreconditionError("face reconstruction failed to reproduce the face list")
    return eg


# ---------------------------------------------------------------------------
# Face lists of the bundled surfaces and their derivation
# ---------------------------------------------------------------------------

TETRAHEDRON_FACES = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]

# Faces of the icosahedron's antipodal quotient: class 0 is the pole pair,
# classes 1..5 the five ring pairs.
PROJECTIVE_K6_FACES = [
    (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1),
    (1, 2, 4), (2, 3, 5), (3, 4, 1), (4, 5, 2), (5, 1, 3),
]

OCTA_FACES = [(0, 2, 4), (0, 4, 3), (0, 3, 5), (0, 5, 2),
              (1, 2, 4), (1, 4, 3), (1, 3, 5), (1, 5, 2)]


def icosahedron() -> EmbeddedGraph:
    """The icosahedron: top pole 0, upper ring 1..5, lower ring 6..10,
    bottom pole 11."""
    up = [1, 2, 3, 4, 5]
    lo = [6, 7, 8, 9, 10]
    faces = []
    for j in range(5):
        faces.append((0, up[j], up[(j + 1) % 5]))
        faces.append((11, lo[j], lo[(j + 1) % 5]))
        faces.append((up[j], up[(j + 1) % 5], lo[j]))
        faces.append((up[(j + 1) % 5], lo[j], lo[(j + 1) % 5]))
    return slow_embedding_from_faces(12, faces)


def icosahedron_antipodal_classes() -> list[tuple[int, int]]:
    """Vertex pairs identified by the antipodal map, matching the labeling
    of icosahedron(): poles pair up, and upper vertex j pairs with the
    lower vertex two steps around."""
    pairs = [(0, 11)]
    for j in range(5):
        pairs.append((1 + j, 6 + (j + 2) % 5))
    return pairs


# ---------------------------------------------------------------------------
# Decomposition trees by rebuilding every piece and rerunning the cut search
# ---------------------------------------------------------------------------


def _slow_separating_pair(g: Graph) -> tuple[int, int] | None:
    """For a 2-connected g that is not a cycle: None if g is 3-connected,
    else the lexicographically first pair x < y, both of degree at least 3,
    whose removal disconnects g, removing every pair in turn."""
    pairs = ((x, y) for x, y in itertools.combinations(range(g.n), 2)
             if len(_components_without(g, (x, y))) > 1)
    first = next(pairs, None)
    if first is None:
        return None
    for x, y in itertools.chain((first,), pairs):
        if g.degree(x) >= 3 and g.degree(y) >= 3:
            return x, y
    raise InternalInvariantError("2-connected non-cycle graph must have a degree-3 cutset")


def per_vertex_pair_scan(g: Graph, start: int) -> tuple[int, int] | None:
    """The pair ``spqrk._separating_pair`` must give from ``start``, found
    by trying every x >= start of degree at least 3 in turn: its partners
    y > x of degree at least 3 are the cut vertices of g - x, found by
    deleting each one. The same guard: None only if no vertex has degree 2."""
    for x in range(start, g.n):
        if g.degree(x) >= 3:
            for y in brute_cut_vertices(g, (x,)):
                if y > x and g.degree(y) >= 3:
                    return x, y
    if any(g.degree(v) == 2 for v in range(g.n)):
        raise InternalInvariantError("2-connected non-cycle graph must have a degree-3 cutset")
    return None


class _SlowBuilder:
    """Worklist construction over subgraphs carrying original indices: each
    piece is rebuilt as a fresh ``Graph``, split at its least cut vertex
    (Q) or its first separating pair (P), and its children are the
    components of the piece less the cut, ordered by least member. After a
    child's subtree, the tree edge from the split node to its anchor in
    that subtree is linked."""

    def __init__(self):
        self.nodes: list[SpqrkNode] = []
        self.links: list[tuple[int, int]] = []

    def add_node(self, node: SpqrkNode) -> int:
        self.nodes.append(node)
        return len(self.nodes) - 1

    def build(self, vertices: tuple[int, ...], edges) -> None:
        work: list[tuple] = [(vertices, edges, None, ())]
        while work:
            item = work.pop()
            if len(item) == 3:
                parent, shared, first = item
                child_nodes = range(first, len(self.nodes))
                if self.nodes[parent].kind == "P":
                    anchor = self._flip_real_to_virtual(child_nodes, shared)
                else:
                    anchor = self._q_anchor(child_nodes, shared[0])
                self.links.append((parent, anchor))
                continue
            vertices, edges, parent, shared = item
            if parent is not None:
                work.append((parent, shared, len(self.nodes)))
            work.extend(reversed(self._piece(vertices, edges)))

    def _piece(self, vertices: tuple[int, ...], edges) -> list[tuple]:
        index = {v: i for i, v in enumerate(vertices)}
        local = Graph.build(len(vertices), [(index[u], index[v]) for u, v in edges])
        cuts = brute_cut_vertices(local)
        if cuts:
            return self._split(vertices, local, (cuts[0],))
        if local.n <= 2:
            kind = "K"
        elif all(local.degree(v) == 2 for v in range(local.n)):
            kind = "S"
        else:
            pair = _slow_separating_pair(local)
            if pair is not None:
                return self._split(vertices, local, pair)
            kind = "R"
        edges = [(vertices[u], vertices[v], REAL) for u, v in sorted(local.edges)]
        self.add_node(SpqrkNode(kind, vertices, edges))
        return []

    def _split(self, vertices: tuple[int, ...], local: Graph,
               cut: tuple[int, ...]) -> list[tuple]:
        shared = tuple(vertices[v] for v in cut)
        comps = connected_components(local, cut)
        if len(cut) == 1:
            split = self.add_node(SpqrkNode("Q", shared, []))
            extra = ()
        else:
            p_edges = [(*shared, VIRTUAL) for _ in comps]
            if local.has_edge(*cut):
                p_edges.append((*shared, REAL))
            split = self.add_node(SpqrkNode("P", shared, p_edges))
            extra = (shared,)
        where = [-1] * local.n
        pieces = []
        for k, comp in enumerate(comps):
            for v in comp:
                where[v] = k
            pieces.append((tuple(sorted(vertices[v] for v in comp + cut)), set(extra),
                           split, shared))
        for u, v in local.edges:
            k = where[u] if where[u] >= 0 else where[v]
            if k >= 0:
                pieces[k][1].add((vertices[u], vertices[v]))
        return pieces

    def _q_anchor(self, node_ids: range, ox: int) -> int:
        containing = [i for i in node_ids if ox in self.nodes[i].vertices]
        if len(containing) == 1:
            return containing[0]
        for i in containing:
            if self.nodes[i].kind == "P":
                return i
        raise InternalInvariantError(f"multiplied vertex {ox} lies in no P node")

    def _flip_real_to_virtual(self, node_ids: range, edge: tuple[int, int]) -> int:
        hits = [(i, j) for i in node_ids
                for j, e in enumerate(self.nodes[i].edges) if e == (*edge, REAL)]
        if len(hits) != 1:
            raise InternalInvariantError(
                f"edge {edge} should be real in exactly one node, got {len(hits)}")
        i, j = hits[0]
        self.nodes[i].edges[j] = (*edge, VIRTUAL)
        return i


def slow_spqrk_build(g: Graph) -> SpqrkTree:
    """The decomposition tree of a connected graph, as ``spqrk_build``
    gives it, with one fresh ``Graph`` and one articulation search per
    piece: O(n^2) on a path."""
    if not is_connected(g):
        raise PreconditionError("decomposition tree needs a connected graph")
    builder = _SlowBuilder()
    builder.build(tuple(range(g.n)), frozenset(g.edges))
    return SpqrkTree(builder.nodes, builder.links)


def slow_multigraph_is_minor(node: SpqrkNode, g: Graph) -> bool:
    """Is the node's multigraph a minor of g with each node vertex in its
    own branch set? Every assignment of the other vertices to a branch set
    or to none, each set connected, and the node edges matched one by one
    to distinct g-edges between the right sets by backtracking."""
    roots = list(node.vertices)
    if any(u not in roots or v not in roots for u, v, _ in node.edges):
        return False
    free = [v for v in range(g.n) if v not in roots]

    def matchable(owner: list[int], used: set, idx: int) -> bool:
        if idx == len(node.edges):
            return True
        a, b = roots.index(node.edges[idx][0]), roots.index(node.edges[idx][1])
        for u, w in g.edges:
            for x, y in ((u, w), (w, u)):
                if owner[x] == a and owner[y] == b and (u, w) not in used:
                    if matchable(owner, used | {(u, w)}, idx + 1):
                        return True
        return False

    for choice in itertools.product(range(-1, len(roots)), repeat=len(free)):
        owner = [-1] * g.n
        for i, r in enumerate(roots):
            owner[r] = i
        for v, i in zip(free, choice):
            owner[v] = i
        if all(len(connected_components(induced_subgraph(
                g, [v for v in range(g.n) if owner[v] == i]))) == 1
               for i in range(len(roots))) and matchable(owner, set(), 0):
            return True
    return False

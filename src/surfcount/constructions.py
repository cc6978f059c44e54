"""Extremal generators: flap pasting, tree blowups, and split growth.

These produce host graphs realizing the lower-bound copy counts: pasting
replicates flap sides at their cut sets, the tree blowup replicates a
maximum low-degree stable set, and split growth extends a triangulation
vertex by vertex while preserving its clique-count excesses.
"""

from __future__ import annotations

import heapq

from .embedding import EmbeddedGraph, _Splitter, face_vertices, is_triangulation
from .errors import InternalInvariantError, PreconditionError
from .flaps import flap_family_and_number, forest_mis, is_tree, tree_beta
from .graph import Graph, is_connected


def lower_bound_graph(h: Graph, n: int) -> Graph:
    """A graph on at most n vertices with at least q^k copies of h, where
    q = floor(n/|V(h)| - 1) and k is h's flap number.

    Built by pasting q fresh copies of each flap side of a maximum
    independent family at its cut set (adding the cut edge for
    2-separations and removing that flap's original interior). When h has
    flap number 1 but no flap at all (planar with no small separation),
    floor(n/|V(h)|) disjoint copies of h serve instead."""
    if not is_connected(h):
        raise PreconditionError("pasting construction needs a connected graph")
    if n < 4 * h.n:
        raise PreconditionError(f"need n >= 4|V(H)| = {4 * h.n}")
    family, number = flap_family_and_number(h)
    if not family:
        if number == 0:
            raise PreconditionError("strongly non-planar: no flap to paste")
        # planar, no small separation: disjoint copies
        copies = n // h.n
        edges = [(c * h.n + u, c * h.n + v) for c in range(copies) for u, v in h.edges]
        return Graph.build(copies * h.n, edges)
    q = n // h.n - 1
    edges = set(h.edges)
    deleted: set[int] = set()
    for sep in family:
        if len(sep.x) == 2:
            # drop the original interior, keep the cut edge
            deleted.update(sep.s)
            edges.add(sep.x)
    next_vertex = h.n
    for sep in family:
        # the cut vertices stay fixed in every copy, so the cut edge added
        # above serves them all
        side = set(sep.x) | set(sep.s)
        side_edges = [(u, v) for u, v in h.edges if u in side and v in side]
        for _ in range(q):
            fresh = {v: v for v in sep.x}
            for v in sep.s:
                fresh[v] = next_vertex
                next_vertex += 1
            for u, v in side_edges:
                u, v = fresh[u], fresh[v]
                edges.add((u, v) if u < v else (v, u))
    # remove deleted interiors and compact indices
    keep = [v for v in range(next_vertex) if v not in deleted]
    index = {v: i for i, v in enumerate(keep)}
    out_edges = [(index[u], index[v]) for u, v in edges
                 if u not in deleted and v not in deleted]
    return Graph.build(len(keep), out_edges)


def _maximum_low_degree_stable_set(t: Graph) -> list[int]:
    """Lexicographically-least maximum stable set among the vertices of
    degree at most 2: greedily keep each vertex whose inclusion still
    extends to the full stable-set size."""
    target = tree_beta(t)
    low = [v for v in range(t.n) if t.degree(v) <= 2]
    allowed = set(low)
    chosen: list[int] = []
    removed: set[int] = set()
    for v in low:
        if v in removed:
            continue
        trial = allowed - removed - {v} - set(t.adj[v])
        if len(chosen) + 1 + forest_mis(t, trial) == target:
            chosen.append(v)
            removed |= {v} | set(t.adj[v])
    if len(chosen) != target:
        raise InternalInvariantError("greedy stable set fell short of the tree's beta")
    return chosen


def tree_blowup(t: Graph, n: int) -> Graph:
    """Replace each member of a maximum stable set of low-degree vertices
    by floor((n - |V(T)|)/beta) twins sharing its neighborhood. The result
    is planar with at most n vertices and at least (floor term)^beta
    copies of the tree. Planarity holds by construction: only stable
    vertices of degree at most 2 get twins, and twins of such a vertex
    nest as parallel paths between its (at most two) neighbors."""
    if not is_tree(t):
        raise PreconditionError("blowup needs a tree")
    if n < 2 * t.n:
        raise PreconditionError(f"need n >= 2|V(T)| = {2 * t.n}")
    beta = tree_beta(t)
    stable = _maximum_low_degree_stable_set(t)
    q = (n - t.n) // beta
    kept = [v for v in range(t.n) if v not in stable]
    index = {v: i for i, v in enumerate(kept)}
    edges = [(index[u], index[v]) for u, v in t.edges
             if u in index and v in index]
    nxt = len(kept)
    for v in stable:
        for _ in range(q):
            for w in t.adj[v]:
                edges.append((index[w], nxt))
            nxt += 1
    return Graph.build(nxt, edges)


def split_growth(seed: EmbeddedGraph, n: int) -> EmbeddedGraph:
    """Grow a triangulation to exactly n vertices by repeatedly splitting
    the first facial triangle (faces ordered by sorted vertex triple).
    Adds 3 triangles and 1 K4 per step, so both excesses are preserved.

    The seed's one trace fills a heap of face triples; splitting abc by w
    replaces it with abw, acw and bcw, so growth costs O(n log n). A
    triangular face's walk starts at its least state, so its vertices are
    the sorted triple, and the split reads nothing else: faces with the
    same triple split alike, and ties need no tie-break."""
    if not is_triangulation(seed):
        raise PreconditionError("growth needs a triangulation seed")
    if n < seed.n:
        raise PreconditionError(f"target {n} below seed order {seed.n}")
    heap = [tuple(f) for f in face_vertices(seed)]
    heapq.heapify(heap)
    splitter = _Splitter(seed)
    for w in range(seed.n, n):
        a, b, c = heapq.heappop(heap)
        splitter.split(a, b, c)
        for face in ((a, b, w), (a, c, w), (b, c, w)):
            heapq.heappush(heap, face)
    return splitter.export()

"""Simple undirected graphs: the substrate every other module builds on.

Vertices are the integers 0..n-1. Graphs are immutable values; every
operation returns a new graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .errors import ParseError, PreconditionError

Edge = tuple[int, int]


def _norm_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def as_vertex_set(vertices: Iterable[int], n: int | None = None) -> tuple[int, ...]:
    """Normalize an iterable of vertex indices to a sorted duplicate-free tuple.

    Raises PreconditionError on duplicates or (when n is given) out-of-range
    members.
    """
    vs = tuple(sorted(vertices))
    for i in range(1, len(vs)):
        if vs[i] == vs[i - 1]:
            raise PreconditionError(f"duplicate vertex {vs[i]} in vertex set")
    if vs and (vs[0] < 0 or (n is not None and vs[-1] >= n)):
        raise PreconditionError(f"vertex set {vs} out of range for n={n}")
    return vs


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph on vertices 0..n-1."""

    n: int
    edges: frozenset[Edge]

    @staticmethod
    def build(n: int, edges: Iterable[Edge]) -> "Graph":
        if n < 0:
            raise PreconditionError("vertex count must be non-negative")
        es = set()
        for u, v in edges:
            if u == v:
                raise PreconditionError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise PreconditionError(f"edge ({u},{v}) out of range for n={n}")
            es.add(_norm_edge(u, v))
        return Graph(n, frozenset(es))

    @cached_property
    def adj(self) -> tuple[frozenset[int], ...]:
        nbrs: list[set[int]] = [set() for _ in range(self.n)]
        for u, v in self.edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        return tuple(frozenset(s) for s in nbrs)

    @property
    def m(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        return _norm_edge(u, v) in self.edges

    @cached_property
    def _twin_quotient(self) -> tuple["Graph", tuple[int, ...]]:
        """The quotient by ``twin_classes``: one vertex per class, in their
        order, adjacent when the classes are, weighted by class size. No
        loops, since twins are not adjacent. The graph itself with unit
        weights when every class is a singleton. Twins share their
        neighborhood, so a class's Q-neighbors are the classes of its
        first member's neighbors: Q is built from one member per class,
        not from every edge."""
        classes = twin_classes(self)
        if len(classes) == self.n:
            return self, (1,) * self.n
        where = [0] * self.n
        for i, c in enumerate(classes):
            for v in c:
                where[v] = i
        adj = self.adj
        qadj = tuple(frozenset(map(where.__getitem__, adj[c[0]])) for c in classes)
        q = Graph(len(classes), frozenset((i, j) for i, a in enumerate(qadj) for j in a if i < j))
        q.__dict__["adj"] = qadj  # the cached property, already built
        return q, tuple(map(len, classes))

    @cached_property
    def _out_in(self) -> tuple[tuple[frozenset[int], ...], tuple[frozenset[int], ...]]:
        """Each vertex's later and earlier neighbors in a smallest-last
        order (Matula-Beck 1983), which repeatedly removes a vertex of
        least degree among those left. A vertex's later neighbors were
        still there when it went, so no out-set is larger than the
        degeneracy, and the largest is exactly that. O(n + m): a stack per
        degree, where an entry is stale once its vertex is gone or its
        degree has fallen."""
        adj = self.adj
        deg = [len(a) for a in adj]
        buckets: list[list[int]] = [[] for _ in range(max(deg, default=0) + 1)]
        for v in reversed(range(self.n)):
            buckets[deg[v]].append(v)
        gone = [False] * self.n
        out: list[frozenset[int]] = [frozenset()] * self.n
        low = 0
        for _ in range(self.n):
            while True:
                while not buckets[low]:
                    low += 1
                v = buckets[low].pop()
                if not gone[v] and deg[v] == low:
                    break
            gone[v] = True
            later = [w for w in adj[v] if not gone[w]]
            out[v] = frozenset(later)
            for w in later:
                deg[w] -= 1
                buckets[deg[w]].append(w)
            if low:
                low -= 1  # a neighbor's degree fell by one at most
        return tuple(out), tuple(a - o for a, o in zip(adj, out))

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(n={self.n}, m={self.m})"


# ---------------------------------------------------------------------------
# Parsing and serialization (the canonical external edge-list format)
# ---------------------------------------------------------------------------


def parse_graph(text: str) -> Graph:
    """Parse the edge-list format: first line "n m", then m lines "u v".

    Lines beginning with '#' are ignored. Duplicate edges and self-loops
    are errors, reported with their line number.
    """
    lines = text.splitlines()
    data: list[tuple[int, str]] = [
        (i + 1, ln) for i, ln in enumerate(lines) if ln.strip() and not ln.lstrip().startswith("#")
    ]
    if not data:
        raise ParseError("empty graph document")
    lineno, header = data[0]
    parts = header.split()
    if len(parts) != 2:
        raise ParseError(f"expected header 'n m', got {header!r}", lineno)
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError(f"non-integer header {header!r}", lineno) from None
    if n < 0 or m < 0:
        raise ParseError("negative counts in header", lineno)
    if len(data) - 1 != m:
        raise ParseError(f"header promises {m} edges, found {len(data) - 1}")
    seen: set[Edge] = set()
    for lineno, ln in data[1:]:
        ps = ln.split()
        if len(ps) != 2:
            raise ParseError(f"expected 'u v', got {ln!r}", lineno)
        try:
            u, v = int(ps[0]), int(ps[1])
        except ValueError:
            raise ParseError(f"non-integer endpoint in {ln!r}", lineno) from None
        if u == v:
            raise ParseError(f"self-loop at vertex {u}", lineno)
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"vertex out of range in edge ({u},{v})", lineno)
        e = _norm_edge(u, v)
        if e in seen:
            raise ParseError(f"duplicate edge ({e[0]},{e[1]})", lineno)
        seen.add(e)
    return Graph(n, frozenset(seen))


def serialize_graph(g: Graph) -> str:
    """Inverse of parse_graph: vertices implicit, edges sorted lexicographically."""
    out = [f"{g.n} {g.m}"]
    out.extend(f"{u} {v}" for u, v in g.sorted_edges())
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Structural operations
# ---------------------------------------------------------------------------


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> Graph:
    """Subgraph induced on the given vertex set, re-indexed in sorted order."""
    vs = as_vertex_set(vertices, g.n)
    index = {v: i for i, v in enumerate(vs)}
    edges = [(index[u], index[v]) for u, v in g.edges if u in index and v in index]
    return Graph.build(len(vs), edges)


def spanning_forest(adj: Sequence[Iterable[int]], removed: Iterable[int] = ()
                    ) -> tuple[list[int], list[int]]:
    """One stack search over the neighbour lists ``adj`` (``Graph.adj``,
    rotations, any list of lists) minus ``removed``. Returns each vertex's
    discoverer (-1 at a root, -2 at a removed vertex) and the vertices in
    the order popped, one component after another, each from its least
    vertex. A vertex is marked when pushed and ``adj[v]`` is walked in the
    given order; the parent edges form the search's spanning forest, and
    a parent comes before its children in the order. O(n + m)."""
    parent: list = [None] * len(adj)
    for v in removed:
        parent[v] = -2
    order: list[int] = []
    for root, p in enumerate(parent):
        if p is not None:
            continue
        parent[root] = -1
        stack = [root]
        while stack:
            v = stack.pop()
            order.append(v)
            for w in adj[v]:
                if parent[w] is None:
                    parent[w] = v
                    stack.append(w)
    return parent, order


def connected_components(g: Graph, removed: Iterable[int] = ()) -> list[tuple[int, ...]]:
    """Maximal connected vertex sets of g minus ``removed``, ordered by
    smallest member."""
    parent, order = spanning_forest(g.adj, removed)
    starts = [i for i, v in enumerate(order) if parent[v] == -1]
    starts.append(len(order))
    return [tuple(sorted(order[a:b])) for a, b in zip(starts, starts[1:])]


def articulation_points(g: Graph, removed: Iterable[int] = ()) -> list[int]:
    """Sorted cut vertices of g minus ``removed``: the vertices whose
    deletion leaves more components. One iterative lowpoint DFS, O(n + m)
    (Hopcroft-Tarjan 1973). The articulation points of g - x are the
    partners y of the separating pairs {x, y} of a 2-connected g."""
    disc = [0] * g.n  # DFS discovery time from 1; 0 unvisited, -1 removed
    for v in removed:
        disc[v] = -1
    low = [0] * g.n
    cut = [False] * g.n
    clock = 0
    for root in range(g.n):
        if disc[root]:
            continue
        clock += 1
        disc[root] = low[root] = clock
        root_children = 0
        stack = [(root, -1, iter(g.adj[root]))]
        while stack:
            v, parent, todo = stack[-1]
            for w in todo:
                d = disc[w]
                if d == 0:
                    clock += 1
                    disc[w] = low[w] = clock
                    stack.append((w, v, iter(g.adj[w])))
                    break
                # a back edge, or the tree edge to the parent, which lowers
                # low[v] only to disc[parent], as the cut test allows
                if 0 < d < low[v]:
                    low[v] = d
            else:
                stack.pop()
                if parent == root:
                    root_children += 1
                elif parent >= 0:
                    if low[v] < low[parent]:
                        low[parent] = low[v]
                    if low[v] >= disc[parent]:
                        cut[parent] = True
        cut[root] = root_children >= 2
    return [v for v in range(g.n) if cut[v]]


def blocks(g: Graph) -> list[tuple[int, ...]]:
    """The vertex sets of the blocks of g, each sorted, in sorted order:
    its maximal 2-connected subgraphs and its bridges. An isolated vertex
    lies in no block; the cut vertices are those in two blocks or more.
    One iterative lowpoint DFS, O(n + m) (Hopcroft-Tarjan 1973): a stack
    of the visited vertices gives up each block as its lowpoint test
    closes."""
    disc = [0] * g.n  # DFS discovery time from 1; 0 unvisited
    low = [0] * g.n
    at = [0] * g.n  # position in ``visited``, kept since it only shrinks
    found: list[tuple[int, ...]] = []
    clock = 0
    for root in range(g.n):
        if disc[root]:
            continue
        clock += 1
        disc[root] = low[root] = clock
        visited = [root]
        stack = [(root, -1, iter(g.adj[root]))]
        while stack:
            v, parent, todo = stack[-1]
            for w in todo:
                d = disc[w]
                if d == 0:
                    clock += 1
                    disc[w] = low[w] = clock
                    at[w] = len(visited)
                    visited.append(w)
                    stack.append((w, v, iter(g.adj[w])))
                    break
                if d < low[v]:
                    low[v] = d
            else:
                stack.pop()
                if parent < 0:
                    continue
                if low[v] < low[parent]:
                    low[parent] = low[v]
                if low[v] >= disc[parent]:
                    # v's subtree, less the blocks already given up, and
                    # the parent
                    found.append(tuple(sorted(visited[at[v]:] + [parent])))
                    del visited[at[v]:]
    found.sort()
    return found


def twin_classes(g: Graph) -> list[tuple[int, ...]]:
    """Classes of false twins: vertices with equal open neighborhoods,
    which are never adjacent. Each class is sorted and the classes are
    ordered by least member; the isolated vertices form one class."""
    classes: dict[frozenset[int], list[int]] = {}
    for v, nbrs in enumerate(g.adj):
        classes.setdefault(nbrs, []).append(v)
    return [tuple(c) for c in classes.values()]


def is_connected(g: Graph) -> bool:
    return spanning_forest(g.adj)[0].count(-1) <= 1


def add_clique(g: Graph, vertices: Iterable[int]) -> Graph:
    """Insert every missing edge inside the given vertex set."""
    vs = as_vertex_set(vertices, g.n)
    edges = set(g.edges)
    for i, u in enumerate(vs):
        for v in vs[i + 1:]:
            edges.add((u, v))
    return Graph(g.n, frozenset(edges))


# ---------------------------------------------------------------------------
# Isomorphism test
# ---------------------------------------------------------------------------


def degree_key(g: Graph) -> tuple:
    """Isomorphism invariant: the sorted (degree, sorted neighbor degrees)
    pairs of g's vertices."""
    return tuple(sorted((len(a), tuple(sorted(len(g.adj[w]) for w in a)))
                        for a in g.adj))


def is_isomorphic(h: Graph, g: Graph) -> bool:
    """True iff some bijection V(h) -> V(g) preserves edges and non-edges."""
    return next(_isomorphisms(h, g), None) is not None


def _isomorphisms(h: Graph, g: Graph) -> Iterator[list[int]]:
    """Every bijection V(h) -> V(g) that preserves edges and non-edges, as
    the list of images of h's vertices; the automorphisms of h when g is h.

    A depth-first search with an explicit stack. h's vertices are placed
    by degree descending, then index, each among the neighbors of an
    earlier neighbor's image when it has one, on an unused vertex c of
    equal degree into whose neighborhood every earlier neighbor maps. The
    images are distinct, so no other earlier vertex maps there when N(c)
    holds exactly as many used vertices as there are earlier neighbors.
    Neighbor degrees are compared before the search, and component sizes
    once the first start image fails, since the search would try every
    other one before it saw them differ."""
    if h.n != g.n or h.m != g.m or degree_key(h) != degree_key(g):
        return
    hadj, gadj = h.adj, g.adj
    n = h.n
    order = sorted(range(n), key=lambda v: (-len(hadj[v]), v))
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    back: list[list[int]] = [[] for _ in range(n)]  # per position: earlier neighbors, as placed
    for i, v in enumerate(order):
        for w in hadj[v]:
            if pos[w] > i:
                back[pos[w]].append(v)
    image = [-1] * n
    used = [False] * n
    untried: list[Iterator[int]] = []  # per placed position, candidates left
    first_start = True
    i = 0
    while i >= 0:
        if i == n:
            yield image[:]
            i -= 1
            continue
        v = order[i]
        if len(untried) == i:
            untried.append(iter(gadj[image[back[i][0]]] if back[i] else range(n)))
        else:  # back from a dead end or a bijection: free v's last image
            used[image[v]] = False
            if i == 0 and first_start:
                first_start = False
                if (sorted(map(len, connected_components(h)))
                        != sorted(map(len, connected_components(g)))):
                    return
        hv, bv = hadj[v], back[i]
        for c in untried[i]:
            gc = gadj[c]
            if (not used[c] and len(gc) == len(hv)
                    and all(image[w] in gc for w in bv)
                    and sum(used[x] for x in gc) == len(bv)):
                image[v] = c
                used[c] = True
                i += 1
                break
        else:
            image[v] = -1
            untried.pop()
            i -= 1


# ---------------------------------------------------------------------------
# Small constructors used throughout tests, demos and constructions
# ---------------------------------------------------------------------------


def complete_graph(n: int) -> Graph:
    return Graph.build(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def path_graph(n: int) -> Graph:
    return Graph.build(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise PreconditionError("cycle needs at least 3 vertices")
    return Graph.build(n, [(i, (i + 1) % n) for i in range(n)])

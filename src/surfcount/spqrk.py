"""Decomposition trees with S, P, Q, R and K nodes.

The tree decomposes a connected graph along its cut vertices (Q nodes) and
its 2-cutsets whose members have degree at least 3 (P nodes), bottoming
out at 3-connected pieces (R), cycles (S), and single vertices or edges
(K). Node graphs are multigraphs over original vertex indices; each edge
of the input appears as a real edge in exactly one node, and every other
node edge is virtual.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

from .errors import CapExceeded, InternalInvariantError, PreconditionError
from .graph import Graph, articulation_points, connected_components, is_connected

REAL = "R"
VIRTUAL = "V"


@dataclass
class SpqrkNode:
    kind: str  # one of S P Q R K
    vertices: tuple[int, ...]  # original indices
    edges: list[tuple[int, int, str]] = field(default_factory=list)  # (u, v, flag)

    def real_edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u, v, f in self.edges if f == REAL]


@dataclass
class SpqrkTree:
    nodes: list[SpqrkNode]
    tree_edges: list[tuple[int, int]]  # indices into nodes

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in self.nodes]
        for a, b in self.tree_edges:
            adj[a].append(b)
            adj[b].append(a)
        return adj


def _separating_pair(g: Graph) -> tuple[int, int] | None:
    """For a 2-connected g that is not a cycle: None if g is 3-connected,
    else the lexicographically first pair x < y, both of degree at least 3,
    whose removal disconnects g. The y that pair with x are the
    articulation points of g - x."""
    pairs = ((x, y) for x in range(g.n) for y in articulation_points(g, (x,)) if y > x)
    first = next(pairs, None)
    if first is None:
        return None
    for x, y in chain((first,), pairs):
        if g.degree(x) >= 3 and g.degree(y) >= 3:
            return x, y
    raise InternalInvariantError("2-connected non-cycle graph must have a degree-3 cutset")


class _Builder:
    """Worklist construction over subgraphs carrying original indices.

    A piece that splits adds its Q or P node, then its children in order,
    each child's subtree whole before the next. After a child's subtree,
    the tree edge from the split node to its anchor in that subtree is
    linked, so nodes and links come in the order of a recursive build."""

    def __init__(self):
        self.nodes: list[SpqrkNode] = []
        self.links: list[tuple[int, int]] = []

    def add_node(self, node: SpqrkNode) -> int:
        self.nodes.append(node)
        return len(self.nodes) - 1

    def build(self, vertices: tuple[int, ...], edges) -> None:
        """Build the tree of the graph on ``vertices`` with ``edges``
        (original indices). The stack holds pieces still to place, as
        (vertices, edges, split node or None, shared cut), and links still
        to make, as (split node, shared cut, first node of the child)."""
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
        """Add the node of one piece, or the split node of a piece that
        splits, and return the children's pieces in order."""
        index = {v: i for i, v in enumerate(vertices)}
        local = Graph.build(len(vertices), [(index[u], index[v]) for u, v in edges])
        cuts = articulation_points(local)
        if cuts:
            return self._split(vertices, local, (cuts[0],))
        if local.n <= 2:
            kind = "K"
        elif all(local.degree(v) == 2 for v in range(local.n)):
            kind = "S"
        else:
            pair = _separating_pair(local)
            if pair is not None:
                return self._split(vertices, local, pair)
            kind = "R"
        edges = [(vertices[u], vertices[v], REAL) for u, v in sorted(local.edges)]
        self.add_node(SpqrkNode(kind, vertices, edges))
        return []

    def _split(self, vertices: tuple[int, ...], local: Graph,
               cut: tuple[int, ...]) -> list[tuple]:
        """Add the Q node of a cut vertex or the P node of a separating
        pair (local indices) and return one piece per component of
        local - cut: the component with the cut, and the edges with an end
        in the component plus, under a P node, the pair's edge."""
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
            if k >= 0:  # vertices are sorted, so u < v keeps its order
                pieces[k][1].add((vertices[u], vertices[v]))
        return pieces

    def _q_anchor(self, node_ids: range, ox: int) -> int:
        """The node of a Q node's child subtree that holds the cut vertex
        ``ox``: the only one, or else the first P node among them."""
        containing = [i for i in node_ids if ox in self.nodes[i].vertices]
        if len(containing) == 1:
            return containing[0]
        for i in containing:
            if self.nodes[i].kind == "P":
                return i
        raise InternalInvariantError(f"multiplied vertex {ox} lies in no P node")

    def _flip_real_to_virtual(self, node_ids: range, edge: tuple[int, int]) -> int:
        """Within the given nodes, find the unique node holding ``edge`` as a
        real edge, flip that occurrence to virtual, and return the node id."""
        hits = [(i, j) for i in node_ids
                for j, e in enumerate(self.nodes[i].edges) if e == (*edge, REAL)]
        if len(hits) != 1:
            raise InternalInvariantError(
                f"edge {edge} should be real in exactly one node, got {len(hits)}")
        i, j = hits[0]
        self.nodes[i].edges[j] = (*edge, VIRTUAL)
        return i


def spqrk_build(g: Graph) -> SpqrkTree:
    """Build the decomposition tree of a connected graph."""
    if not is_connected(g):
        raise PreconditionError("decomposition tree needs a connected graph")
    builder = _Builder()
    builder.build(tuple(range(g.n)), frozenset(g.edges))
    return SpqrkTree(builder.nodes, builder.links)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def _multigraph_is_minor(node: SpqrkNode, g: Graph, work_cap: int = 2_000_000) -> bool:
    """Is the node's multigraph a minor of g, with each node vertex in its
    own branch set? Branch sets grow from their roots over unused vertices;
    distinct node edges need distinct g-edges between the branch sets."""
    roots = list(node.vertices)
    k = len(roots)
    need = [((roots.index(u) if u in roots else -1),
             (roots.index(v) if v in roots else -1)) for u, v, _ in node.edges]
    if any(a < 0 or b < 0 for a, b in need):
        return False
    owner = [-1] * g.n
    for i, r in enumerate(roots):
        owner[r] = i
    budget = [work_cap]

    def edges_matchable(used: set[tuple[int, int]], idx: int) -> bool:
        if idx == len(need):
            return True
        a, b = need[idx]
        for u in range(g.n):
            if owner[u] != a:
                continue
            for w in g.adj[u]:
                if owner[w] != b:
                    continue
                key = (u, w) if u < w else (w, u)
                if key in used:
                    continue
                used.add(key)
                if edges_matchable(used, idx + 1):
                    used.discard(key)
                    return True
                used.discard(key)
        return False

    def branch_connected(i: int) -> bool:
        members = [v for v in range(g.n) if owner[v] == i]
        seen = {members[0]}
        stack = [members[0]]
        while stack:
            v = stack.pop()
            for w in g.adj[v]:
                if owner[w] == i and w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(members)

    free = [v for v in range(g.n) if owner[v] == -1]

    def rec(pos: int) -> bool:
        budget[0] -= 1
        if budget[0] < 0:
            raise CapExceeded("work_cap", "minor check budget exhausted")
        if all(branch_connected(i) for i in range(k)) and edges_matchable(set(), 0):
            return True
        if pos == len(free):
            return False
        v = free[pos]
        for i in range(-1, k):
            owner[v] = i
            if rec(pos + 1):
                return True
        owner[v] = -1
        return False

    return rec(0)


def spqrk_validate(tree: SpqrkTree, g: Graph, check_minors: bool = True) -> bool:
    """Check the three structural invariants against g: the real edges of
    the nodes partition E(g), every real edge is an edge of g, and each
    node graph is a minor of g."""
    seen_real: dict[tuple[int, int], int] = {}
    for node in tree.nodes:
        if node.kind not in "SPQRK":
            return False
        if any(not (0 <= v < g.n) for v in node.vertices):
            return False
        for u, v in node.real_edges():
            e = (u, v) if u < v else (v, u)
            if e not in g.edges:
                return False
            seen_real[e] = seen_real.get(e, 0) + 1
    if set(seen_real) != set(g.edges) or any(c != 1 for c in seen_real.values()):
        return False
    if len(tree.tree_edges) != len(tree.nodes) - 1:
        return False
    adj = tree.adjacency()
    seen = {0} if tree.nodes else set()
    stack = [0] if tree.nodes else []
    while stack:
        a = stack.pop()
        for b in adj[a]:
            if b not in seen:
                seen.add(b)
                stack.append(b)
    if len(seen) != len(tree.nodes):
        return False
    if check_minors:
        for node in tree.nodes:
            if not _multigraph_is_minor(node, g):
                return False
    return True


# ---------------------------------------------------------------------------
# Serialization: indented tree, node kind + vertex set + flagged edges
# ---------------------------------------------------------------------------


def serialize_spqrk(tree: SpqrkTree) -> str:
    if not tree.nodes:
        return ""
    adj = tree.adjacency()
    lines: list[str] = []
    seen = set()
    stack = [(0, 0)]  # (node, depth), children pushed in reverse order
    while stack:
        i, depth = stack.pop()
        if i in seen:
            continue
        seen.add(i)
        node = tree.nodes[i]
        vs = "{" + ",".join(map(str, node.vertices)) + "}"
        es = " ".join(f"{u}-{v}[{flag}]" for u, v, flag in node.edges)
        lines.append("  " * depth + f"{node.kind} {vs}" + (f" {es}" if es else ""))
        stack.extend((j, depth + 1) for j in sorted(adj[i], reverse=True) if j not in seen)
    return "\n".join(lines) + "\n"

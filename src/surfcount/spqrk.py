"""Decomposition trees with S, P, Q, R and K nodes.

The tree decomposes a connected graph along its cut vertices (Q nodes) and
its 2-cutsets whose members have degree at least 3 (P nodes), bottoming
out at 3-connected pieces (R), cycles (S), and single vertices or edges
(K). Node graphs are multigraphs over original vertex indices; each edge
of the input appears as a real edge in exactly one node, and every other
node edge is virtual.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate

from .errors import InternalInvariantError, PreconditionError
from .graph import (Graph, articulation_points, blocks, connected_components, is_connected,
                    lowpoints, spanning_forest)

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


def _pair_vertices(g: Graph) -> list[bool]:
    """For a 2-connected g, whether each vertex lies in a separation pair,
    a pair {a, u} whose removal disconnects g. In one ``lowpoints``
    search from vertex 0, numbered in preorder, such a pair has a an
    ancestor of u (Hopcroft-Tarjan 1973). The search gives low1(c), the
    least back-edge end from T(c); one sweep from the last vertex up
    gives the back edges, subtree sizes and each vertex's two least low1
    among its children, and from these high(c), the largest back-edge end
    from T(c) above parent(c). Then g - {a, u} is disconnected exactly
    when
    - some child c of u has low1(c) = a = high(c), and some vertex lies
      outside T(c) + {a, u}: T(c) hangs at {a, u} alone (type 1); or
    - a is not the root, and for its child d towards u, u is not d, T(d)
      has no back edge above a outside T(u), and no child c of u has
      low1(c) < a < high(c): T(d) - T(u) hangs at {a, u} (type 2).
    The u of type 2 for d lie below d down to M(d), the nearest common
    ancestor of T(d)'s vertices with a back edge above a: the walk from d
    takes the child of least low1 while the vertex has no back edge above
    a and no second child with low1 < a. Each chain of such children is
    walked once, with a stack of the walks open on it: O(n + m log m)."""
    n = g.n
    order, parent, num, low = lowpoints(g.adj)  # the lists below are indexed by preorder
    par = [-1] + [num[parent[v]] for v in order[1:]]
    low1 = list(map(low.__getitem__, order))
    own, back, flag = list(range(n)), [], [False] * n  # own: least own back-edge end
    heavy, high = [-1] * n, [-1] * n  # heavy: the earliest child of least low1
    first, second = [n] * n, [n] * n  # the two least low1 among the children
    size = [1] * n
    for i in range(n - 1, 0, -1):  # each child before its parent, later siblings first
        p = par[i]
        for w in g.adj[order[i]]:
            j = num[w]
            if j < p:  # a back edge up, seen from its lower end
                back.append((j, i))
                if j < own[i]:
                    own[i] = j
        size[p] += size[i]
        lo = low1[i]
        if lo <= first[p]:
            first[p], second[p], heavy[p] = lo, first[p], i
        elif lo < second[p]:
            second[p] = lo
    # high(c) for each back edge from the highest end down: each c gets it once
    up = list(range(n))
    for y, c in sorted(back, reverse=True):
        while True:
            while up[c] != c:
                up[c] = c = up[up[c]]
            if par[c] <= y:
                break
            high[c], up[c] = y, par[c]
    for c in range(1, n):
        if low1[c] < par[c] and high[c] == low1[c] and size[c] < n - 2:
            flag[low1[c]] = flag[par[c]] = True
    stop = list(map(min, own, second))  # a walk with a > stop(w) ends at w
    walks = []  # open walks down the chain: [a, least high(heavy(u)) passed]
    for head in range(n):
        if head and heavy[par[head]] == head:
            continue
        w = head
        while w >= 0:
            kids = None
            while walks and walks[-1][0] > stop[w]:  # w is M(d)
                a, least = walks.pop()
                if walks:
                    walks[-1][1] = min(walks[-1][1], least)
                if kids is None:
                    kids = sorted((low1[num[v]], high[num[v]]) for v in g.adj[order[w]]
                                  if par[num[v]] == w)
                    lows = [lo for lo, _ in kids]
                    tops = list(accumulate((hi for _, hi in kids), max, initial=-1))
                if tops[bisect_left(lows, a)] <= a:
                    flag[w] = flag[a] = True
                elif least <= a:
                    flag[a] = True
            if walks:  # w lies strictly inside the open walks
                top = high[heavy[w]]
                if top <= walks[-1][0]:
                    flag[w] = True
                walks[-1][1] = min(walks[-1][1], top)
            if stop[w] >= par[w] > 0:  # the walk from d = w goes below w
                walks.append([par[w], n])
            w = heavy[w]
    return [flag[i] for i in num]


def _separating_pair(g: Graph, start: int, flagged: list[bool]) -> tuple[int, int] | None:
    """For a 2-connected g that is not a cycle: None if g is 3-connected,
    else the lexicographically first pair x < y, both of degree at least 3,
    whose removal disconnects g, with x >= ``start``. Only the ``flagged``
    x are tried, which must include every vertex of a separation pair; the
    y that pair with x are the articulation points of g - x.

    A P-split child may resume at its parent's x: each separating pair of
    the child separates the parent too, and no degree grows in the child,
    so no pair the parent passed over qualifies in the child. For the same
    reason the flags of a block (``_pair_vertices``) serve all its pieces."""
    for x in range(start, g.n):
        if flagged[x] and g.degree(x) >= 3:
            for y in articulation_points(g, (x,)):
                if y > x and g.degree(y) >= 3:
                    return x, y
    # the ends of a maximal path of degree-2 vertices would be such a pair
    if any(g.degree(v) == 2 for v in range(g.n)):
        raise InternalInvariantError("2-connected non-cycle graph must have a degree-3 cutset")
    return None


def _q_levels(parts: list[tuple[int, ...]], holding: list[list[int]]
              ) -> tuple[tuple, dict[int, list]]:
    """The cut-vertex recursion over the blocks ``parts`` of a connected
    graph: each piece splits at its least cut vertex c into the pieces of
    the components of piece - c, ordered by least vertex other than c.

    The pieces of c are the sets of blocks joined through cut vertices
    above c, so a union-find over the blocks visits the cut vertices (the
    vertices ``holding`` two blocks or more) in decreasing label and keeps
    each set's two least vertices and the node of its subtree: ("Q", c) or
    ("B", block). Returns the root node and, per cut vertex, its children
    as (key, node, the child's block holding c) in order."""
    up = list(range(len(parts)))
    least = [part[:2] for part in parts]
    top: list[tuple] = [("B", b) for b in range(len(parts))]

    def find(b: int) -> int:
        while up[b] != b:
            up[b] = up[up[b]]
            b = up[b]
        return b

    children: dict[int, list] = {}
    root = ("B", 0)
    for c in range(len(holding) - 1, -1, -1):
        if len(holding[c]) < 2:
            continue
        sets = [(find(b), b) for b in holding[c]]
        kids = []
        for r, b in sets:
            lo, hi = least[r]
            kids.append((hi if lo == c else lo, top[r], b))
        kids.sort()
        children[c] = kids
        r0 = sets[0][0]
        least[r0] = tuple(sorted({v for r, _ in sets for v in least[r]}))[:2]
        for r, _ in sets[1:]:
            up[r] = r0
        root = top[r0] = ("Q", c)
    return root, children


class _Builder:
    """Adds the nodes and tree links in the order of a recursive build: a
    split node, then each child's subtree whole, each followed by the link
    from the split node to its anchor in that subtree.

    Each link is open in ``anchor`` until its ("L", split node, key) item,
    and ``add_node`` records its anchor there. A P link's key is its shared
    pair (u, v), open from the start of the child's subtree. A Q link's key
    is its cut vertex c, open from the start of the child's block holding
    c, the one block of that subtree that holds c.

    A block's pieces are built one after another, and the first pair scan
    in a block, on the block itself, flags the block's pair vertices for
    the scans of all its pieces."""

    def __init__(self):
        self.nodes: list[SpqrkNode] = []
        self.links: list[tuple[int, int]] = []
        self.anchor: dict = {}  # open link's key -> its anchor so far, or None
        self.flagged: set[int] | None = None  # the current block's pair vertices

    def add_node(self, node: SpqrkNode) -> int:
        """Append the node with its open pairs' edges virtual, and record it
        as the anchor of each open link it holds: the one node with a P
        link's pair, and the first node of the block with a Q link's cut
        vertex, which is a P node if another node holds that vertex too."""
        i = len(self.nodes)
        for k, (u, v, _) in enumerate(node.edges):
            if (u, v) in self.anchor:
                if self.anchor[u, v] is not None:
                    raise InternalInvariantError(f"virtual edge {u, v} lands in two nodes")
                self.anchor[u, v] = i
                node.edges[k] = (u, v, VIRTUAL)
        for c in node.vertices:
            if c in self.anchor:
                first = self.anchor[c]
                if first is None:
                    self.anchor[c] = i
                elif self.nodes[first].kind != "P":
                    raise InternalInvariantError(f"multiplied vertex {c} lies in no P node")
        self.nodes.append(node)
        return i

    def build(self, g: Graph) -> None:
        """One explicit stack of ("Q", c) and ("B", block) items from the
        recursion of ``_q_levels``, pieces (vertices, edges, P node or None,
        shared pair, where the pair scan starts) and ("L", split node, key)
        links to make."""
        parts = blocks(g)
        if not parts:  # one vertex or none
            self.add_node(SpqrkNode("K", tuple(range(g.n)), []))
            return
        holding: list[list[int]] = [[] for _ in range(g.n)]
        for b, part in enumerate(parts):
            for v in part:
                holding[v].append(b)
        part_edges: list[list[tuple[int, int]]] = [[] for _ in parts]
        for u, v in g.edges:  # two blocks share at most one vertex
            if len(holding[u]) == 1:
                b = holding[u][0]
            elif len(holding[v]) == 1:
                b = holding[v][0]
            else:
                (b,) = set(holding[u]).intersection(holding[v])
            part_edges[b].append((u, v))
        root, children = _q_levels(parts, holding)
        work: list[tuple] = [root]
        while work:
            item = work.pop()
            if item[0] == "Q":
                c = item[1]
                q = self.add_node(SpqrkNode("Q", (c,), []))
                for _, node, _ in reversed(children[c]):
                    work.append(("L", q, c))
                    work.append(node)
            elif item[0] == "B":
                part = parts[item[1]]
                self.flagged = None
                self.anchor.update((c, None) for c in part if len(holding[c]) > 1)
                work.append((part, part_edges[item[1]], None, (), part[0]))
            elif item[0] == "L":
                _, parent, key = item
                anchor = self.anchor.pop(key, None)
                if anchor is None:
                    raise InternalInvariantError(f"link from node {parent} at {key} has no anchor")
                self.links.append((parent, anchor))
            else:
                vertices, edges, parent, shared, start = item
                if parent is not None:
                    self.anchor[shared] = None
                    work.append(("L", parent, shared))
                work.extend(reversed(self._piece(vertices, edges, start)))

    def _piece(self, vertices: tuple[int, ...], edges, start: int) -> list[tuple]:
        """Add the node of one 2-connected piece or bridge, or the P node of
        a piece that splits, and return the children's pieces in order. A
        2-connected piece with as many edges as vertices is a cycle."""
        if len(vertices) <= 2:
            kind = "K"
        elif len(edges) == len(vertices):
            kind = "S"
        else:
            index = {v: i for i, v in enumerate(vertices)}
            local = Graph.build(len(vertices), [(index[u], index[v]) for u, v in edges])
            if self.flagged is None:
                self.flagged = {vertices[v] for v, f in enumerate(_pair_vertices(local)) if f}
            pair = _separating_pair(local, index[start], [v in self.flagged for v in vertices])
            if pair is not None:
                return self._split(vertices, local, pair)
            kind = "R"
        edges = [(u, v, REAL) for u, v in sorted(edges)]
        self.add_node(SpqrkNode(kind, vertices, edges))
        return []

    def _split(self, vertices: tuple[int, ...], local: Graph,
               pair: tuple[int, int]) -> list[tuple]:
        """Add the P node of a separating pair (local indices) and return
        one piece per component of local - pair: the component with the
        pair, the edges with an end in the component plus the pair's edge,
        and the pair's first vertex, where the piece's scan starts."""
        shared = tuple(vertices[v] for v in pair)
        comps = connected_components(local, pair)
        p_edges = [(*shared, VIRTUAL) for _ in comps]
        if local.has_edge(*pair):
            p_edges.append((*shared, REAL))
        split = self.add_node(SpqrkNode("P", shared, p_edges))
        where = [-1] * local.n
        pieces = []
        for k, comp in enumerate(comps):
            for v in comp:
                where[v] = k
            pieces.append((tuple(sorted(vertices[v] for v in comp + pair)), {shared},
                           split, shared, shared[0]))
        for u, v in local.edges:
            k = where[u] if where[u] >= 0 else where[v]
            if k >= 0:  # vertices are sorted, so u < v keeps its order
                pieces[k][1].add((vertices[u], vertices[v]))
        return pieces


def spqrk_build(g: Graph) -> SpqrkTree:
    """Build the decomposition tree of a connected graph."""
    if not is_connected(g):
        raise PreconditionError("decomposition tree needs a connected graph")
    builder = _Builder()
    builder.build(g)
    return SpqrkTree(builder.nodes, builder.links)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def _witness_is_minor(node: SpqrkNode, g: Graph) -> bool:
    """Is the node's multigraph a minor of g through the witness the tree
    carries? Each component of g - V(node) goes whole into the branch set
    of its least attachment in V(node); one that attaches to a single
    vertex stays out. So every branch set is connected, and True is a
    proof; a hand-made node that is a minor of g only through some other
    witness gets False. The node edges fit when each pair of branch sets
    has at least as many g-edges between them as node edges: each g-edge
    joins one pair, so edges on different pairs never compete. One stack
    search, O(n + m). The ends of the node's edges must be node vertices."""
    owner = [-1] * g.n
    for i, v in enumerate(node.vertices):
        owner[v] = i
    for comp in connected_components(g, node.vertices):
        # components of g - V(node) are not adjacent, so these are node vertices
        ends = {w for v in comp for w in g.adj[v] if owner[w] >= 0}
        if len(ends) > 1:
            branch = owner[min(ends)]
            for v in comp:
                owner[v] = branch
    need = Counter(tuple(sorted((owner[u], owner[v]))) for u, v, _ in node.edges)
    # each g-edge between two branch sets has an end in V(node); one with
    # both ends there is counted from its end of lesser index
    have: Counter = Counter()
    for i, v in enumerate(node.vertices):
        for w in g.adj[v]:
            j = owner[w]
            if j >= 0 and (node.vertices[j] != w or i < j):
                have[(i, j) if i < j else (j, i)] += 1
    return need <= have


def spqrk_validate(tree: SpqrkTree, g: Graph) -> bool:
    """Check the structural invariants against g: the real edges of the
    nodes partition E(g), the tree links make a tree, and each node graph
    is a minor of g with its vertices in distinct branch sets. A node with
    only real edges is those edges, each matched by the partition to
    its own g-edge, so it is a minor without a search. Each other node is
    checked against the witness the tree carries (``_witness_is_minor``),
    O(n + m) per node."""
    seen_real: dict[tuple[int, int], int] = {}
    for node in tree.nodes:
        if node.kind not in "SPQRK":
            return False
        vertices = set(node.vertices)
        if len(vertices) < len(node.vertices) or any(not (0 <= v < g.n) for v in vertices):
            return False
        if any(u not in vertices or v not in vertices for u, v, _ in node.edges):
            return False
        for u, v in node.real_edges():
            e = (u, v) if u < v else (v, u)
            if e not in g.edges:
                return False
            seen_real[e] = seen_real.get(e, 0) + 1
    if set(seen_real) != set(g.edges) or any(c != 1 for c in seen_real.values()):
        return False
    links = range(len(tree.nodes))
    if len(tree.tree_edges) != len(links) - 1 or any(
            a not in links or b not in links for a, b in tree.tree_edges):
        return False
    # n - 1 links make a tree exactly when they connect the nodes
    if spanning_forest(tree.adjacency())[0].count(-1) != 1:
        return False
    return all(_witness_is_minor(node, g) for node in tree.nodes
               if any(flag != REAL for *_, flag in node.edges))


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

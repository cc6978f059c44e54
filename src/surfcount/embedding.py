"""Embedded graphs as signed rotation systems.

An embedding is a cyclic order of neighbors at every vertex plus a sign
per edge; sign -1 marks an orientation-reversing edge, which is how
non-orientable surfaces arise. Face tracing follows the standard signed
rule: while walking edge (u -> v) with accumulated sign s, cross the edge
(s becomes s * sign(uv)) and continue at v with the rotation successor of
u when the accumulated sign is positive, the predecessor when negative;
the face closes when the starting directed edge recurs with the starting
sign. Tracing all (directed edge, sign) states yields each face twice,
once per traversal direction, and the two orbits are paired off.

The states are integers: the directed edges (darts) are numbered in
(from, to) order, and state 2d is dart d with sign -1, state 2d + 1 dart
d with sign +1, so integer order is (from, to, sign) order. The step rule
is one fixed permutation of the states, built as a flat table from a few
sorts of the darts, and the faces are its cycles. The table, with the
faces as runs of states, is cached on the (frozen) embedding, so each is
traced once; face counts, the genus, the triangulation test, growth and
the ``faces`` command read it directly, and ``face_vertices`` lists each
face as the vertices its walk leaves.

Vertex switching (reverse the rotation at v, flip the signs of its edges)
preserves the embedding; the surgery operations switch as needed to make
the edges they touch positive, which keeps the splice rules simple.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, repeat
from typing import NamedTuple

from .errors import CapExceeded, InternalInvariantError, ParseError, PreconditionError
from .graph import (Edge, Graph, _norm_edge, connected_components, induced_subgraph,
                    spanning_forest)
from .planarity import is_planar


@dataclass(frozen=True)
class EmbeddedGraph:
    rotations: tuple[tuple[int, ...], ...]  # neighbors in cyclic order
    negative_edges: frozenset[Edge] = field(default_factory=frozenset)

    @staticmethod
    def build(graph: Graph, rotations, negative_edges=()) -> "EmbeddedGraph":
        rots = tuple(tuple(r) for r in rotations)
        if len(rots) != graph.n:
            raise PreconditionError("one rotation per vertex required")
        for v, rot in enumerate(rots):
            if sorted(rot) != sorted(graph.adj[v]):
                raise PreconditionError(
                    f"rotation at {v} is not a permutation of its neighbors")
        neg = frozenset(_norm_edge(u, v) for u, v in negative_edges)
        bad = neg - graph.edges
        if bad:
            raise PreconditionError(f"negative signs on non-edges: {sorted(bad)}")
        eg = EmbeddedGraph(rots, neg)
        eg.__dict__["graph"] = graph  # the cached property, already built
        return eg

    @property
    def n(self) -> int:
        return len(self.rotations)

    @cached_property
    def m(self) -> int:
        return sum(map(len, self.rotations)) // 2

    @cached_property
    def graph(self) -> Graph:
        """The underlying graph, built from the rotations on first read."""
        return Graph(self.n, frozenset(
            (v, u) for v, rot in enumerate(self.rotations) for u in rot if v < u))

    def sign(self, u: int, v: int) -> int:
        return -1 if _norm_edge(u, v) in self.negative_edges else 1

    @cached_property
    def _table(self) -> "_Table":
        return _trace(self)


# ---------------------------------------------------------------------------
# Face tracing and the Euler genus
# ---------------------------------------------------------------------------


class _Table(NamedTuple):
    """One embedding's faces over the integer states.
    ``head[d]`` is the vertex dart d enters. The faces are the runs of
    ``order`` that end at the offsets ``ends``; each run starts at the
    face's least state, and the runs are in the order of those states."""

    head: list[int]
    order: list[int]
    ends: list[int]


def face_vertices(eg: EmbeddedGraph) -> list[list[int]]:
    """Every face, as a new list of the vertices its walk leaves; a face's
    steps are its consecutive vertex pairs, the last back to the first.
    Deterministic: faces sorted by their least traversal state, each
    starting where that state leaves. Read from the table's runs: a step
    leaves the vertex the step before it entered."""
    table = eg._table
    to = list(map(table.head.__getitem__, map((1).__rrshift__, table.order)))
    return [to[end - 1:end] + to[begin:end - 1]
            for begin, end in zip([0, *table.ends], table.ends)]


def _trace(eg: EmbeddedGraph) -> _Table:
    """The step table, then each face's orbit from its least state. Every
    state's mirror (the same edge walked the other way) is marked as its
    orbit is walked, so each face is walked once, not twice. Each
    full-size list is dropped once the next one is built from it."""
    rots = eg.rotations
    n = len(rots)
    flat = list(chain.from_iterable(rots))  # the head at each rotation position
    # tail[d], head[d]: the ends of dart d, the darts numbered in (from, to)
    # order; the positions run vertex by vertex, so tail is each position's too
    tail = list(chain.from_iterable(map(repeat, range(n), map(len, rots))))
    keys = [u * n + v for u, v in zip(tail, flat)]
    pos = sorted(range(len(flat)), key=keys.__getitem__)  # pos[d]: dart d's position
    del keys
    # back[d]: the position of the d-th dart in (to, from) order, d's reverse; a
    # stable sort by head turns the (from, to) order into (to, from) order
    back = sorted(pos, key=flat.__getitem__)
    head = list(map(flat.__getitem__, pos))
    del flat
    # per position, the states of its dart: even with sign -1, odd with +1
    even = [2 * d for d in sorted(range(len(pos)), key=pos.__getitem__)]
    del pos
    odd = [e + 1 for e in even]
    # per position, the state of the rotation successor's dart with sign +1
    # and of the predecessor's with sign -1
    after = odd[1:] + odd[:1]
    before = even[-1:] + even[:-1]
    first = 0
    for rot in rots:
        last = first + len(rot) - 1
        if last >= first:
            after[last], before[first] = odd[first], even[last]
        first = last + 1
    # nxt[state]: the dart u -> v continues at v with u's rotation successor
    # (sign +1 after crossing) or predecessor (sign -1); a negative edge
    # swaps which sign before crossing takes which. mirror[state]: the mirror
    # of (u, v, s) is (v, u, -s * sign(uv)).
    size = 2 * len(back)
    nxt = [0] * size
    nxt[0::2] = map(before.__getitem__, back)
    nxt[1::2] = map(after.__getitem__, back)
    del before, after
    mirror = [0] * size
    mirror[0::2] = map(odd.__getitem__, back)
    mirror[1::2] = map(even.__getitem__, back)
    del even, odd, back
    for u, v in eg.negative_edges:
        for a, b in ((u, v), (v, u)):
            lo = bisect_left(tail, a)
            s = 2 * bisect_left(head, b, lo, bisect_right(tail, a, lo))
            nxt[s], nxt[s + 1] = nxt[s + 1], nxt[s]
            mirror[s], mirror[s + 1] = mirror[s + 1], mirror[s]
    del tail
    seen = bytearray(size)
    order, ends = [], []
    append = order.append
    start = seen.find(0)
    while start >= 0:
        cur = start
        while True:
            append(cur)
            seen[cur] = seen[mirror[cur]] = 1
            cur = nxt[cur]
            if cur == start:
                break
        ends.append(len(order))
        start = seen.find(0, start + 1)
    # the orbits pair off: no state is marked twice, and stepping from the
    # mirror of a state's successor leads to its mirror, so each face's
    # mirrors form the reverse traversal
    step, mirrored = nxt.__getitem__, mirror.__getitem__
    if (2 * len(order) != size
            or list(map(step, map(mirrored, map(step, order)))) != list(map(mirrored, order))):
        raise InternalInvariantError("face orbits must pair off by traversal direction")
    return _Table(head, order, ends)


def euler_genus(eg: EmbeddedGraph) -> int:
    """2 - n + m - f for a connected embedding; always non-negative."""
    if eg.n == 0:
        raise PreconditionError("empty graph has no embedding")
    if spanning_forest(eg.rotations)[0].count(-1) != 1:
        raise PreconditionError("Euler genus needs a connected graph")
    f = len(eg._table.ends) if eg.m > 0 else 1
    g = 2 - eg.n + eg.m - f
    if g < 0:
        raise InternalInvariantError("face tracing produced an impossible face count")
    return g


def is_triangulation(eg: EmbeddedGraph) -> bool:
    """Every facial walk has three distinct vertices and three distinct
    edges: in a simple graph, every face has three steps."""
    if eg.m == 0:
        return False
    return eg._table.ends == list(range(3, 2 * eg.m + 1, 3))


# ---------------------------------------------------------------------------
# Parsing and serialization
# ---------------------------------------------------------------------------


def parse_embedding(text: str) -> EmbeddedGraph:
    """Format: first line "n"; then per vertex one line "v: u1 u2- u3 ..."
    listing the neighbors in rotation order, a '-' suffix marking a
    negative edge. Both endpoints must carry the same sign mark."""
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
    eg = _read_rotations(n, [ln for _, ln in lines[1:]])
    return eg if eg is not None else _read_rotations_checked(n, lines)


def _vertex_names(n: int) -> list[str]:
    """Each vertex's name in the text format, as ``str`` writes it."""
    return list(map(str, range(n)))


def _read_rotations(n: int, lines: list[str]) -> EmbeddedGraph | None:
    """The rotation lines read whole, or None on the first sign of a fault,
    which ``_read_rotations_checked`` then names. Heads and neighbors must
    be vertex names as ``serialize_embedding`` writes them (so in range),
    with equal sign marks at both ends; each vertex's set of neighbors then
    shows the rest of what the checked builders check: no loops, repeats or
    missing reverses (so every rotation is a permutation of its neighbors)."""
    names = _vertex_names(n)
    parts = [ln.partition(":") for ln in lines]
    if [head for head, _, _ in parts] != names:
        return None
    vertex = dict(zip(names, range(n)))
    marked = [v for v, (_, _, rest) in enumerate(parts) if "-" in rest]
    if marked:  # the same table reads a neighbor with the negative mark
        vertex.update(zip([name + "-" for name in names], range(n)))
    try:
        rotations = tuple([tuple(map(vertex.__getitem__, rest.split())) for _, _, rest in parts])
        marks = [(v, vertex[t]) for v in marked for t in parts[v][2].split() if t[-1] == "-"]
    except KeyError:
        return None
    signed = frozenset((v, u) for v, u in marks if v < u)
    if signed != {(u, v) for v, u in marks if u < v}:
        return None
    # no loops, no neighbor listed twice, and each dart's head lists its tail
    listed = list(map(set, rotations))
    tails = chain.from_iterable(map(repeat, range(n), map(len, rotations)))
    at_heads = map(listed.__getitem__, chain.from_iterable(rotations))
    if (any(map(tuple.__contains__, rotations, range(n)))
            or sum(map(len, listed)) != sum(map(len, rotations))
            or not all(map(set.__contains__, at_heads, tails))):
        return None
    return EmbeddedGraph(rotations, signed)


def _read_rotations_checked(n: int, lines: list[tuple[int, str]]) -> EmbeddedGraph:
    """The rotation lines read a token at a time, raising ParseError with
    the line number at the first fault."""
    rotations: list[tuple[int, ...]] = []
    sign_claims: dict[tuple[int, int], int] = {}
    for expect, (lineno, ln) in enumerate(lines[1:]):
        head, _, rest = ln.partition(":")
        try:
            v = int(head.strip())
        except ValueError:
            raise ParseError(f"expected 'v: ...', got {ln!r}", lineno) from None
        if v != expect:
            raise ParseError(f"rotation lines must be in order; expected {expect}", lineno)
        rot = []
        listed = set()
        for tok in rest.split():
            negative = tok.endswith("-")
            body = tok[:-1] if negative else tok
            try:
                u = int(body)
            except ValueError:
                raise ParseError(f"bad neighbor token {tok!r}", lineno) from None
            if u == v:
                raise ParseError(f"self-loop at vertex {v}", lineno)
            if not (0 <= u < n):
                raise ParseError(f"neighbor {u} out of range", lineno)
            if u in listed:
                raise ParseError(f"duplicate neighbor {u} at vertex {v}", lineno)
            listed.add(u)
            rot.append(u)
            sign_claims[(v, u)] = -1 if negative else 1
        rotations.append(tuple(rot))
    negative = []
    for (v, u), sgn in sign_claims.items():
        back = sign_claims.get((u, v))
        if back is None:
            raise ParseError(f"vertex {u} does not list {v} back")
        if back != sgn:
            raise ParseError(f"edge {_norm_edge(u, v)} has conflicting signs at its endpoints")
        if v < u and sgn < 0:
            negative.append((v, u))
    return EmbeddedGraph(tuple(rotations), frozenset(negative))


def serialize_embedding(eg: EmbeddedGraph) -> str:
    names = _vertex_names(eg.n)
    negative_at: dict[int, set[int]] = {}
    for u, v in eg.negative_edges:
        negative_at.setdefault(u, set()).add(v)
        negative_at.setdefault(v, set()).add(u)
    out = [str(eg.n)]
    for v, rot in enumerate(eg.rotations):
        bad = negative_at.get(v)
        toks = map(names.__getitem__, rot) if bad is None else [
            names[u] + "-" if u in bad else names[u] for u in rot]
        out.append(names[v] + ": " + " ".join(toks) if rot else names[v] + ":")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Surgery: switching, contraction of reducible edges, splitting
# ---------------------------------------------------------------------------


def switch_vertex(eg: EmbeddedGraph, v: int) -> EmbeddedGraph:
    """Reverse the rotation at v and flip the signs of its edges; the
    embedding is unchanged up to homeomorphism."""
    if not 0 <= v < eg.n:
        raise PreconditionError(f"vertex {v} not in graph")
    rots = list(eg.rotations)
    rots[v] = tuple(reversed(rots[v]))
    neg = set(eg.negative_edges)
    neg.symmetric_difference_update(_norm_edge(v, w) for w in rots[v])
    return EmbeddedGraph(tuple(rots), frozenset(neg))


def reducible_edges(eg: EmbeddedGraph) -> list[Edge]:
    """Edges lying in exactly two triangles of the underlying graph (the
    definitional answer; whether both triangles are facial is checked by
    contract_reducible)."""
    if not is_triangulation(eg):
        raise PreconditionError("reducible edges are defined for triangulations")
    adj = eg.graph.adj
    return [(u, v) for u, v in eg.graph.sorted_edges() if len(adj[u] & adj[v]) == 2]


def _rotate_to(seq: tuple[int, ...], first: int) -> list[int]:
    i = seq.index(first)
    return list(seq[i:]) + list(seq[:i])


def contract_reducible(eg: EmbeddedGraph, edge: Edge) -> EmbeddedGraph:
    """Contract a reducible edge vw: delete vw and the two face edges wx,
    wy, splice w's remaining neighbors into v's rotation. The two
    triangles through vw must be the two faces at vw, otherwise the
    operation refuses."""
    v, w = edge
    if not (0 <= v < eg.n and w in eg.rotations[v]):
        raise PreconditionError(f"edge ({v},{w}) not in graph")
    thirds = sorted(set(eg.rotations[v]) & set(eg.rotations[w]))
    if len(thirds) != 2:
        raise PreconditionError(
            f"edge ({v},{w}) lies in {len(thirds)} triangles, need exactly 2")
    if not is_triangulation(eg):
        raise PreconditionError("contraction is defined for triangulations")
    if eg.sign(v, w) < 0:
        eg = switch_vertex(eg, w)
    rot_w = _rotate_to(eg.rotations[w], v)  # (v, x, ..., y)
    if len(rot_w) < 3:
        raise PreconditionError("degenerate contraction site")
    x, y = rot_w[1], rot_w[-1]
    if x == y or {x, y} != set(thirds):
        raise PreconditionError(
            f"the two faces at ({v},{w}) are not the two triangles through it")
    arc = rot_w[2:-1]  # w's neighbors strictly between x and y
    rot_v = _rotate_to(eg.rotations[v], w)  # (w, y, ..., x) cyclically
    if rot_v[1] != y or rot_v[-1] != x:
        raise InternalInvariantError("face corners disagree at v")
    rest = rot_v[2:-1]  # v's neighbors strictly between y and x
    rotations = list(eg.rotations)
    # v's new rotation, cyclically (x, arc, y, rest); w's arc edges move to
    # v, keeping their signs, and vw, wx, wy go
    rotations[v] = tuple(arc + [y] + rest + [x])
    for a in arc:
        rotations[a] = tuple(v if u == w else u for u in rotations[a])
    for z in (x, y):
        rotations[z] = tuple(u for u in rotations[z] if u != w)
    negative = set(eg.negative_edges)
    for a in arc:
        if _norm_edge(w, a) in negative:
            negative.add(_norm_edge(v, a))
    negative.difference_update(_norm_edge(w, u) for u in rot_w)
    # remove w and renumber the vertices after it, in one pass; the
    # structure is consistent by construction, so no builder re-checks it.
    # When w is the last vertex, no rotation is renumbered
    del rotations[w]
    if w == eg.n - 1:
        return EmbeddedGraph(tuple(rotations), frozenset(negative))
    renumber = list(range(w)) + [-1] + list(range(w, eg.n - 1))
    new_rots = tuple(tuple(map(renumber.__getitem__, rot)) for rot in rotations)
    new_neg = frozenset((renumber[a], renumber[b]) for a, b in negative)
    return EmbeddedGraph(new_rots, new_neg)


def split_path(eg: EmbeddedGraph, x: int, v: int, y: int) -> EmbeddedGraph:
    """Split at v between neighbors x and y: a new vertex w takes over the
    rotation arc of v that runs from x to y (successor direction),
    becoming adjacent to x, that arc, y, and v. Inverse of
    contract_reducible at the same site. The result of splitting a
    triangulation is a triangulation of the same surface."""
    if x == y or not (0 <= v < eg.n and x in eg.rotations[v] and y in eg.rotations[v]):
        raise PreconditionError(f"({x},{v},{y}) is not a valid split site")
    splitter = _Splitter(eg)
    splitter.split_path(x, v, y)
    return splitter.export()


def split_triangle(eg: EmbeddedGraph, face: tuple[int, int, int]) -> EmbeddedGraph:
    """Split a facial triangle: add a new vertex inside the face adjacent
    to its three vertices. Raises unless the triple is a face of the
    embedding."""
    fs = frozenset(face)
    if len(fs) != 3:
        raise PreconditionError("face must have three distinct vertices")
    splitter = _Splitter(eg)
    splitter.split(*sorted(fs))
    return splitter.export()


class _Splitter:
    """A mutable copy of a signed rotation system for repeated splits. A
    switch or a triangle split is O(1) whatever the degrees, a path split
    O(1 + the arc it moves). A vertex gets successor and predecessor maps
    over its rotation, and its first element, which is where the exported
    rotation starts, the first time a split or switch touches it; the
    others export their rotations as they are. An edge's sign is its stored
    sign times a parity per end, so a switch flips one parity and swaps the
    vertex's two maps."""

    def __init__(self, eg: EmbeddedGraph):
        self.rotations: list[tuple[int, ...]] = list(eg.rotations)
        self.succ: list[dict[int, int] | None] = [None] * eg.n
        self.pred: list[dict[int, int] | None] = [None] * eg.n
        self.first: list[int | None] = [None] * eg.n
        self.parity = [1] * eg.n
        self.negative = set(eg.negative_edges)
        self.touched: list[int] = []

    def touch(self, v: int) -> dict[int, int]:
        """v's successor map, built with the rest of v's maps unless an
        earlier split or switch has."""
        if self.succ[v] is None:
            rot = self.rotations[v]
            self.succ[v] = dict(zip(rot, rot[1:] + rot[:1]))
            self.pred[v] = dict(zip(rot, rot[-1:] + rot[:-1]))
            self.first[v] = rot[0] if rot else None
            self.touched.append(v)
        return self.succ[v]

    def sign(self, u: int, v: int) -> int:
        s = self.parity[u] * self.parity[v]
        return -s if _norm_edge(u, v) in self.negative else s

    def switch(self, v: int) -> None:
        """switch_vertex: the reversed rotation starts at the old last."""
        self.parity[v] = -self.parity[v]
        self.succ[v], self.pred[v] = self.pred[v], self.succ[v]
        self.first[v] = self.succ[v][self.first[v]]

    def split(self, a: int, b: int, c: int) -> None:
        """Split the facial triangle with vertices a < b < c: split_path
        at its first rotation-consecutive corner, once the face's edges
        are positive. Raises unless abc is a face."""
        succ = self.succ
        sides = ((a, b), (b, c), (c, a))
        if 0 <= a and c < len(succ) and all(q in self.touch(p) for p, q in sides):
            # a facial walk has positive total sign, so zero or two of its edges
            # are negative; switching the vertex they share makes all three positive
            negative = [e for e in sides if self.sign(*e) < 0]
            if len(negative) == 2:
                (shared,) = set(negative[0]) & set(negative[1])
                self.switch(shared)
            # a corner x -> v -> y with y next after x in v's rotation: abc is
            # a face when all three corners turn one way round or all the other
            corners = ((a, b, c), (b, c, a), (c, a, b), (c, b, a), (b, a, c), (a, c, b))
            turns = [succ[v][x] == y for x, v, y in corners]
            if len(negative) % 2 == 0 and (all(turns[:3]) or all(turns[3:])):
                return self.split_path(*corners[turns.index(True)])
        raise PreconditionError(f"{(a, b, c)} is not a facial triangle")

    def split_path(self, x: int, v: int, y: int) -> None:
        """split_path: switch x and y to make xv and yv positive; then a
        new vertex w takes over the arc of v strictly between x and y."""
        self.touch(v)
        for u in (x, y):
            self.touch(u)
            if self.sign(u, v) < 0:
                self.switch(u)
        succ, pred, first = self.succ, self.pred, self.first
        w = len(succ)
        arc = []
        a = succ[v][x]
        while a != y:
            arc.append(a)
            a = succ[v][a]
        self.rotations.append((v, x, *arc, y))
        for maps in (succ, pred, first):
            maps.append(None)
        self.parity.append(1)
        self.touch(w)
        # each arc vertex puts w in v's place, and the edge keeps its sign
        for a in arc:
            self.touch(a)
            if self.sign(v, a) * self.parity[a] < 0:
                self.negative.add((a, w))
            self.negative.discard(_norm_edge(v, a))
            p, s = pred[a].pop(v), succ[a].pop(v)
            if p == v:  # v was a's only neighbor
                p = s = w
            succ[a][p], succ[a][w], pred[a][s], pred[a][w] = w, s, w, p
            if first[a] == v:
                first[a] = w
            del succ[v][a], pred[v][a]
        # v: (x, w, y, ...)
        succ[v][x], succ[v][w], pred[v][y], pred[v][w] = w, y, w, x
        first[v] = x
        # x: w just before v, and first if v was
        p = pred[x][v]
        succ[x][p], succ[x][w], pred[x][v], pred[x][w] = w, v, w, p
        if first[x] == v:
            first[x] = w
        # y: w just after v
        s = succ[y][v]
        succ[y][v], succ[y][w], pred[y][s], pred[y][w] = w, s, w, v
        # the three new edges are positive
        self.negative.update((u, w) for u in (v, x, y) if self.parity[u] < 0)

    def export(self) -> EmbeddedGraph:
        rotations = list(self.rotations)
        negative = set(self.negative)
        for v in self.touched:
            start, succ = self.first[v], self.succ[v]
            rot = [] if start is None else [start]
            while rot and (u := succ[rot[-1]]) != start:
                rot.append(u)
            rotations[v] = tuple(rot)
            # a switched vertex flips the sign of each of its edges, so an
            # edge between two switched vertices keeps its stored sign
            if self.parity[v] < 0:
                negative.symmetric_difference_update(_norm_edge(v, u) for u in rot)
        # consistent by construction: no builder re-checks it
        return EmbeddedGraph(tuple(rotations), frozenset(negative))


# ---------------------------------------------------------------------------
# Minimum-genus search over signed rotation systems (small graphs)
# ---------------------------------------------------------------------------

MIN_GENUS_VERTEX_CAP = 8
MIN_GENUS_EDGE_CAP = 18
DEFAULT_EMBEDDING_TRIES = 5_000_000


def min_genus_search(g: Graph, tries: int = DEFAULT_EMBEDDING_TRIES) -> tuple[int, EmbeddedGraph]:
    """Minimum Euler genus over all signed rotation systems, with one
    witness embedding. Backtracks over rotations and cotree edge signs
    (spanning-tree edges can be fixed positive up to switching), pruning
    with the Euler-formula face-count target; the candidate genus starts
    at the edge-count lower bound and the search stops at the first hit.

    Hard caps: 8 vertices, 18 edges. ``tries`` caps the number of
    embeddings traced, over all components together."""
    if g.n > MIN_GENUS_VERTEX_CAP:
        raise CapExceeded("size_cap", f"min_genus_search vertex cap is {MIN_GENUS_VERTEX_CAP}")
    if g.m > MIN_GENUS_EDGE_CAP:
        raise CapExceeded("size_cap", f"min_genus_search edge cap is {MIN_GENUS_EDGE_CAP}")
    if g.n == 0:
        raise PreconditionError("empty graph has no embedding")
    # Euler genus is additive over components
    budget = [tries]
    total = 0
    rotations: list[tuple[int, ...]] = [()] * g.n
    negatives: set[Edge] = set()
    for comp in connected_components(g):
        genus, emb = _min_genus(induced_subgraph(g, comp), budget)
        total += genus
        for i, v in enumerate(comp):
            rotations[v] = tuple(comp[u] for u in emb.rotations[i])
        negatives.update(_norm_edge(comp[u], comp[v]) for u, v in emb.negative_edges)
    return total, EmbeddedGraph.build(g, rotations, negatives)


def _min_genus(g: Graph, budget: list[int]) -> tuple[int, EmbeddedGraph]:
    """Minimum Euler genus of a connected graph, with a witness."""
    if g.m == 0:
        return 0, EmbeddedGraph.build(g, [()] * g.n, ())
    parent, order = spanning_forest(g.adj)
    lower = 0
    if g.n >= 3:
        side = [0] * g.n  # the parity of each vertex's parent chain
        for v in order[1:]:
            side[v] = 1 - side[parent[v]]
        bound = 2 if all(side[u] != side[v] for u, v in g.edges) else 3
        lower = max(0, math.ceil(g.m / bound - g.n + 2))
    if lower == 0 and not is_planar(g):
        lower = 1
    cotree = [(u, v) for u, v in g.sorted_edges() if parent[u] != v and parent[v] != u]
    genus = lower
    while True:
        target_f = 2 - genus - g.n + g.m
        if target_f >= 1:
            witness = _search_embedding(g, cotree, target_f, budget)
            if witness is not None:
                return genus, witness
        genus += 1
        if genus > 2 * g.m + 2:
            raise PreconditionError("no embedding found; impossible for a connected graph")


def _search_embedding(g: Graph, cotree: list[Edge], target_f: int,
                      budget: list[int]) -> EmbeddedGraph | None:
    """Enumerate rotation systems (first vertex's rotation fixed up to
    reflection) and cotree sign patterns by increasing number of negative
    edges; return the first embedding with the target face count."""
    from itertools import combinations, permutations, product

    rot_choices: list[list[tuple[int, ...]]] = []
    for v in range(g.n):
        nbrs = sorted(g.adj[v])
        if len(nbrs) <= 2:
            rot_choices.append([tuple(nbrs)])
        else:
            first = nbrs[0]
            perms = [
                (first,) + p
                for p in permutations(nbrs[1:])
            ]
            if v == 0:
                # drop mirror images: fix the orientation at the first vertex
                perms = [p for p in perms if p[1] < p[-1]]
            rot_choices.append(perms)

    sign_patterns: list[frozenset[Edge]] = []
    for k in range(len(cotree) + 1):
        for combo in combinations(cotree, k):
            sign_patterns.append(frozenset(combo))

    for rots in product(*rot_choices):
        for neg in sign_patterns:
            budget[0] -= 1
            if budget[0] < 0:
                raise CapExceeded(
                    "work_cap", "embedding search budget exhausted; raise tries")
            eg = EmbeddedGraph(rots, neg)
            if len(_trace(eg).ends) == target_f:
                return eg
    return None

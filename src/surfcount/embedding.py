"""Embedded graphs as signed rotation systems.

An embedding is a cyclic order of neighbors at every vertex plus a sign
per edge; sign -1 marks an orientation-reversing edge, which is how
non-orientable surfaces arise. Face tracing follows the standard signed
rule: while walking edge (u -> v) with accumulated sign s, cross the edge
(s becomes s * sign(uv)) and continue at v with the rotation successor of
u when the accumulated sign is positive, the predecessor when negative;
the face closes when the starting directed edge recurs with the starting
sign. Tracing all (directed edge, sign) states yields each face twice,
once per traversal direction, and the two orbits are paired off. The
faces are cached on the (frozen) embedding, so each is traced once.

The states are integers: the directed edges (darts) are numbered in
(from, to) order, and state 2d is dart d with sign -1, state 2d + 1 dart
d with sign +1, so integer order is (from, to, sign) order. The step rule
is one fixed permutation of the states, built as a flat table in one pass
over the rotations, and the faces are its cycles.

Vertex switching (reverse the rotation at v, flip the signs of its edges)
preserves the embedding; the surgery operations switch as needed to make
the edges they touch positive, which keeps the splice rules simple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

from .errors import CapExceeded, InternalInvariantError, ParseError, PreconditionError
from .graph import Graph, connected_components, is_connected
from .planarity import is_planar

Edge = tuple[int, int]


def _norm(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class FacialWalk:
    """A closed walk as the cyclic sequence of directed edges it traverses."""

    steps: tuple[Edge, ...]

    def __len__(self) -> int:
        return len(self.steps)

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(u for u, _ in self.steps)

    def vertex_set(self) -> frozenset[int]:
        return frozenset(self.vertices)

    def is_triangle(self) -> bool:
        return len(self.steps) == 3 and len(self.vertex_set()) == 3


@dataclass(frozen=True)
class EmbeddedGraph:
    graph: Graph
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
        neg = frozenset(_norm(u, v) for u, v in negative_edges)
        bad = neg - graph.edges
        if bad:
            raise PreconditionError(f"negative signs on non-edges: {sorted(bad)}")
        return EmbeddedGraph(graph, rots, neg)

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def m(self) -> int:
        return self.graph.m

    def sign(self, u: int, v: int) -> int:
        return -1 if _norm(u, v) in self.negative_edges else 1

    @cached_property
    def _faces(self) -> tuple[FacialWalk, ...]:
        return _trace(self)


# ---------------------------------------------------------------------------
# Face tracing and the Euler genus
# ---------------------------------------------------------------------------


def trace_faces(eg: EmbeddedGraph) -> list[FacialWalk]:
    """The complete face set, as a new list. Deterministic: faces sorted
    by their least traversal state. Each embedding is traced once; the
    faces are cached on it."""
    return list(eg._faces)


def _trace(eg: EmbeddedGraph) -> tuple[FacialWalk, ...]:
    """Trace each face's orbit from its least state, then the reverse
    traversal from that state's mirror, so every state is seen once."""
    neg = eg.negative_edges
    darts: list[Edge] = []  # dart id -> (from, to)
    ids: list[dict[int, int]] = []  # per vertex: neighbor -> outgoing dart id
    for u, rot in enumerate(eg.rotations):
        base = len(darts)
        nbrs = sorted(rot)
        darts.extend((u, v) for v in nbrs)
        ids.append({v: base + k for k, v in enumerate(nbrs)})
    # nxt[state]: the dart u -> v continues at v with u's rotation successor
    # (sign +1 after crossing) or predecessor (sign -1); the edge's sign
    # decides which sign before crossing takes which
    nxt = [0] * (2 * len(darts))
    for v, rot in enumerate(eg.rotations):
        out = [ids[v][w] for w in rot]
        for u, after, before in zip(rot, out[1:] + out[:1], out[-1:] + out[:-1]):
            d = 2 * ids[u][v]
            if _norm(u, v) in neg:
                nxt[d], nxt[d + 1] = 2 * after + 1, 2 * before
            else:
                nxt[d], nxt[d + 1] = 2 * before, 2 * after + 1
    seen = bytearray(len(nxt))
    faces: list[FacialWalk] = []
    for start in range(len(nxt)):
        if seen[start]:
            continue
        orbit = [start]
        cur = nxt[start]
        while cur != start:
            orbit.append(cur)
            cur = nxt[cur]
        for state in orbit:
            seen[state] = 1
        # the mirror of (u, v, s) is (v, u, -s * sign(uv))
        u, v = darts[start >> 1]
        cur = back = 2 * ids[v][u] + ((start & 1) ^ (_norm(u, v) not in neg))
        size = 0
        while not seen[cur]:
            seen[cur] = 1
            size += 1
            cur = nxt[cur]
        if cur != back or size != len(orbit):
            raise InternalInvariantError(
                "face orbits must pair off by traversal direction")
        faces.append(FacialWalk(tuple([darts[state >> 1] for state in orbit])))
    return tuple(faces)


def euler_genus(eg: EmbeddedGraph) -> int:
    """2 - n + m - f for a connected embedding; always non-negative."""
    if not is_connected(eg.graph):
        raise PreconditionError("Euler genus needs a connected graph")
    f = len(trace_faces(eg)) if eg.m > 0 else 1
    g = 2 - eg.n + eg.m - f
    if g < 0:
        raise InternalInvariantError("face tracing produced an impossible face count")
    return g


def is_triangulation(eg: EmbeddedGraph) -> bool:
    """Every facial walk has three distinct vertices and three distinct
    edges."""
    if eg.m == 0:
        return False
    return all(w.is_triangle() for w in trace_faces(eg))


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
    edges = []
    negative = []
    for (v, u), sgn in sign_claims.items():
        back = sign_claims.get((u, v))
        if back is None:
            raise ParseError(f"vertex {u} does not list {v} back")
        if back != sgn:
            raise ParseError(f"edge {_norm(u, v)} has conflicting signs at its endpoints")
        if v < u:
            edges.append((v, u))
            if sgn < 0:
                negative.append((v, u))
    # the checks above are everything Graph.build and EmbeddedGraph.build
    # check: neighbors in range, no loops or duplicates, each listed back
    # (so every rotation is a permutation of its neighbors), equal signs
    return EmbeddedGraph(Graph(n, frozenset(edges)), tuple(rotations), frozenset(negative))


def serialize_embedding(eg: EmbeddedGraph) -> str:
    negative_at: dict[int, set[int]] = {}
    for u, v in eg.negative_edges:
        negative_at.setdefault(u, set()).add(v)
        negative_at.setdefault(v, set()).add(u)
    out = [str(eg.n)]
    for v, rot in enumerate(eg.rotations):
        bad = negative_at.get(v, ())
        toks = [f"{u}-" if u in bad else str(u) for u in rot]
        out.append(f"{v}:" + (" " + " ".join(toks) if toks else ""))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Surgery: switching, contraction of reducible edges, splitting
# ---------------------------------------------------------------------------


def switch_vertex(eg: EmbeddedGraph, v: int) -> EmbeddedGraph:
    """Reverse the rotation at v and flip the signs of its edges; the
    embedding is unchanged up to homeomorphism."""
    rots = list(eg.rotations)
    rots[v] = tuple(reversed(rots[v]))
    neg = set(eg.negative_edges)
    for w in eg.graph.adj[v]:
        e = _norm(v, w)
        if e in neg:
            neg.discard(e)
        else:
            neg.add(e)
    return EmbeddedGraph(eg.graph, tuple(rots), frozenset(neg))


def triangles_containing(g: Graph, u: int, v: int) -> list[int]:
    return sorted(set(g.adj[u]) & set(g.adj[v]))


def reducible_edges(eg: EmbeddedGraph) -> list[Edge]:
    """Edges lying in exactly two triangles of the underlying graph (the
    definitional answer; whether both triangles are facial is checked by
    contract_reducible)."""
    if not is_triangulation(eg):
        raise PreconditionError("reducible edges are defined for triangulations")
    g = eg.graph
    return [e for e in g.sorted_edges() if len(triangles_containing(g, *e)) == 2]


def _rotate_to(seq: tuple[int, ...], first: int) -> list[int]:
    i = seq.index(first)
    return list(seq[i:]) + list(seq[:i])


def contract_reducible(eg: EmbeddedGraph, edge: Edge) -> EmbeddedGraph:
    """Contract a reducible edge vw: delete vw and the two face edges wx,
    wy, splice w's remaining neighbors into v's rotation. The two
    triangles through vw must be the two faces at vw, otherwise the
    operation refuses."""
    v, w = edge
    g = eg.graph
    if not g.has_edge(v, w):
        raise PreconditionError(f"edge ({v},{w}) not in graph")
    thirds = triangles_containing(g, v, w)
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
    # v's new rotation, cyclically (x, arc, y, rest)
    merged = list(arc) + [y] + rest + [x]
    rotations = list(eg.rotations)
    negative = set(eg.negative_edges)
    edges = set(g.edges)
    # drop vw, wx, wy
    for gone in ((v, w), (w, x), (w, y)):
        e = _norm(*gone)
        edges.discard(e)
        negative.discard(e)
    # w's arc edges move to v
    for a in arc:
        old = _norm(w, a)
        e = _norm(v, a)
        edges.discard(old)
        edges.add(e)
        if old in negative:
            negative.discard(old)
            negative.add(e)
        rot_a = list(rotations[a])
        rot_a[rot_a.index(w)] = v
        rotations[a] = tuple(rot_a)
    rotations[v] = tuple(merged)
    for z in (x, y):
        rot_z = list(rotations[z])
        rot_z.remove(w)
        rotations[z] = tuple(rot_z)
    # remove w and reindex
    remap = [u if u < w else u - 1 for u in range(g.n)]
    new_edges = {(min(remap[a], remap[b]), max(remap[a], remap[b])) for a, b in edges}
    new_neg = {(min(remap[a], remap[b]), max(remap[a], remap[b])) for a, b in negative}
    new_rots = [tuple(remap[u] for u in rotations[z]) for z in range(g.n) if z != w]
    new_graph = Graph.build(g.n - 1, new_edges)
    return EmbeddedGraph.build(new_graph, new_rots, new_neg)


def split_path(eg: EmbeddedGraph, x: int, v: int, y: int) -> EmbeddedGraph:
    """Split at v between neighbors x and y: a new vertex w takes over the
    rotation arc of v that runs from x to y (successor direction),
    becoming adjacent to x, that arc, y, and v. Inverse of
    contract_reducible at the same site. The result of splitting a
    triangulation is a triangulation of the same surface."""
    g = eg.graph
    if x == y or not (g.has_edge(x, v) and g.has_edge(y, v)):
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
    a, b, c = sorted(fs)
    if not _is_facial_triangle(eg, a, b, c):
        raise PreconditionError(f"{(a, b, c)} is not a facial triangle")
    splitter = _Splitter(eg)
    splitter.split(a, b, c)
    return splitter.export()


def _is_facial_triangle(eg: EmbeddedGraph, a: int, b: int, c: int) -> bool:
    """Whether some face is the triangle abc, read without tracing the
    embedding. Such a face runs along ab one way or the other, so it is
    the orbit of (a, b, +1) or of (a, b, -1); each is walked for three
    steps, O(degree) a step."""
    if not eg.graph.has_edge(a, b):
        return False
    for start in ((a, b, 1), (a, b, -1)):
        walk = [start]
        for _ in range(3):
            u, v, sign = walk[-1]
            sign *= eg.sign(u, v)
            rot = eg.rotations[v]
            i = rot.index(u)
            walk.append((v, rot[(i + 1) % len(rot)] if sign > 0 else rot[i - 1], sign))
        if walk[3] == start and walk[2][0] == c:
            return True
    return False


class _Splitter:
    """A mutable copy of a signed rotation system for repeated splits. A
    switch or a triangle split is O(1) whatever the degrees, a path split
    O(1 + the arc it moves). Every vertex keeps successor and predecessor
    maps over its rotation, and its first element, which is where the
    exported rotation starts. An edge's sign is its stored sign times a
    parity per end, so a switch flips one parity and swaps the vertex's
    two maps."""

    def __init__(self, eg: EmbeddedGraph):
        self.succ = [dict(zip(rot, rot[1:] + rot[:1])) for rot in eg.rotations]
        self.pred = [dict(zip(rot, rot[-1:] + rot[:-1])) for rot in eg.rotations]
        self.first = [rot[0] if rot else None for rot in eg.rotations]
        self.parity = [1] * eg.n
        self.negative = set(eg.negative_edges)

    def sign(self, u: int, v: int) -> int:
        s = self.parity[u] * self.parity[v]
        return -s if _norm(u, v) in self.negative else s

    def switch(self, v: int) -> None:
        """switch_vertex: the reversed rotation starts at the old last."""
        self.parity[v] = -self.parity[v]
        self.succ[v], self.pred[v] = self.pred[v], self.succ[v]
        self.first[v] = self.succ[v][self.first[v]]

    def split(self, a: int, b: int, c: int) -> None:
        """Split the facial triangle with vertices a < b < c: split_path
        at its first rotation-consecutive corner, once the face's edges
        are positive."""
        sides = ((a, b), (b, c), (c, a))
        # a facial walk has positive total sign, so zero or two of its edges
        # are negative; switching the vertex they share makes all three positive
        negative = [e for e in sides if self.sign(*e) < 0]
        if len(negative) == 2:
            (shared,) = set(negative[0]) & set(negative[1])
            self.switch(shared)
        if any(self.sign(p, q) < 0 for p, q in sides):
            raise InternalInvariantError("could not normalize face signs")
        # a corner x -> v -> y with y next after x in v's rotation; the face
        # may run either way round, so the reversed corners come second
        for x, v, y in ((a, b, c), (b, c, a), (c, a, b), (c, b, a), (b, a, c), (a, c, b)):
            if self.succ[v][x] == y:
                return self.split_path(x, v, y)
        raise InternalInvariantError("no corner of the face is rotation-consecutive")

    def split_path(self, x: int, v: int, y: int) -> None:
        """split_path: switch x and y to make xv and yv positive; then a
        new vertex w takes over the arc of v strictly between x and y."""
        if self.sign(x, v) < 0:
            self.switch(x)
        if self.sign(y, v) < 0:
            self.switch(y)
        succ, pred, first = self.succ, self.pred, self.first
        w = len(succ)
        arc = []
        a = succ[v][x]
        while a != y:
            arc.append(a)
            a = succ[v][a]
        ring = [v, x, *arc, y]
        succ.append(dict(zip(ring, ring[1:] + ring[:1])))
        pred.append(dict(zip(ring, ring[-1:] + ring[:-1])))
        first.append(v)
        self.parity.append(1)
        # each arc vertex puts w in v's place, and the edge keeps its sign
        for a in arc:
            if self.sign(v, a) * self.parity[a] < 0:
                self.negative.add((a, w))
            self.negative.discard(_norm(v, a))
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
        rotations = []
        for succ, start in zip(self.succ, self.first):
            rot = []
            if start is not None:
                u = start
                while True:
                    rot.append(u)
                    u = succ[u]
                    if u == start:
                        break
            rotations.append(rot)
        edges = [(v, u) for v, rot in enumerate(rotations) for u in rot if v < u]
        negative = [e for e in edges if self.sign(*e) < 0]
        return EmbeddedGraph.build(Graph.build(len(rotations), edges), rotations, negative)


# ---------------------------------------------------------------------------
# Building an embedding from a triangular face list
# ---------------------------------------------------------------------------


def embedding_from_faces(n: int, faces: list[tuple[int, int, int]]) -> EmbeddedGraph:
    """Reconstruct a signed rotation system whose face set is the given
    list of triangles. Each edge must lie in exactly two faces (counting
    multiplicity) and each vertex link must be a single cycle. One pass
    buckets the face corners by vertex, so the cost is near-linear."""
    edge_faces: dict[Edge, list[int]] = {}
    for i, f in enumerate(faces):
        if len(set(f)) != 3:
            raise PreconditionError(f"face {f} is not a triangle")
        for a, b in ((f[0], f[1]), (f[1], f[2]), (f[2], f[0])):
            edge_faces.setdefault(_norm(a, b), []).append(i)
    for e, fs in edge_faces.items():
        if len(fs) != 2:
            raise PreconditionError(f"edge {e} lies in {len(fs)} faces, need 2")
    graph = Graph.build(n, edge_faces.keys())
    # vertex links: each neighbor's partners around v, in face order
    links: list[dict[int, list[int]]] = [{} for _ in range(n)]
    for a, b, c in faces:
        for v, p, q in ((a, b, c), (b, a, c), (c, a, b)):
            links[v].setdefault(p, []).append(q)
            links[v].setdefault(q, []).append(p)
    rotations = []
    for v in range(n):
        partners = links[v]
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
    at = [{u: i for i, u in enumerate(rot)} for rot in rotations]

    # derive edge signs from corner orientations: walking a face, the sign
    # of each step edge is the product of the corner senses at its ends
    def corner_sense(v: int, come: int, go: int) -> int:
        rot = rotations[v]
        i = at[v][come]
        if rot[(i + 1) % len(rot)] == go:
            return 1
        if rot[(i - 1) % len(rot)] == go:
            return -1
        raise PreconditionError(
            f"face corner at {v} ({come}->{go}) not rotation-consecutive")

    signs: dict[Edge, int] = {}
    for f in faces:
        walk = list(f)
        eps = []
        for t in range(3):
            come = walk[(t - 1) % 3]
            v = walk[t]
            go = walk[(t + 1) % 3]
            eps.append(corner_sense(v, come, go))
        for t in range(3):
            e = _norm(walk[t], walk[(t + 1) % 3])
            lam = eps[t] * eps[(t + 1) % 3]
            if signs.setdefault(e, lam) != lam:
                raise PreconditionError(f"inconsistent sign derivation at edge {e}")
    negative = {e for e, s in signs.items() if s < 0}
    eg = EmbeddedGraph.build(graph, rotations, negative)
    want = sorted(tuple(sorted(f)) for f in faces)
    got = sorted(tuple(sorted(w.vertex_set())) for w in trace_faces(eg))
    if want != got:
        raise PreconditionError("face reconstruction failed to reproduce the face list")
    return eg


# ---------------------------------------------------------------------------
# Minimum-genus search over signed rotation systems (small graphs)
# ---------------------------------------------------------------------------

MIN_GENUS_VERTEX_CAP = 8
MIN_GENUS_EDGE_CAP = 18
DEFAULT_EMBEDDING_TRIES = 5_000_000


def _spanning_tree_edges(g: Graph) -> set[Edge]:
    seen = {0} if g.n else set()
    tree: set[Edge] = set()
    stack = [0] if g.n else []
    while stack:
        v = stack.pop()
        for w in g.adj[v]:
            if w not in seen:
                seen.add(w)
                tree.add(_norm(v, w))
                stack.append(w)
    return tree


def _is_bipartite(g: Graph) -> bool:
    color = [-1] * g.n
    for s in range(g.n):
        if color[s] >= 0:
            continue
        color[s] = 0
        stack = [s]
        while stack:
            v = stack.pop()
            for w in g.adj[v]:
                if color[w] < 0:
                    color[w] = 1 - color[v]
                    stack.append(w)
                elif color[w] == color[v]:
                    return False
    return True


def min_genus_search(g: Graph, tries: int = DEFAULT_EMBEDDING_TRIES) -> tuple[int, EmbeddedGraph]:
    """Minimum Euler genus over all signed rotation systems, with one
    witness embedding. Backtracks over rotations and cotree edge signs
    (spanning-tree edges can be fixed positive up to switching), pruning
    with the Euler-formula face-count target; the candidate genus starts
    at the edge-count lower bound and the search stops at the first hit.

    Hard caps: 8 vertices, 18 edges. ``tries`` caps the number of
    embeddings traced."""
    if g.n > MIN_GENUS_VERTEX_CAP:
        raise CapExceeded("size_cap", f"min_genus_search vertex cap is {MIN_GENUS_VERTEX_CAP}")
    if g.m > MIN_GENUS_EDGE_CAP:
        raise CapExceeded("size_cap", f"min_genus_search edge cap is {MIN_GENUS_EDGE_CAP}")
    comps = connected_components(g)
    if len(comps) > 1:
        # Euler genus is additive over components
        total = 0
        rotations: list[tuple[int, ...]] = [()] * g.n
        negatives: set[Edge] = set()
        for comp in comps:
            index = {v: i for i, v in enumerate(comp)}
            sub = Graph.build(len(comp), [(index[u], index[v]) for u, v in g.edges
                                          if u in index and v in index])
            genus, emb = min_genus_search(sub, tries=tries)
            total += genus
            for i, v in enumerate(comp):
                rotations[v] = tuple(comp[u] for u in emb.rotations[i])
            negatives.update(_norm(comp[u], comp[v]) for u, v in emb.negative_edges)
        return total, EmbeddedGraph.build(g, rotations, negatives)

    if g.n == 0:
        raise PreconditionError("empty graph has no embedding")
    if g.m == 0:
        return 0, EmbeddedGraph.build(g, [()] * g.n, ())
    lower = 0
    if g.n >= 3:
        bound = 2 if _is_bipartite(g) else 3
        lower = max(0, math.ceil(g.m / bound - g.n + 2))
    if lower == 0 and not is_planar(g):
        lower = 1
    tree = _spanning_tree_edges(g)
    cotree = [e for e in g.sorted_edges() if e not in tree]
    budget = [tries]
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
    from itertools import combinations, permutations

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

    def rec(v: int, rots: list[tuple[int, ...]]) -> EmbeddedGraph | None:
        if v == g.n:
            for neg in sign_patterns:
                budget[0] -= 1
                if budget[0] < 0:
                    raise CapExceeded(
                        "work_cap", "embedding search budget exhausted; raise tries")
                eg = EmbeddedGraph(g, tuple(rots), neg)
                if len(trace_faces(eg)) == target_f:
                    return eg
            return None
        for rot in rot_choices[v]:
            rots.append(rot)
            hit = rec(v + 1, rots)
            if hit is not None:
                return hit
            rots.pop()
        return None

    return rec(0, [])

"""Exact counting of copies, homomorphisms, and cliques, plus the
homomorphism inequalities and the empirical scaling-exponent fit.

All counts are Python integers (arbitrary precision). Copies and injective
maps are counted through the homomorphism basis, so the work grows with
the host and the pattern's width, not with the number of maps counted:

- hom(F, G) is a dynamic program over the pattern's search order. Its
  states map the images of the frontier, the mapped vertices that still
  have unmapped neighbors, to the number of partial maps that reach them
  (treewidth DP, Diaz-Serna-Thilikos 2002). It runs on G's twin quotient,
  one vertex per class of false twins weighted by the class size, so a
  host built by replicating vertices costs what its quotient costs. Q's
  edges point along a smallest-last (degeneracy) order, so every out-set
  is at most the degeneracy. True twins of F (equal closed
  neighborhoods) take rising images in that order, and the count is
  multiplied by k! per class of k of them. Where F's frontier pays for
  wedges, hom(F, Q) is instead the sum, over the isomorphism classes of
  acyclic orientations D of F, of |class| * hom(D, Q), each through the
  same DP with candidates drawn from out-sets (Chiba-Nishizeki 1985;
  Bressan, Algorithmica 2021).
- cliques are hom(K_s, G) / s! through the same DP, whose twin rule
  lists each s-clique once (the spasm of K_s is K_s alone).
- inj(H, G) is the sum over spasm classes F of c_F * hom(F, G). The spasm
  of H is the set of quotients of H by partitions of V(H) into independent
  blocks, and c_F sums the Moebius value prod_B (-1)^(|B|-1) (|B|-1)! over
  the partitions whose quotient is isomorphic to F (Curticapean-Dell-Marx,
  STOC 2017). Isolated vertices of H stay out of the spasm: they take any
  of the host vertices left over, a falling factorial.
- copies(H, G) is inj(H, G) / |Aut(H)|, exact because Aut(H) acts freely
  on injective maps, and |Aut(H)| = inj(H, H): the injective maps of H
  into itself are its automorphisms. One spasm gives both, and every host
  of a scaling fit.

One work cap bounds a whole call: every partition, DP step, orientation
tried and automorphism used to group them spends from the same budget.
Each spasm term is planned once per call (``_Plan``), and the plan serves
every host and inj(H, H), so its orientation classes are listed, and paid
for, at most once. No plan outlives the call. On overrun, CapExceeded reports how many spasm terms, one per class and host,
were counted out of the total.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter

from .errors import DEFAULT_WORK_CAP, CapExceeded, InternalInvariantError, PreconditionError
from .graph import (Graph, _isomorphisms, complete_graph, connected_components, degree_key,
                    induced_subgraph, is_isomorphic)


def _search_order(h: Graph) -> list[int]:
    """Vertex order for the DP, one component after another, largest first.

    Each component starts at a vertex of maximum degree; every later vertex
    has a placed neighbor, and among those the one that leaves the fewest
    placed vertices with unplaced neighbors (the DP frontier) comes next,
    ties going to higher degree, then lower index."""
    adj = h.adj
    deg = [len(a) for a in adj]
    unplaced = deg[:]  # unplaced neighbors of each vertex
    placed = [False] * h.n
    order: list[int] = []
    for comp in sorted(connected_components(h), key=lambda c: (-len(c), c)):
        nxt = max(comp, key=lambda v: (deg[v], -v))
        for step in range(len(comp)):
            if step:
                # frontier growth if v is placed next: v itself if it keeps
                # an unplaced neighbor, minus the placed neighbors v finishes
                nxt = min((v for v in comp if not placed[v] and unplaced[v] < deg[v]),
                          key=lambda v: ((unplaced[v] > 0) - sum(
                              1 for w in adj[v] if placed[w] and unplaced[w] == 1),
                              -deg[v], v))
            placed[nxt] = True
            order.append(nxt)
            for w in adj[nxt]:
                unplaced[w] -= 1
    return order


class _Budget:
    """The work cap of one call, in DP steps, shared by every stage of it.

    ``done`` and ``total`` track spasm terms counted, one per class and
    host; ``total`` is None while the spasm is still being enumerated."""

    __slots__ = ("left", "cap", "done", "total")

    def __init__(self, cap: int, total: int | None = None):
        self.cap = cap
        self.left = cap
        self.done = 0
        self.total = total

    def spend(self, amount: int) -> None:
        self.left -= amount
        if self.left < 0:
            self.exceeded()

    def exceeded(self) -> None:
        where = ("while enumerating the spasm" if self.total is None
                 else f"with {self.done} of {self.total} spasm terms counted")
        raise CapExceeded(
            "work_cap",
            f"counting aborted after {self.cap} DP steps {where}",
            progress=(self.done, self.total),
        )


def _projector(kept: list[int], width: int):
    """Function taking a frontier-image tuple of length ``width`` to the
    tuple of its entries at positions ``kept``."""
    if kept == list(range(width)):
        return lambda key: key
    if not kept:
        return lambda key: ()
    if len(kept) == 1:
        k = kept[0]
        return lambda key: (key[k],)
    return itemgetter(*kept)


def _unanchored(watch: list[tuple[int, list[int]]], arcs: set[tuple[int, int]]) -> int:
    """How many of the vertices ``watch`` lists with their anchors have no
    anchor pointing to them in ``arcs``: each draws its candidates from a
    whole neighborhood or in-set, a wedge per state."""
    return sum(1 for v, anchors in watch if not any((w, v) in arcs for w in anchors))


def _orientation_classes(h: Graph, fixed: set[tuple[int, int]],
                         watch: list[tuple[int, list[int]]], budget: _Budget,
                         limit: int | None) -> list[tuple[int, set[tuple[int, int]]]] | None:
    """The acyclic orientations of h that hold the arcs ``fixed``, grouped
    into isomorphism classes, the orbits of Aut(h): a list of (class size,
    arcs of one member), the member with the fewest ``_unanchored``
    vertices. Every orientation tried, automorphism listed and orbit image
    spends one DP step. None once the orientations to try, or the
    automorphisms times the orientations kept, pass ``limit``."""
    edges = sorted(h.edges)
    at = {e: i for i, e in enumerate(edges)}
    free = [i for i, e in enumerate(edges) if e not in fixed]
    if limit is not None and 1 << len(free) > limit:
        return None

    def arcs_of(bits: int) -> set[tuple[int, int]]:
        # bit i set: edge i, (u, v) with u < v, points from v to u
        return {(v, u) if bits >> i & 1 else (u, v) for i, (u, v) in enumerate(edges)}

    def acyclic(bits: int) -> bool:
        out = [0] * h.n
        for u, v in arcs_of(bits):
            out[u] |= 1 << v
        alive = (1 << h.n) - 1
        while alive:  # peel the sinks
            sinks = sum(1 << v for v in range(h.n) if alive >> v & 1 and not out[v] & alive)
            if not sinks:
                return False
            alive &= ~sinks
        return True

    members = []
    for sub in range(1 << len(free)):
        budget.spend(1)
        bits = sum(1 << i for k, i in enumerate(free) if sub >> k & 1)
        if acyclic(bits):
            members.append(bits)
    autos = []  # per automorphism, each edge's image and whether it turns
    for image in _isomorphisms(h, h):
        budget.spend(1)
        if limit is not None and (len(autos) + 1) * len(members) > limit:
            return None
        autos.append([(at[(min(image[u], image[v]), max(image[u], image[v]))],
                       image[u] > image[v]) for u, v in edges])
    index = {bits: k for k, bits in enumerate(members)}
    taken = [False] * len(members)
    classes = []
    for bits in members:
        if taken[index[bits]]:
            continue
        budget.spend(len(autos))
        orbit = {sum(((bits >> i & 1) ^ turn) << j for i, (j, turn) in enumerate(auto))
                 for auto in autos}
        inside = sorted(index[b] for b in orbit if b in index)
        for k in inside:
            taken[k] = True
        best = min((arcs_of(members[k]) for k in inside), key=lambda a: _unanchored(watch, a))
        classes.append((len(inside), best))
    return classes


class _Plan:
    """What hom(h, .) needs of h alone, built once per call and run on
    every host: the steps along ``_search_order(h)``, each a vertex, its
    anchors (placed neighbors) with their frontier slots, the projection
    dropping the vertices it finishes, and whether it stays on the
    frontier; the ``watch`` list of staying vertices with anchors, placed
    with two frontier images or more known; the true-twin arcs ``fixed``
    and their factor ``ties``; and the orientation classes once listed.

    True twins of h (equal closed neighborhoods) are adjacent, so their
    images are distinct, and swapping two of them maps homomorphisms to
    homomorphisms of the same weight. So each class of k true twins is
    oriented by index, and the count is multiplied by k!: one map per
    orbit is counted."""

    __slots__ = ("h", "steps", "watch", "fixed", "ties", "wedges", "classes", "refused")

    def __init__(self, h: Graph):
        hadj = h.adj
        pos = [0] * h.n
        last = [-1] * h.n  # the position of each vertex's last neighbor
        order = _search_order(h)
        for i, v in enumerate(order):
            pos[v] = i
            for w in hadj[v]:
                last[w] = i
        self.h, self.steps, self.watch, self.fixed, self.ties = h, [], [], set(), 1
        frontier: list[int] = []
        for i, v in enumerate(order):
            slot = {w: k for k, w in enumerate(frontier)}
            nbrs = hadj[v]
            anchors = []
            rank = 1  # 1 + the number of v's true twins placed before v
            for w in nbrs:
                if pos[w] < i:
                    anchors.append((slot[w], w))
                    if len(hadj[w]) == len(nbrs) and hadj[w] - {v} == nbrs - {w}:
                        self.fixed.add((w, v) if w < v else (v, w))
                        rank += 1
            self.ties *= rank
            kept = [k for k, w in enumerate(frontier) if last[w] > i]
            self.steps.append((v, anchors, _projector(kept, len(frontier)), last[v] > i))
            if last[v] > i and anchors and len(frontier) >= 2:
                self.watch.append((v, [w for _, w in anchors]))
            frontier = [frontier[k] for k in kept]
            if last[v] > i:
                frontier.append(v)
        # whether the frontier path pays for wedges (``run``)
        self.wedges = bool(self.watch and len(self.fixed) < h.m
                           and _unanchored(self.watch, self.fixed))
        self.classes = None  # (size, arcs of its best member) per class, once listed
        self.refused = -1  # the largest limit a listing was cut off under

    def _orientations(self, budget: _Budget, limit: int | None) -> list | None:
        """The orientation classes, listed at most once: a listing cut off
        by one limit is tried again only under a larger one. None while no
        listing has finished."""
        if self.classes is None and (limit is None or limit > self.refused):
            self.classes = _orientation_classes(self.h, self.fixed, self.watch, budget, limit)
            if self.classes is None:
                self.refused = limit
        return self.classes

    def run(self, g: Graph, budget: _Budget, totals: list[int] | None = None,
            oriented: bool | None = None) -> int:
        """hom(h, g) by the DP over the plan's steps on g's twin quotient Q.

        Twins are interchangeable images, so hom(h, g) is the hom count
        into Q with each map weighted by the product of its images' class
        sizes (Lovasz, Large Networks and Graph Limits, ch. 5). After each
        vertex, the states map the tuple of Q-images of the frontier to the
        weighted number of partial homomorphisms reaching it. Candidates
        for a vertex are the common Q-neighbors of its anchors' images (all
        of V(Q) without anchors). A vertex that stays on the frontier
        enters candidate c with weight w(c). A vertex with no later
        neighbor leaves the frontier at once: it multiplies each state by
        its candidates' total weight and adds no state. One DP step is one
        state visited or one candidate entered as a state.

        Q's edges point along a smallest-last order (``Graph._out_in``), so
        out-sets are at most the degeneracy. Each homomorphism orients h
        acyclically, from the earlier image to the later, so hom(h, Q) is
        the sum over the acyclic orientations D of h of the maps taking
        each arc of D to an arc of Q. An arc (w, v) puts v's image in the
        out-set of w's, an arc (v, w) in the in-set; a vertex starts its
        candidates from an in-neighbor's out-set when it has one.
        Isomorphic orientations have equal counts, so each class is counted
        once, times its size.

        The frontier path orients only the true-twin arcs and takes common
        neighbors across the rest. There, a vertex of ``watch`` with no
        anchor pointing to it draws a whole neighborhood per state: the
        frontier pays for wedges, about sum deg^2 over Q. Only then are the
        classes listed, under the limit sum deg^2, and the oriented path
        runs when its estimate comes under it: per class, sum (|out| + 1)^2
        over Q, the out-wedges, or sum deg^2 when its best member still
        has such a vertex. True or False in ``oriented`` forces a path.

        A class's run stops once no state is left. With ``totals``, the
        weighted state total after each step is appended to it; cliques use
        it, whose edges all join true twins, so that there is one run."""
        q, weight = g._twin_quotient
        unit = q is g
        weigh = len if unit else (lambda cands: sum(map(weight.__getitem__, cands)))
        adj = q.adj
        out, into = q._out_in
        everything = range(q.n)
        runs = [(1, self.fixed)]
        if oriented or (oriented is None and self.wedges):
            wedge = None if oriented else sum(len(a) ** 2 for a in adj)
            one = sum((len(o) + 1) ** 2 for o in out)
            if oriented or one < wedge:
                classes = self._orientations(budget, wedge)
                if classes is not None and (oriented or sum(
                        wedge if _unanchored(self.watch, arcs) else one
                        for _, arcs in classes) < wedge):
                    runs = classes
        total = 0
        for size, arcs in runs:
            states: dict[tuple[int, ...], int] = {(): 1}
            for v, anchors, project, stays in self.steps:
                sources = []  # an in-neighbor's out-set first
                for k, w in anchors:
                    if (w, v) in arcs:
                        sources.insert(0, (k, out))
                    else:
                        sources.append((k, into if (v, w) in arcs else adj))
                first, start = sources[0] if sources else (None, None)
                rest = sources[1:]
                nxt: dict[tuple[int, ...], int] = {}
                left = budget.left
                for key, cnt in states.items():
                    if first is None:
                        cands = everything
                    else:
                        cands = start[key[first]]
                        for a, table in rest:
                            cands = cands & table[key[a]]
                    left -= 1 + len(cands) if stays else 1
                    if left < 0:
                        budget.left = left
                        budget.exceeded()
                    base = project(key)
                    if stays:
                        for c in cands:
                            nk = base + (c,)
                            nxt[nk] = nxt.get(nk, 0) + (cnt if unit else cnt * weight[c])
                    elif cands:
                        nxt[base] = nxt.get(base, 0) + cnt * weigh(cands)
                budget.left = left
                states = nxt
                if not states:
                    break
                if totals is not None:
                    totals.append(sum(states.values()))
            total += size * sum(states.values())
        return total * self.ties


def _hom_dp(h: Graph, g: Graph, budget: _Budget, totals: list[int] | None = None,
            oriented: bool | None = None) -> int:
    """hom(h, g) by one run of a plan for h (``_Plan.run``)."""
    return _Plan(h).run(g, budget, totals, oriented)


def _spasm(h: Graph, budget: _Budget) -> list[tuple[Graph, int]]:
    """The spasm of h with its Moebius coefficients: one ``(F, c_F)`` per
    isomorphism class of quotients of h by partitions of V(h) into
    independent blocks, classes with c_F = 0 left out.

    Partitions are enumerated iteratively as restricted growth strings, one
    DP step each; a quotient joins the class of the first representative
    it is isomorphic to among those sharing its ``degree_key``. Partitions
    with the same quotient on the same block numbers, as twins of h give,
    share that lookup."""
    n = h.n
    nbr_mask = [sum(1 << w for w in h.adj[v]) for v in range(n)]
    edges = list(h.edges)
    blocks: list[int] = []  # vertex masks of the open blocks
    where = [-1] * n  # block of each placed vertex; -1 before its first try
    classes: dict[tuple, list[list]] = {}
    found: list[list] = []  # [F, c_F] in discovery order
    seen: dict[tuple, list] = {}  # block count and quotient edges -> entry
    v = 0
    while v >= 0:
        if v == n:
            budget.spend(1)
            quotient = frozenset((min(where[a], where[b]), max(where[a], where[b]))
                                 for a, b in edges)
            mu = 1
            for mask in blocks:
                size = mask.bit_count()
                mu *= (-1) ** (size - 1) * math.factorial(size - 1)
            entry = seen.get((len(blocks), quotient))
            if entry is None:
                f = Graph(len(blocks), quotient)
                bucket = classes.setdefault(degree_key(f), [])
                entry = next((e for e in bucket if is_isomorphic(f, e[0])), None)
                if entry is None:
                    entry = [f, 0]
                    bucket.append(entry)
                    found.append(entry)
                seen[len(blocks), quotient] = entry
            entry[1] += mu
            v -= 1
            continue
        b = where[v]
        if b >= 0:  # take v back out of the block it was tried in
            blocks[b] &= ~(1 << v)
            if not blocks[b]:
                blocks.pop()  # v had opened it, so it is the last block
        b += 1
        while b < len(blocks) and blocks[b] & nbr_mask[v]:
            b += 1
        if b > len(blocks):  # every block, and a new one, has been tried
            where[v] = -1
            v -= 1
            continue
        if b == len(blocks):
            blocks.append(0)
        blocks[b] |= 1 << v
        where[v] = b
        v += 1
    return [(f, c) for f, c in found if c]


def _count_injective(h: Graph, hosts: list[Graph], budget: _Budget) -> list[int]:
    """inj(h, g) for each host g, over one enumeration of h's spasm and one
    plan per term: the spasm sum for h without its isolated vertices, times
    the ways to place those injectively in the host vertices left over. A host smaller than
    h gets 0 and costs nothing; without a host that fits, the spasm is not
    enumerated."""
    fits = [g.n >= h.n for g in hosts]
    if not any(fits):
        return [0] * len(hosts)
    core = [v for v in range(h.n) if h.adj[v]]
    isolated = h.n - len(core)
    if isolated:
        h = induced_subgraph(h, core)
    spasm = [(_Plan(f), coeff) for f, coeff in _spasm(h, budget)]
    budget.total = len(spasm) * sum(fits)
    counts = []
    for g, fit in zip(hosts, fits):
        if not fit:
            counts.append(0)
            continue
        total = 0
        for plan, coeff in spasm:
            total += coeff * plan.run(g, budget)
            budget.done += 1
        counts.append(total * math.perm(g.n - h.n, isolated))
    return counts


def _count_copies(h: Graph, hosts: list[Graph], budget: _Budget) -> list[int]:
    """copies(h, g) for each host g: inj(h, g) / inj(h, h), since an
    injective map of h into itself is an automorphism and Aut(h) acts
    freely on injective maps. One spasm serves every host and h."""
    if all(g.n < h.n for g in hosts):
        return [0] * len(hosts)
    *injs, aut = _count_injective(h, [*hosts, h], budget)
    for inj in injs:
        if inj % aut:
            raise InternalInvariantError(
                f"{inj} injective maps do not split into orbits of |Aut(H)| = {aut}")
    return [inj // aut for inj in injs]


def count_injective_hom(h: Graph, g: Graph, work_cap: int = DEFAULT_WORK_CAP) -> int:
    """Number of injective adjacency-preserving maps V(h) -> V(g);
    count_injective_hom(h, h) is |Aut(h)|."""
    return _count_injective(h, [g], _Budget(work_cap))[0]


def count_hom(h: Graph, g: Graph, work_cap: int = DEFAULT_WORK_CAP) -> int:
    """Number of adjacency-preserving maps V(h) -> V(g). For progress on
    overrun, h is its own single spasm term."""
    return _hom_dp(h, g, _Budget(work_cap, 1))


def count_copies(h: Graph, g: Graph, work_cap: int = DEFAULT_WORK_CAP) -> int:
    """Number of subgraphs of g isomorphic to h (vertex-and-edge subsets)."""
    return _count_copies(h, [g], _Budget(work_cap))[0]


# ---------------------------------------------------------------------------
# Cliques
# ---------------------------------------------------------------------------


def count_cliques(g: Graph, s: int) -> int:
    """Number of s-vertex cliques; s=0 counts the empty clique once.

    hom(K_s, g) / s! through the DP, whose twin rule lists each clique
    once, along the smallest-last order of g's twin quotient. A clique's
    earliest vertex there sees all the others, so s above 1 + the largest
    out-set gives 0 without a run."""
    if s < 0:
        raise PreconditionError("clique size must be non-negative")
    if s > 1 + max(map(len, g._twin_quotient[0]._out_in[0]), default=-1):
        return 0
    return _hom_dp(complete_graph(s), g, _Budget(DEFAULT_WORK_CAP, 1)) // math.factorial(s)


def clique_counts(g: Graph) -> list[int]:
    """The number of s-cliques for s = 0 up to the clique number, from one
    DP run for K_t: after j of its vertices are placed, the weighted state
    total is the number of j-cliques, since the twin rule lists each clique
    once. A clique's earliest vertex in the quotient's smallest-last order
    sees all the others, so t = 1 + the degeneracy, the largest out-set,
    is enough."""
    t = 1 + max(map(len, g._twin_quotient[0]._out_in[0]), default=-1)
    counts = [1]
    _hom_dp(complete_graph(t), g, _Budget(DEFAULT_WORK_CAP, 1), counts)
    return counts


def total_cliques(g: Graph) -> int:
    """Total number of complete subgraphs, the empty one included."""
    return sum(clique_counts(g))


# ---------------------------------------------------------------------------
# Homomorphism inequalities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InequalityReport:
    lhs: int
    rhs: int
    holds: bool


_K3 = complete_graph(3)


def _vertices_edges_triangles(g: Graph) -> list[int]:
    """[n, m, t] of g from one DP run for K3: after j of its vertices are
    placed, the weighted state total is the number of j-cliques, as in
    ``clique_counts``. A run that stops early leaves zeros."""
    counts: list[int] = []
    _hom_dp(_K3, g, _Budget(DEFAULT_WORK_CAP, 1), counts)
    return counts + [0] * (3 - len(counts))


def check_goodman(g: Graph) -> InequalityReport:
    """Goodman's triangle bound as a homomorphism inequality:
    hom(K1)hom(K3) >= hom(K2)(2 hom(K2) - hom(K1)^2), where hom(K1) = n,
    hom(K2) = 2m and hom(K3) = 6t."""
    n, m, t = _vertices_edges_triangles(g)
    h1, h2, h3 = n, 2 * m, 6 * t
    lhs = h1 * h3
    rhs = h2 * (2 * h2 - h1 * h1)
    return InequalityReport(lhs, rhs, lhs >= rhs)


@dataclass(frozen=True)
class GenusTriangleReport:
    lhs: int
    rhs: int
    holds: bool
    hom_lhs: int
    hom_rhs: int


def check_genus_triangle_bound(g: Graph, genus: int) -> GenusTriangleReport:
    """Euler-formula triangle bound for a graph of Euler genus ``genus``:
    triangles >= 2m - 4n + 4 + 4c - 4genus (c = component count).

    The homomorphism form (6x the triangle form, with c=1) is evaluated
    alongside, from the n, m and t of one DP run. The triangle count is
    checked against the sum over edges
    uv of |N(u) & N(v)|, which sees each triangle three times without the
    DP.

    The Euler count behind it takes each face walk to have length >= 3 and
    distinct triangular faces to be distinct triangles, which fails when g
    has at most one edge or its edges form one lone triangle: refused.
    """
    if genus < 0:
        raise PreconditionError("Euler genus must be non-negative")
    n, m, t = _vertices_edges_triangles(g)
    if g.m <= 1 or (g.m == 3 and t == 1):
        raise PreconditionError(
            "the genus triangle bound needs at least two edges that are not one lone triangle")
    c = len(connected_components(g))
    rhs = 2 * g.m - 4 * g.n + 4 + 4 * c - 4 * genus
    adj = g.adj
    by_edges = sum(len(adj[u] & adj[v]) for u, v in g.edges)
    if by_edges != 3 * t:
        raise InternalInvariantError(
            f"triangle count and edge-sum routes disagree: 3*{t} != {by_edges}")
    hom3 = 6 * t
    hom_rhs = 6 * 2 * m - 24 * n + 48 - 24 * genus
    # the hom form is six times the connected (c=1) triangle form
    if hom_rhs != 6 * (2 * g.m - 4 * g.n + 8 - 4 * genus):
        raise InternalInvariantError(
            "hom form of the genus triangle bound is not six times the triangle form")
    return GenusTriangleReport(t, rhs, t >= rhs, hom3, hom_rhs)


# ---------------------------------------------------------------------------
# Empirical scaling exponent
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalingReport:
    sizes: tuple[int, ...]
    host_orders: tuple[int, ...]
    counts: tuple[int, ...]
    slope: float

    def as_dict(self) -> dict:
        return {
            "sizes": list(self.sizes),
            "host_orders": list(self.host_orders),
            "counts": [str(c) for c in self.counts],
            "slope": self.slope,
        }


def scaling_exponent(h: Graph, sizes, generator,
                     work_cap: int = DEFAULT_WORK_CAP) -> ScalingReport:
    """Least-squares slope of log(copy count) against log(host order).

    ``generator(n)`` must return a host graph with at most n vertices; the
    fit uses the actual host orders since generators may undershoot the
    requested size. Sizes must be strictly increasing with at least three
    points. Zero counts make the log undefined and are reported per size;
    hosts that all have one order leave no spread to fit and are refused.
    Every host and the denominator inj(h, h) are counted over one
    enumeration of h's spasm, and ``work_cap`` is one total for the call.
    """
    sizes = tuple(sizes)
    if len(sizes) < 3 or any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise PreconditionError("need at least 3 strictly increasing sizes")
    hosts = [generator(n) for n in sizes]
    orders = tuple(host.n for host in hosts)
    if len(set(orders)) < 2:
        raise PreconditionError(
            f"host orders {','.join(map(str, orders))} all equal: log-log slope undefined")
    counts = _count_copies(h, hosts, _Budget(work_cap))
    zero_at = [n for n, c in zip(sizes, counts) if c == 0]
    if zero_at:
        raise PreconditionError(
            f"zero copy count at sizes {zero_at}: log-log slope undefined")
    xs = [math.log(n) for n in orders]
    ys = [math.log(c) for c in counts]
    xbar = sum(xs) / len(xs)
    ybar = sum(ys) / len(ys)
    sxx = sum((x - xbar) ** 2 for x in xs)
    sxy = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
    slope = sxy / sxx
    return ScalingReport(sizes, orders, tuple(counts), slope)

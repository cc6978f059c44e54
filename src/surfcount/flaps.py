"""Separations, flaps, the flap number, and the strongly-non-planar test.

A separation is stored canonically as a pair (X, S): the cut set X with
|X| <= 2 and the interior S, a union of connected components of H - X with
a non-empty complement. Whether a side is a flap (its graph plus a clique
on X is planar) and whether two separations are independent both depend
only on (X, S), never on how edges inside X are assigned to sides, so the
canonical form loses nothing. The brute-force oracle in the test suite
re-derives everything from the raw definition and confirms the collapse.

Every entry point that needs the candidate flaps walks the cut sets once
(``_search``). Edge counts and H's non-planar blocks decide most
single-component sides; the rest are pending, and a planarity test decides
one only when the answer can change the result: the solver walks the sides
by interior size and tests a pending side only when its interior could be
inclusion-minimal, or, for a family, could extend to a maximum family.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import CapExceeded, InternalInvariantError, PreconditionError
from .graph import (
    Graph, add_clique, as_vertex_set, blocks, induced_subgraph, is_connected, spanning_forest)
from .planarity import is_planar

DEFAULT_FLAP_SIZE_CAP = 16


@dataclass(frozen=True, order=True)
class Separation:
    """Canonical (X, S) pair: cut set X, interior S (the A-side private
    vertices). Edge assignment inside X is intentionally not stored."""

    x: tuple[int, ...]
    s: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(sorted(self.x)))
        object.__setattr__(self, "s", tuple(sorted(self.s)))

    def serialize(self) -> str:
        return f"X=[{','.join(map(str, self.x))}] S=[{','.join(map(str, self.s))}]"


def validate_separation(h: Graph, sep: Separation) -> None:
    """Raise PreconditionError unless sep satisfies the structural
    invariants: |X| <= 2, S nonempty and disjoint from X, S a union of
    components of H - X, complement nonempty."""
    x = as_vertex_set(sep.x, h.n)
    s = as_vertex_set(sep.s, h.n)
    if len(x) > 2:
        raise PreconditionError(f"cut set {x} larger than 2")
    if not s:
        raise PreconditionError("empty interior")
    if set(x) & set(s):
        raise PreconditionError("cut set and interior overlap")
    if len(x) + len(s) >= h.n:
        raise PreconditionError("separation has empty far side")
    sset = set(s)
    xset = set(x)
    for v in s:
        for w in h.adj[v]:
            if w not in sset and w not in xset:
                raise PreconditionError(
                    f"interior is not a union of components: edge {v}-{w} escapes")


def _side_is_planar(h: Graph, sep: Separation) -> bool:
    """Whether A+ for the side (X, S), the induced graph on X union S with
    every edge inside X added, is planar: one left-right test."""
    verts = sorted(set(sep.x) | set(sep.s))
    index = {v: i for i, v in enumerate(verts)}
    return is_planar(add_clique(induced_subgraph(h, verts), [index[v] for v in sep.x]))


def is_flap(h: Graph, sep: Separation) -> bool:
    """True iff the side graph plus a clique on the cut set is planar."""
    validate_separation(h, sep)
    return _side_is_planar(h, sep)


def _cut_sets(h: Graph):
    yield ()
    for i in range(h.n):
        yield (i,)
    for pair in combinations(range(h.n), 2):
        yield pair


def _certain(n: int, m: int, c: int) -> bool | None:
    """Planarity of a graph with n vertices, m edges and c components when
    counts alone settle it, else None. Every non-planar graph contains a
    subdivided K5 or K3,3 (Kuratowski 1930), so its circuit rank m - n + c
    is at least 4: rank cannot grow in a subgraph and subdivision keeps it."""
    if n <= 4 or m - n + c <= 3:
        return True
    if m > 3 * n - 6:
        return False
    return None


def _nonplanar_blocks(h: Graph, adjm: list[int]) -> list[int]:
    """The vertex masks of H's non-planar blocks. Counts settle a block or
    one planarity test does; H[B] is the block B itself, since an edge
    inside B lies in B."""
    bad = []
    for block in blocks(h):
        mask = sum(1 << v for v in block)
        m = sum((adjm[v] & mask).bit_count() for v in block) // 2
        planar = _certain(len(block), m, 1)
        if planar is None:
            planar = is_planar(induced_subgraph(h, block))
        if not planar:
            bad.append(mask)
    return bad


def _mask_components(adjm: list[int], alive: int) -> list[tuple[int, tuple[int, ...]]]:
    """The components of the graph with adjacency masks ``adjm`` induced on
    the vertex mask ``alive``, ordered by least member, each as its vertex
    mask and its sorted vertices. A vertex leaves ``alive`` when reached."""
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
        members.sort()
        comps.append((comp, tuple(members)))
    return comps


def _search(h: Graph, first: bool = False,
            ) -> tuple[list[tuple[Separation, bool | None]], bool]:
    """One pass over the cut sets: the single-component sides that are not
    ruled non-planar, in enumeration order, each with True when it is
    planar and None when it is pending, and whether any cut set separates
    H at all. With ``first`` the pass stops at the first planar side.

    A graph is planar exactly when each of its blocks is. For |X| <= 1 the
    side is a union of H's blocks, and for |X| = 2 with a member of X that
    has no neighbour in S it is such a union plus a pendant or separate
    edge; so then the side is planar exactly when no non-planar block of H
    lies inside X union S. Counts decide most other sides, and the rest
    are pending: no planarity test runs here."""
    adjm = [sum(1 << w for w in nbrs) for nbrs in h.adj]
    bad = _nonplanar_blocks(h, adjm)
    everything = (1 << h.n) - 1
    sides: list[tuple[Separation, bool | None]] = []
    separable = False
    for x in _cut_sets(h):
        xmask = sum(1 << v for v in x)
        comps = _mask_components(adjm, everything & ~xmask)
        if len(comps) < 2:
            continue
        separable = True
        for smask, s in comps:
            vmask = xmask | smask
            touching = sum(1 for v in x if adjm[v] & smask)
            m = sum((adjm[v] & vmask).bit_count() for v in x + s) // 2
            if len(x) == 2 and not adjm[x[0]] >> x[1] & 1:
                m += 1
            planar = _certain(len(x) + len(s), m, 2 if x and not touching else 1)
            if planar is None:
                if any(not b & ~vmask for b in bad):
                    planar = False
                elif touching < 2:
                    planar = True
            if planar is not False:
                sides.append((Separation(x, s), planar))
                if planar and first:
                    return sides, separable
    return sides, separable


def enumerate_candidate_flaps(h: Graph) -> list[Separation]:
    """All canonical flap candidates: (X, S) with S a single component of
    H - X, non-empty complement, and planar clique-completed side. Ordered
    by X lexicographically (size first), then by S's smallest member."""
    if h.n < 2:
        raise PreconditionError("need at least 2 vertices")
    return [sep for sep, planar in _search(h)[0] if planar or _side_is_planar(h, sep)]


def _item(h: Graph, s: tuple[int, ...]) -> tuple[int, int]:
    """The packing item of the interior s: its vertex mask, and the mask of
    s and its neighbours. Independence of two flaps depends only on their
    interiors: disjoint, with no edge between."""
    mask = sum(1 << v for v in s)
    block = mask
    for v in s:
        for w in h.adj[v]:
            block |= 1 << w
    return mask, block


def _minimal_interiors(h: Graph, sides: list[tuple[Separation, bool | None]],
                       ) -> tuple[list[bool | None], list[tuple[int, int]], list[Separation]]:
    """Each side's planarity, and the inclusion-minimal candidate interiors
    as packing items in order of their first candidate, with that
    candidate. The sides are walked by interior size, so every interior
    strictly inside one has been decided when it comes up, and comparing
    it against the minimal interiors found so far is enough: each
    candidate interior contains one. A pending side is tested only when
    its interior strictly contains none of them, so it could be minimal;
    the others stay None."""
    planar = [p for _, p in sides]
    masks = [sum(1 << v for v in sep.s) for sep, _ in sides]
    minimal: set[int] = set()
    for i in sorted(range(len(sides)), key=lambda i: len(sides[i][0].s)):
        mask = masks[i]
        if mask not in minimal and any(not other & ~mask for other in minimal):
            continue
        if planar[i] is None:
            planar[i] = _side_is_planar(h, sides[i][0])
        if planar[i]:
            minimal.add(mask)
    firsts: dict[tuple[int, ...], Separation] = {}
    for (sep, _), p, mask in zip(sides, planar, masks):
        if p and mask in minimal:
            firsts.setdefault(sep.s, sep)
    return planar, [_item(h, s) for s in firsts], list(firsts.values())


def _valid_first(h: Graph, sides: list[tuple[Separation, bool | None]],
                 planar: list[bool | None], items: list[tuple[int, int]],
                 firsts: list[Separation],
                 ) -> tuple[int, list[Separation], dict[tuple[int, ...], list[int]]]:
    """The flap number of a graph with candidates, the candidates that are
    valid first members: those whose interior extends to some maximum
    independent family (extension depends only on the interior), and each
    interior's packing with it forced, by interior. A pending side is
    tested only when its interior's packing, forced as if it were an item,
    reaches the flap number: otherwise it is out of the pool either way."""
    packings = {first.s: _max_packing(items, item) for first, item in zip(firsts, items)}
    # a maximum packing holds minimal items only, and each one's forced
    # packing is as large, so the largest of theirs is the maximum
    k = 1 + max(map(len, packings.values()))
    pool = []
    for i, (sep, _) in enumerate(sides):
        if planar[i] is False:
            continue
        if sep.s not in packings:
            packings[sep.s] = _max_packing(items, _item(h, sep.s))
        if len(packings[sep.s]) + 1 == k and (planar[i] or _side_is_planar(h, sep)):
            pool.append(sep)
    return k, pool, packings


def _max_packing(items: list[tuple[int, int]],
                 forced: tuple[int, int] | None = None) -> list[int]:
    """Maximum set of mutually compatible items (i compatible with j iff
    mask_i & block_j == 0), as indices into ``items``, the
    inclusion-minimal interiors: a member with a larger interior can be
    swapped for a contained one without disturbing the rest (interiors
    are distinct). Branch and bound in item order, each item tried in
    before out, so ties resolve to the lexicographically first maximum.
    ``forced`` is an item that the packing must be compatible with; it is
    not in the result. The minimal items compatible with it are the
    minimal ones among all its compatible items: an interior inside a
    compatible one is compatible too."""
    keep = range(len(items))
    if forced is not None:
        fmask, fblock = forced
        keep = [i for i in keep if not (items[i][0] & fblock) and not (items[i][1] & fmask)]
    pruned = [items[i] for i in keep]
    k = len(pruned)
    best: list[int] = []
    chosen: list[tuple[int, int]] = []  # each included position, and the mask blocked before it
    blocked = i = 0
    while True:
        if len(chosen) + (k - i) > len(best):
            if i == k:
                best = [pos for pos, _ in chosen]
            else:
                mask, block = pruned[i]
                if not (mask & blocked):
                    chosen.append((i, blocked))
                    blocked |= block
                i += 1
                continue
        if not chosen:
            break
        # the next untried branch leaves out the last included position
        i, blocked = chosen.pop()
        i += 1
    return [keep[i] for i in best]


def _check_size_cap(h: Graph, size_cap: int) -> None:
    if h.n > size_cap:
        raise CapExceeded("size_cap", f"flap_number cap is {size_cap} vertices, got {h.n}")


def _solve(h: Graph, size_cap: int, family: bool) -> tuple[list[Separation], int]:
    """The family ``flap_family_and_number`` picks ([] unless ``family``,
    and when there is no candidate flap) and the flap number, from one
    walk over the cut sets. The empty graph is refused: before the size
    cap for the number alone, after it when the family is wanted too."""
    if not (h.n or family):
        raise PreconditionError("flap number needs a non-empty graph")
    _check_size_cap(h, size_cap)
    if h.n < 2:
        if not h.n:
            raise PreconditionError("flap number needs a non-empty graph")
        return [], 1
    sides, separable = _search(h)
    planar, items, firsts = _minimal_interiors(h, sides)
    if not items:
        # every side is decided: one left pending contains a candidate's interior
        whole = is_planar(h)
        if separable and whole:
            # every small separation has both clique-completed sides
            # non-planar, which forces the graph itself non-planar
            raise InternalInvariantError(
                "planar graph with a small separation but no flap candidate")
        return [], int(whole)
    if not family:
        return [], len(_max_packing(items))
    k, pool, packings = _valid_first(h, sides, planar, items, firsts)
    side_sets = [set(c.x) | set(c.s) for c in pool]
    first = next((cand for pos, cand in enumerate(pool)
                  if not any(side_sets[pos] < other for other in side_sets)), None)
    if first is None:
        raise InternalInvariantError("no candidate flap is maximal by side inclusion")
    return [first] + [firsts[i] for i in packings[first.s]], k


def flap_number(h: Graph, size_cap: int = DEFAULT_FLAP_SIZE_CAP) -> int:
    """The maximum number of pairwise independent flaps; 1 for a planar
    graph with no small separation at all; 0 exactly for the strongly
    non-planar graphs."""
    return _solve(h, size_cap, family=False)[1]


def is_strongly_non_planar(h: Graph) -> bool:
    """Non-planar, and every small separation has both sides non-planar
    after completing the cut set to a clique. Single-component sides decide
    this: every side contains one, and planarity is subgraph-closed. The
    pending sides are tested, until one is planar, only when the walk
    finds no side that the search makes planar."""
    if h.n <= 4 or is_planar(h):
        return False
    sides = _search(h, first=True)[0]
    return not any(planar for _, planar in sides) and not any(
        _side_is_planar(h, sep) for sep, _ in sides)


def are_independent(h: Graph, a: Separation, b: Separation) -> bool:
    """Independence of two separations: disjoint interiors and no edge of
    H joining the interiors (the edge sets of the clique-stripped sides
    are then disjoint)."""
    validate_separation(h, a)
    validate_separation(h, b)
    sa, sb = set(a.s), set(b.s)
    if sa & sb:
        return False
    return not any(w in sb for v in sa for w in h.adj[v])


def flap_family_and_number(h: Graph, size_cap: int = DEFAULT_FLAP_SIZE_CAP,
                           ) -> tuple[list[Separation], int]:
    """A maximum pairwise-independent family of flaps whose first member is
    maximal (by side inclusion, the side being X union S) among candidates
    that extend to some maximum family, and ``flap_number(h)``, from one
    walk over the cut sets. Deterministic: ties resolve by candidate
    enumeration order. A non-empty family has the flap number as its
    length. The family is empty when the graph has no flap at all (flap
    number 0, or 1 for a planar graph with no small separation)."""
    return _solve(h, size_cap, family=True)


def flap_reduction(h: Graph, family: list[Separation],
                   size_cap: int = DEFAULT_FLAP_SIZE_CAP) -> Graph:
    """Remove the first flap's interior and complete its cut set to a
    clique. With a maximum independent family whose first member is
    maximal, the result's flap number drops by at least one."""
    if not family:
        raise PreconditionError("empty flap family")
    for sep in family:
        if not is_flap(h, sep):
            raise PreconditionError(f"{sep.serialize()} is not a flap")
    for i in range(len(family)):
        for j in range(i + 1, len(family)):
            if not are_independent(h, family[i], family[j]):
                raise PreconditionError("family not independent")
    _check_size_cap(h, size_cap)
    # the family's flaps each contain a single-component flap, since
    # planarity is closed under subgraphs, so candidates exist
    sides, _ = _search(h)
    k, pool, _ = _valid_first(h, sides, *_minimal_interiors(h, sides))
    if len(family) != k:
        raise PreconditionError(
            f"family of {len(family)} is not maximum (flap number {k})")
    first_side = set(family[0].x) | set(family[0].s)
    for cand in pool:
        if first_side < (set(cand.x) | set(cand.s)):
            raise PreconditionError("first member not maximal")
    remaining = sorted(set(range(h.n)) - set(family[0].s))
    index = {v: i for i, v in enumerate(remaining)}
    reduced = induced_subgraph(h, remaining)
    return add_clique(reduced, [index[v] for v in family[0].x])


# ---------------------------------------------------------------------------
# Trees: the low-degree stable-set invariant
# ---------------------------------------------------------------------------


def is_tree(t: Graph) -> bool:
    return t.n >= 1 and t.m == t.n - 1 and is_connected(t)


def forest_mis(t: Graph, allowed: set[int]) -> int:
    """Maximum stable set size in the subforest of t induced by
    ``allowed``, by dynamic programming up each search tree: every
    vertex, children first, adds its two best sizes into its parent. The
    induced subgraph must be a forest (true whenever t is)."""
    parent, order = spanning_forest(t.adj, (v for v in range(t.n) if v not in allowed))
    take = [1] * t.n  # best in v's subtree with v in the set
    skip = [0] * t.n  # and with v out of it
    total = 0
    for v in reversed(order):
        best = max(take[v], skip[v])
        p = parent[v]
        if p < 0:
            total += best
        else:
            take[p] += skip[v]
            skip[p] += best
    return total


def tree_beta(t: Graph) -> int:
    """Maximum stable set in the subforest induced by the vertices of
    degree at most 2."""
    if not is_tree(t):
        raise PreconditionError("input is not a tree")
    return forest_mis(t, {v for v in range(t.n) if t.degree(v) <= 2})

"""Separations, flaps, the flap number, and the strongly-non-planar test.

A separation is stored canonically as a pair (X, S): the cut set X with
|X| <= 2 and the interior S, a union of connected components of H - X with
a non-empty complement. Whether a side is a flap (its graph plus a clique
on X is planar) and whether two separations are independent depend only
on (X, S), not on how edges inside X go to sides, so the canonical form
loses nothing; the literal oracle in the tests confirms the collapse.

Every entry point that needs the candidate flaps walks the cut sets once
(``_search``), in n ``lowpoints`` searches: one of H, which also gives
H's blocks, and one of each H - x, x < n - 1. Edge counts and H's
non-planar blocks decide most single-component sides; a pending side gets
a planarity test only when its interior could be inclusion-minimal or,
for a family, extend to a maximum family.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import DEFAULT_FLAP_SIZE_CAP, CapExceeded, InternalInvariantError, PreconditionError
from .graph import (
    Graph, add_clique, as_vertex_set, blocks, induced_subgraph, is_connected, lowpoints,
    spanning_forest)
from .planarity import is_planar

Side = tuple[tuple[int, ...], int, bool | None]  # X, the interior's mask, planar or pending


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
    inside = set(s) | set(x)
    escape = next((f"{v}-{w}" for v in s for w in h.adj[v] if w not in inside), None)
    if escape:
        raise PreconditionError(f"interior is not a union of components: edge {escape} escapes")


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


def _nonplanar_blocks(h: Graph, adjm: list[int], search: tuple) -> list[int]:
    """The vertex masks of H's non-planar blocks, from ``search``, the
    ``lowpoints`` search of H. A block of all of H is skipped: each side
    leaves a non-empty far side, so no X union S holds it. Counts settle a
    block or one planarity test does; H[B] is the block B itself, since an
    edge inside B lies in B."""
    bad = []
    for block in blocks(h, search):
        if len(block) == h.n:
            continue
        mask = sum(1 << v for v in block)
        m = sum((adjm[v] & mask).bit_count() for v in block) // 2
        planar = _certain(len(block), m, 1)
        if planar is None:
            planar = is_planar(induced_subgraph(h, block))
        if not planar:
            bad.append(mask)
    return bad


def _splits(h: Graph, search: tuple):
    """Each cut set X of at most two vertices that separates H, in
    enumeration order, with the components of H - X by least member. A
    vertex set is one integer, its degree sum in H above its mask, so the
    set of a disjoint union is the sum. ``search``, the ``lowpoints``
    search of H, gives X = () and (y,), one search of H - x each (x, y)
    with y > x, so x < n - 1: n - 1 more searches, lazily. Summed up in
    reverse preorder, a search gives its trees, and for each y the
    subtrees of y's children that reach no higher than y, which deleting y
    cuts off from its tree."""
    n = h.n
    own = [len(nbrs) << n | 1 << v for v, nbrs in enumerate(h.adj)]
    for x in range(-1, n - 1):
        order, parent, pre, low = search if x < 0 else lowpoints(h.adj, (x,))
        below = own[:]  # each vertex's subtree, once its children are summed in
        trees, cuts = [], {}
        for v in reversed(order):
            p = parent[v]
            if p < 0:
                trees.append(below[v])
            else:
                below[p] += below[v]
                if low[v] >= pre[p]:
                    cuts.setdefault(p, []).append(below[v])
        trees.reverse()
        if x < 0 and len(trees) > 1:
            yield (), trees
        for y in range(x + 1, n):
            if len(trees) == 1 and y not in cuts:
                continue  # deleting y leaves one component or none
            comps, cut = [], cuts.get(y, [])
            for tree in trees:
                if tree >> y & 1:  # y's tree falls into its cut-off subtrees and the rest
                    comps += cut
                    tree -= sum(cut) + own[y]
                if tree:
                    comps.append(tree)
            if len(comps) > 1:
                comps.sort(key=lambda c: c & -c)  # the least member's bit
                yield (y,) if x < 0 else (x, y), comps


def _search(h: Graph, first: bool = False) -> tuple[list[Side], bool]:
    """One walk over the cut sets: the single-component sides (X, S) not
    ruled non-planar, in enumeration order, each True if planar or None if
    pending, and whether any cut set separates H; with ``first`` it stops
    at the first planar side. For |X| <= 1, or |X| = 2 with a member of X
    that has no neighbour in S, the side is a union of H's blocks plus at
    most a pendant or separate edge: planar unless a non-planar block of H
    lies in X union S. Counts decide most other sides: S is a component of
    H - X, so m(A+) is half of S's degree sum plus its edges into X, plus
    X's edge. The rest are pending, with no planarity test run here."""
    adjm = [sum(1 << w for w in nbrs) for nbrs in h.adj]
    search = lowpoints(h.adj)
    bad = _nonplanar_blocks(h, adjm, search)
    sides: list[Side] = []
    separable = False
    full = (1 << h.n) - 1
    for x, comps in _splits(h, search):
        separable = True
        xmask = sum(1 << v for v in x)
        for comp in comps:
            smask, total = comp & full, comp >> h.n
            into = [(adjm[v] & smask).bit_count() for v in x]
            touching = len(x) - into.count(0)
            m = (total + sum(into)) // 2 + (len(x) == 2)
            planar = _certain(len(x) + smask.bit_count(), m, 2 if x and not touching else 1)
            if planar is None:
                if any(not b & ~(xmask | smask) for b in bad):
                    planar = False
                elif touching < 2:
                    planar = True
            if planar is not False:
                sides.append((x, smask, planar))
                if planar and first:
                    return sides, separable
    return sides, separable


def _separation(x: tuple[int, ...], mask: int) -> Separation:
    return Separation(x, tuple(v for v in range(mask.bit_length()) if mask >> v & 1))


def enumerate_candidate_flaps(h: Graph) -> list[Separation]:
    """All canonical flap candidates: (X, S) with S a single component of
    H - X, non-empty complement, and planar clique-completed side. Ordered
    by X lexicographically (size first), then by S's smallest member."""
    if h.n < 2:
        raise PreconditionError("need at least 2 vertices")
    seps = ((_separation(x, mask), planar) for x, mask, planar in _search(h)[0])
    return [sep for sep, planar in seps if planar or _side_is_planar(h, sep)]


def _item(h: Graph, x: tuple[int, ...], mask: int) -> tuple[int, int]:
    """The packing item of the side (X, S): S's mask, and the mask of S and
    its neighbours, which lie in X. Two flaps are independent when their
    items are compatible."""
    return mask, mask | sum(1 << v for v in x if any(mask >> w & 1 for w in h.adj[v]))


def _minimal_interiors(h: Graph, sides: list[Side]) -> tuple[list, list, list]:
    """Each side's planarity, and the inclusion-minimal candidate interiors
    as packing items, by first candidate, with that side's (X, mask). The
    sides are walked by interior size, so every interior strictly inside
    one is decided when it comes up, and each candidate interior contains
    a minimal one found so far. A pending side is tested only when its
    interior strictly contains none of them; the others stay None."""
    planar = [p for _, _, p in sides]
    minimal: set[int] = set()
    for i in sorted(range(len(sides)), key=lambda i: sides[i][1].bit_count()):
        x, mask, _ = sides[i]
        if mask not in minimal and any(not other & ~mask for other in minimal):
            continue
        if planar[i] is None:
            planar[i] = _side_is_planar(h, _separation(x, mask))
        if planar[i]:
            minimal.add(mask)
    firsts: dict[int, tuple[tuple[int, ...], int]] = {}
    for (x, mask, _), p in zip(sides, planar):
        if p and mask in minimal:
            firsts.setdefault(mask, (x, mask))
    return planar, [_item(h, *side) for side in firsts.values()], list(firsts.values())


def _valid_first(h: Graph, sides: list[Side], planar: list[bool | None],
                 items: list[tuple[int, int]]) -> tuple[int, list, dict[int, list[int]]]:
    """The flap number of a graph with candidates, the valid first members
    as (X, interior mask): those whose interior extends to some maximum
    independent family (which depends only on the interior), and each
    interior's forced packing, by mask. A pending side is tested only when
    its interior's packing, forced as if an item, reaches the flap number:
    otherwise it is out of the pool either way."""
    packings = {item[0]: _max_packing(items, item) for item in items}
    # a maximum packing holds minimal items only, and each one's forced
    # packing is as large, so the largest of theirs is the maximum
    k = 1 + max(map(len, packings.values()))
    pool = []
    for (x, mask, _), p in zip(sides, planar):
        if p is False:
            continue
        if mask not in packings:
            packings[mask] = _max_packing(items, _item(h, x, mask))
        if len(packings[mask]) + 1 == k and (p or _side_is_planar(h, _separation(x, mask))):
            pool.append((x, mask))
    return k, pool, packings


def _max_packing(items: list[tuple[int, int]],
                 forced: tuple[int, int] | None = None) -> list[int]:
    """Maximum set of mutually compatible items (i compatible with j iff
    mask_i & block_j == 0), as indices into ``items``, the distinct
    inclusion-minimal interiors: a member can be swapped for an interior
    inside it. Branch and bound in item order, each item tried in before
    out, so ties resolve to the lexicographically first maximum. The
    packing must be compatible with the item ``forced``, which it leaves
    out; the minimal items compatible with it are the minimal ones among
    its compatible items, as an interior inside one is compatible too."""
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


def _inside(a: int, b: int) -> bool:
    return a != b and not a & ~b  # the mask a is a proper subset of b


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
    k, pool, packings = _valid_first(h, sides, planar, items)
    side_masks = [mask | sum(1 << v for v in x) for x, mask in pool]
    first = next((cand for cand, side in zip(pool, side_masks)
                  if not any(_inside(side, other) for other in side_masks)), None)
    if first is None:
        raise InternalInvariantError("no candidate flap is maximal by side inclusion")
    return [_separation(*side) for side in [first] + [firsts[i] for i in packings[first[1]]]], k


def flap_number(h: Graph, size_cap: int = DEFAULT_FLAP_SIZE_CAP) -> int:
    """The maximum number of pairwise independent flaps; 1 for a planar
    graph with no small separation at all; 0 exactly for the strongly
    non-planar graphs."""
    return _solve(h, size_cap, family=False)[1]


def is_strongly_non_planar(h: Graph) -> bool:
    """Non-planar, and every small separation has both sides non-planar
    after completing the cut set to a clique. Single-component sides decide
    this, as each side contains one and planarity is subgraph-closed. The
    pending sides are tested, until one is planar, only when none is."""
    if h.n <= 4 or is_planar(h):
        return False
    sides = _search(h, first=True)[0]
    return not any(planar for *_, planar in sides) and not any(
        _side_is_planar(h, _separation(x, mask)) for x, mask, _ in sides)


def are_independent(h: Graph, a: Separation, b: Separation) -> bool:
    """Independence of two separations: disjoint interiors and no edge of
    H joining the interiors (the edge sets of the clique-stripped sides
    are then disjoint)."""
    validate_separation(h, a)
    validate_separation(h, b)
    sa, sb = set(a.s), set(b.s)
    return not sa & sb and not any(w in sb for v in sa for w in h.adj[v])


def flap_family_and_number(h: Graph, size_cap: int = DEFAULT_FLAP_SIZE_CAP,
                           ) -> tuple[list[Separation], int]:
    """A maximum pairwise-independent family of flaps whose first member is
    maximal (by side inclusion, the side being X union S) among candidates
    that extend to some maximum family, and ``flap_number(h)``, from one
    walk over the cut sets. Ties resolve by candidate enumeration order. A
    non-empty family has the flap number as its length; the family is
    empty when the graph has no flap (flap number 0, or 1 for a planar
    graph with no small separation)."""
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
    if not all(are_independent(h, a, b) for a, b in combinations(family, 2)):
        raise PreconditionError("family not independent")
    _check_size_cap(h, size_cap)
    # the family's flaps each contain a single-component flap, since
    # planarity is closed under subgraphs, so candidates exist
    sides, _ = _search(h)
    k, pool, _ = _valid_first(h, sides, *_minimal_interiors(h, sides)[:2])
    if len(family) != k:
        raise PreconditionError(
            f"family of {len(family)} is not maximum (flap number {k})")
    side = sum(1 << v for v in family[0].x + family[0].s)
    if any(_inside(side, mask | sum(1 << v for v in x)) for x, mask in pool):
        raise PreconditionError("first member not maximal")
    remaining = sorted(set(range(h.n)) - set(family[0].s))
    index = {v: i for i, v in enumerate(remaining)}
    return add_clique(induced_subgraph(h, remaining), [index[v] for v in family[0].x])


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

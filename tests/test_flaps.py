import hashlib
import random
from itertools import combinations
from pathlib import Path

import pytest

from support import (
    eager_flap_reduction,
    eager_flap_solve,
    icosahedron,
    interior_item,
    literal_flap_number,
    literal_strongly_non_planar,
    random_connected_graph,
    random_glued_graph,
    random_graph,
    random_tree,
    slow_flap_candidates,
    slow_flap_sides,
    slow_max_packing,
)
from surfcount import flaps
from surfcount.cli import main
from surfcount.constructions import lower_bound_graph
from surfcount.errors import CapExceeded, PreconditionError, SurfcountError
from surfcount.flaps import (
    Separation,
    are_independent,
    enumerate_candidate_flaps,
    flap_family_and_number,
    flap_number,
    flap_reduction,
    is_flap,
    is_strongly_non_planar,
    tree_beta,
)
from surfcount.graph import (
    Graph, blocks, complete_graph, connected_components, cycle_graph, induced_subgraph,
    is_connected, path_graph, serialize_graph)
from surfcount.planarity import is_planar

K5_PENDANT = Graph.build(6, [(i, j) for i in range(5) for j in range(i + 1, 5)] + [(0, 5)])
# two K5s sharing the edge 01: the one separation has two non-planar sides
TWO_K5 = Graph.build(8, [(u, v) for side in ((0, 1, 2, 3, 4), (0, 1, 5, 6, 7))
                         for u, v in combinations(side, 2)])
# K5 and an octahedron sharing the edge 01: the one cut set {0, 1} leaves
# the octahedron's side pending, and it is the only flap
K5_OCTAHEDRON = Graph.build(9, list(complete_graph(5).edges) + [
    (u, v) for u, v in combinations((0, 1, 5, 6, 7, 8), 2) if {u, v} not in ({0, 5}, {1, 6}, {7, 8})])


def test_candidate_examples():
    assert enumerate_candidate_flaps(complete_graph(3)) == []
    cands = enumerate_candidate_flaps(path_graph(3))
    assert cands == [Separation((1,), (0,)), Separation((1,), (2,))]
    assert Separation((0,), (5,)) in enumerate_candidate_flaps(K5_PENDANT)


def test_is_flap():
    assert is_flap(K5_PENDANT, Separation((0,), (5,)))
    # K5 side with a two-vertex cut: the completed side is K5 again
    assert not is_flap(K5_PENDANT, Separation((0, 1), (2, 3, 4)))
    # small sides are always flaps
    assert is_flap(path_graph(4), Separation((1,), (0,)))
    with pytest.raises(PreconditionError):
        is_flap(path_graph(4), Separation((1,), (0, 2)))  # not a component union


def test_independence_examples():
    p5 = path_graph(5)
    assert are_independent(p5, Separation((1,), (0,)), Separation((3,), (4,)))
    p3 = path_graph(3)
    assert are_independent(p3, Separation((1,), (0,)), Separation((1,), (2,)))
    p4 = path_graph(4)
    assert not are_independent(p4, Separation((1,), (0,)), Separation((0, 2), (1,)))
    sep = Separation((1,), (0,))
    assert not are_independent(p3, sep, sep)


def test_separation_refusals():
    """is_flap and are_independent refuse a pair that is not a separation."""
    p4 = path_graph(4)
    good = Separation((1,), (0,))
    for sep, message in ((Separation((0, 1, 2), (3,)), "cut set .* larger than 2"),
                         (Separation((1,), ()), "empty interior"),
                         (Separation((1,), (0, 1)), "overlap"),
                         (Separation((1,), (0, 2, 3)), "empty far side")):
        with pytest.raises(PreconditionError, match=message):
            is_flap(p4, sep)
        with pytest.raises(PreconditionError, match=message):
            are_independent(p4, good, sep)


def test_flap_number_examples():
    assert flap_number(complete_graph(4)) == 1
    assert flap_number(complete_graph(5)) == 0
    assert flap_number(path_graph(5)) == 3
    assert flap_number(complete_graph(1)) == 1
    for s in range(2, 9):
        assert flap_number(complete_graph(s)) == (1 if s <= 4 else 0)


def test_flap_number_cap():
    with pytest.raises(CapExceeded):
        flap_number(Graph.build(17, []))
    empty, k1 = Graph.build(0, []), Graph.build(1, [])
    with pytest.raises(PreconditionError):
        flap_number(empty)
    with pytest.raises(PreconditionError):
        flap_family_and_number(empty)
    assert flap_number(k1) == 1 and flap_family_and_number(k1) == ([], 1)
    # the number alone refuses the empty graph before the size cap; a call
    # that wants the family checks the cap first
    with pytest.raises(PreconditionError):
        flap_number(empty, size_cap=-1)
    with pytest.raises(CapExceeded):
        flap_family_and_number(empty, size_cap=-1)


def test_strongly_non_planar():
    assert is_strongly_non_planar(complete_graph(5))
    assert not is_strongly_non_planar(complete_graph(4))
    assert not is_strongly_non_planar(path_graph(6))
    assert not is_strongly_non_planar(K5_PENDANT)
    assert not is_strongly_non_planar(K5_OCTAHEDRON)


def test_tree_beta_examples():
    assert tree_beta(path_graph(5)) == 3
    star = Graph.build(4, [(0, 1), (0, 2), (0, 3)])
    assert tree_beta(star) == 3
    assert tree_beta(complete_graph(2)) == 1
    with pytest.raises(PreconditionError):
        tree_beta(complete_graph(3))


def test_tree_beta_brute_force():
    def brute(t):
        low = [v for v in range(t.n) if t.degree(v) <= 2]
        best = 0
        for r in range(len(low), -1, -1):
            for sub in combinations(low, r):
                if all(not t.has_edge(a, b) for a in sub for b in sub if a < b):
                    return r
        return best

    rng = random.Random(77)
    for _ in range(80):
        t = random_tree(rng, rng.randint(1, 11))
        assert tree_beta(t) == brute(t)


def test_flap_number_matches_literal_oracle_exhaustive():
    for n in range(1, 6):
        pairs = list(combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            g = Graph.build(n, [e for i, e in enumerate(pairs) if bits >> i & 1])
            f = flap_number(g)
            assert f == literal_flap_number(g), sorted(g.edges)
            assert (f == 0) == is_strongly_non_planar(g)


def test_flap_number_matches_literal_oracle_random():
    rng = random.Random(8888)
    for _ in range(120):
        g = random_graph(rng, rng.choice([6, 7, 8, 9]),
                         rng.choice([0.15, 0.3, 0.45, 0.6]))
        f = flap_number(g)
        assert f == literal_flap_number(g), sorted(g.edges)
        assert (f == 0) == literal_strongly_non_planar(g)
        assert (f == 0) == is_strongly_non_planar(g)


def test_tree_flap_number_equals_beta():
    rng = random.Random(1001)
    for _ in range(60):
        t = random_tree(rng, rng.randint(2, 12))
        assert flap_number(t) == tree_beta(t)


def test_family_and_reduction_examples():
    p3 = path_graph(3)
    fam = flap_family_and_number(p3)[0]
    assert [(s.x, s.s) for s in fam] == [((1,), (0,)), ((1,), (2,))]
    red = flap_reduction(p3, fam)
    assert red.n == 2 and red.m == 1

    fam = flap_family_and_number(K5_PENDANT)[0]
    red = flap_reduction(K5_PENDANT, fam)
    assert red.n == 5 and red.m == 10  # K5 back
    assert flap_number(red) == 0

    assert flap_family_and_number(complete_graph(4)) == ([], 1)


def test_flap_reduction_validation():
    p5 = path_graph(5)
    with pytest.raises(PreconditionError, match="empty"):
        flap_reduction(p5, [])
    with pytest.raises(PreconditionError, match="independent"):
        flap_reduction(p5, [Separation((1,), (0,)), Separation((0, 2), (1,)),
                            Separation((3,), (4,))])
    with pytest.raises(PreconditionError, match="not maximum"):
        flap_reduction(p5, [Separation((1,), (0,))])
    fam = flap_family_and_number(p5)[0]
    # demote the first member to a non-maximal one
    small_first = [fam[1], fam[0]] + fam[2:]
    with pytest.raises(PreconditionError, match="maximal"):
        flap_reduction(p5, small_first)


def test_flap_reduction_property_random():
    rng = random.Random(2718)
    produced = 0
    while produced < 50:
        g = random_graph(rng, rng.randint(4, 9), rng.choice([0.2, 0.35, 0.5]))
        k = flap_number(g)
        if k < 1:
            continue
        fam = flap_family_and_number(g)[0]
        if not fam:
            continue
        produced += 1
        assert flap_number(flap_reduction(g, fam)) <= k - 1


def test_serialization():
    assert Separation((0, 2), (1,)).serialize() == "X=[0,2] S=[1]"
    assert Separation((), (0, 1)).serialize() == "X=[] S=[0,1]"


def test_one_candidate_search_per_call(monkeypatch, tmp_path):
    """The family CLI, flap_reduction and lower_bound_graph each walk the
    cut sets once, and test only the pending sides the answer depends on;
    enumerate_candidate_flaps decides every side. The counts are planarity
    tests: of H's blocks that counts do not settle, of sides, of
    flap_reduction's is_flap check of each member it is given, and, for
    two K5s sharing an edge, which have no flap, of the whole graph."""
    calls = []
    monkeypatch.setattr(flaps, "is_planar", lambda g: calls.append(g.n) or is_planar(g))
    path = tmp_path / "g.g"
    # per graph: enumeration, family CLI, flap_reduction, lower_bound_graph
    pinned = ((path_graph(5), (0, 0, 3, 0)), (K5_PENDANT, (0, 0, 1, 0)),
              (random_connected_graph(random.Random(5), 8, 0.2), (3, 3, 5, 3)),
              (TWO_K5, (0, 1, None, 1)))
    for g, counts in pinned:
        path.write_text(serialize_graph(g))
        seen = []
        enumerate_candidate_flaps(g)
        seen.append(len(calls))
        family = flap_family_and_number(g)[0]
        assert bool(family) == (g is not TWO_K5)
        calls.clear()
        assert main(["flap-number", "--family", str(path)]) == 0
        seen.append(len(calls))
        calls.clear()
        if family:
            flap_reduction(g, family)
            seen.append(len(calls))
            calls.clear()
            lower_bound_graph(g, 4 * g.n)
        else:
            seen.append(None)
            with pytest.raises(PreconditionError, match="strongly non-planar"):
                lower_bound_graph(g, 4 * g.n)
        seen.append(len(calls))
        calls.clear()
        assert tuple(seen) == counts, sorted(g.edges)


def test_family_of_a_planar_graph_tests_few_sides(monkeypatch):
    """A planar 16-vertex graph leaves 34 sides pending after the search,
    and enumerating the candidates tests them all; the family tests one,
    since the rest contain a smaller candidate interior or cannot extend
    to a maximum family."""
    g = random_connected_graph(random.Random(53), 16, 0.12)
    assert g.n == 16 and is_planar(g)
    assert sum(planar is None for *_, planar in flaps._search(g)[0]) == 34
    tested = []
    decide = flaps._side_is_planar
    monkeypatch.setattr(flaps, "_side_is_planar",
                        lambda h, sep: tested.append(sep) or decide(h, sep))
    enumerate_candidate_flaps(g)
    assert len(tested) == 34
    tested.clear()
    family, number = flap_family_and_number(g)
    assert (len(family), number) == (5, 5)
    assert len(tested) == 1


def _connected(g):
    """g with each component after the first joined by an edge from its
    least vertex to vertex 0."""
    return Graph.build(g.n, list(g.edges) + [(0, c[0]) for c in connected_components(g)[1:]])


def test_search_matches_one_test_per_side_oracle():
    """The search's sides (X, interior mask, planar or pending) and
    separable flag against the walk with one component search per cut set
    (``slow_flap_sides``); its candidates, and the flap number, family,
    strongly-non-planar flag and reduction built on them, against the
    search with one planarity test per side and the solver that packs
    every candidate interior (``eager_flap_solve``). Seeded graphs of at
    most 16 vertices: K5 and K3,3 pieces (whole, less an edge, subdivided)
    glued to planar pieces at 0, 1 or 2 vertices, with isolated vertices,
    and random sparse, dense and disconnected graphs; then 40 connected
    graphs of 17 to 60 vertices, past the size cap, for the search alone."""
    rng = random.Random(1930)
    graphs = [random_glued_graph(rng, rng.choice([8, 12, 16])) for _ in range(90)]
    graphs += [random_graph(rng, rng.randint(2, 12), rng.choice([0.15, 0.3, 0.5]))
               for _ in range(30)]
    graphs += [random_connected_graph(rng, rng.randint(10, 16), rng.choice([0.05, 0.12]))
               for _ in range(20)]
    k33 = Graph.build(6, [(i, j) for i in range(3) for j in range(3, 6)])
    graphs += [complete_graph(s) for s in range(2, 9)] + [
        k33, TWO_K5, K5_PENDANT, K5_OCTAHEDRON, cycle_graph(7), icosahedron().graph,
        Graph.build(9, list(k33.edges) + [(u, v) for u, v in combinations((0, 3, 6, 7, 8), 2)])]
    seen = {"snp": 0, "nonplanar block": 0, "planar flapless": 0, "disconnected": 0,
            "isolated": 0, "family": 0}
    for g in graphs:
        cands, separable = slow_flap_candidates(g)
        sides, found = flaps._search(g)
        assert (sides, found) == slow_flap_sides(g), sorted(g.edges)
        seps = [(Separation(x, [v for v in range(g.n) if mask >> v & 1]), planar)
                for x, mask, planar in sides]
        assert found == separable
        assert [sep for sep, _ in seps if sep in cands] == cands, sorted(g.edges)
        assert all(sep in cands for sep, planar in seps if planar)
        assert enumerate_candidate_flaps(g) == cands
        planar = is_planar(g)
        snp = is_strongly_non_planar(g)
        assert snp == (g.n > 4 and not planar and not cands)
        family, number = flaps._solve(g, flaps.DEFAULT_FLAP_SIZE_CAP, family=True)
        assert (number, bool(family)) == ((len(family), True) if cands else (int(planar), False))
        assert family == [] or set(family) <= set(cands)
        assert flap_number(g) == number
        assert flap_family_and_number(g) == (family, number)
        _check_against_eager(g)
        comps = connected_components(g)
        seen["snp"] += snp
        seen["nonplanar block"] += not all(is_planar(induced_subgraph(g, b)) for b in blocks(g))
        seen["planar flapless"] += planar and not cands
        seen["disconnected"] += len(comps) > 1
        seen["isolated"] += any(len(c) == 1 for c in comps)
        seen["family"] += bool(family)
    assert min(seen.values()) >= 5, seen
    large = []
    while len(large) < 20:
        g = _connected(random_glued_graph(rng, rng.randint(17, 60)))
        if g.n >= 17:
            large.append(g)
    large += [random_connected_graph(rng, rng.randint(17, 60), rng.choice([0.02, 0.05]))
              for _ in range(20)]
    pending = 0
    for g in large:
        assert is_connected(g) and 17 <= g.n <= 60
        sides = flaps._search(g)
        assert sides == slow_flap_sides(g), sorted(g.edges)
        pending += sum(planar is None for *_, planar in sides[0])
    assert pending > 0


def _reduction_families(g, family, pool):
    """The family, rotated, and short of its last member; and each of the
    first six pool members followed by the family members independent of
    it: families of flaps, some of them not maximum or without a maximal
    first member."""
    yield family
    yield family[1:] + family[:1]
    if len(family) > 1:
        yield family[:-1]
    for cand in pool[:6]:
        yield [cand] + [m for m in family[1:] if are_independent(g, cand, m)]


def _check_against_eager(g):
    """flap_number, flap_family_and_number, is_strongly_non_planar and
    flap_reduction of a graph of 2 to 16 vertices against the solver that
    tests every side and packs every candidate interior; returns the
    number of reductions compared."""
    family, number, pool = eager_flap_solve(g)
    assert flap_number(g) == number, sorted(g.edges)
    assert flap_family_and_number(g) == (family, number), sorted(g.edges)
    assert is_strongly_non_planar(g) == (number == 0)
    compared = 0
    if family:
        for members in _reduction_families(g, family, pool):
            assert (_outcome(flap_reduction, g, members)
                    == _outcome(eager_flap_reduction, g, members, number, pool)), members
            compared += 1
    return compared


def test_golden_graphs_match_eager_solver():
    """Every golden graph of at least 2 vertices against the eager solver,
    with reductions of maximum families and of refused ones."""
    compared = sum(_check_against_eager(g) for _, g in _golden_graphs() if g.n >= 2)
    assert compared > 500, compared


def _count_passes(monkeypatch):
    """A list that gets the vertex mask of each lowpoint pass."""
    passes = []
    run = flaps._lowpoint_pass
    monkeypatch.setattr(flaps, "_lowpoint_pass",
                        lambda adjm, deg, alive: passes.append(alive) or run(adjm, deg, alive))
    return passes


def test_planarity_calls_follow_the_blocks(monkeypatch):
    """Counts settle every side of a tree, so its flap number takes no
    planarity test. The strongly-non-planar test stops at the first
    candidate: on K5 plus a pendant vertex the pass of H finds the cut
    vertex 0 and its pendant side, so no pass of an H - x runs, and only
    the whole graph is tested, since K5's edge count rules K5 out."""
    calls = []
    monkeypatch.setattr(flaps, "is_planar", lambda g: calls.append(g.n) or is_planar(g))
    tree = random_tree(random.Random(16), 16)
    assert flap_number(tree) == tree_beta(tree)
    assert calls == []
    passes = _count_passes(monkeypatch)
    assert not is_strongly_non_planar(K5_PENDANT)
    assert calls == [6]
    assert passes == [(1 << 6) - 1]


def _tree_plus_edges(n):
    """A seeded random tree on n vertices plus n // 3 random edges."""
    rng = random.Random(n)
    edges = set(random_tree(rng, n).edges)
    while len(edges) < n - 1 + n // 3:
        edges.add(tuple(sorted(rng.sample(range(n), 2))))
    return Graph.build(n, edges)


def test_search_makes_n_lowpoint_passes(monkeypatch):
    """The search of a connected H runs one lowpoint pass of H and one of
    each H - x but the last, in order, and nothing per cut set: n passes,
    200 on a seeded 200-vertex tree plus 66 edges, whose sides match the
    walk with one component search per cut set."""
    passes = _count_passes(monkeypatch)
    full = lambda g: (1 << g.n) - 1
    for g in (K5_PENDANT, TWO_K5, icosahedron().graph, path_graph(16),
              random_connected_graph(random.Random(3), 30, 0.05)):
        passes.clear()
        flaps._search(g)
        assert passes == [full(g)] + [full(g) ^ 1 << x for x in range(g.n - 1)]
    g = _tree_plus_edges(200)
    passes.clear()
    sides = flaps._search(g)
    assert len(passes) == 200
    assert sides == slow_flap_sides(g)


def _check_packings(h, interiors):
    """The packing over the inclusion-minimal ones of the distinct
    ``interiors``, unforced and with each interior forced, against the
    oracle over all of them; returns the interior count."""
    items = [interior_item(h, s) for s in dict.fromkeys(interiors)]
    minimal = [i for i, (mask, _) in enumerate(items)
               if not any(j != i and other & ~mask == 0 for j, (other, _) in enumerate(items))]
    pruned = [items[i] for i in minimal]
    assert [minimal[j] for j in flaps._max_packing(pruned)] == slow_max_packing(items)
    for i, item in enumerate(items):
        packing = [i] + [minimal[j] for j in flaps._max_packing(pruned, item)]
        assert packing == slow_max_packing(items, i), i
    return len(items)


def test_packing_matches_recursive_oracle():
    """The looped packing over interiors pruned once agrees with the
    recursive one that prunes on every call: on seeded random vertex sets
    of random graphs, many nested, and on the interiors of the golden
    graphs' candidate flaps."""
    rng = random.Random(2222)
    for _ in range(300):
        g = random_graph(rng, rng.randint(2, 12), rng.choice([0.1, 0.2, 0.35]))
        sets = {tuple(sorted(rng.sample(range(g.n), rng.randint(1, min(4, g.n)))))
                for _ in range(rng.randint(1, 16))}
        _check_packings(g, sorted(sets))
    total = 0
    for _, g in _golden_graphs():
        if g.n >= 2:
            total += _check_packings(g, [c.s for c in enumerate_candidate_flaps(g)])
    assert total > 1000, total


def test_one_packing_per_interior(monkeypatch):
    """The flap number takes one packing; the family takes one forced
    packing per interior that a side not ruled non-planar has, and reads
    the first member's packing back. On this graph 35 interiors have such
    a side, 6 of them minimal, and all 35 are candidate interiors."""
    calls = []
    packing = flaps._max_packing
    monkeypatch.setattr(flaps, "_max_packing",
                        lambda *args, **kw: calls.append(args) or packing(*args, **kw))
    g = random_connected_graph(random.Random(7), 11, 0.1)
    sides = flaps._search(g)[0]
    assert len({mask for _, mask, _ in sides}) == 35
    assert len(flaps._minimal_interiors(g, sides)[1]) == 6
    assert len({sep.s for sep in enumerate_candidate_flaps(g)}) == 35
    flap_number(g)
    assert len(calls) == 1
    calls.clear()
    flap_family_and_number(g)
    assert len(calls) == 35


GOLDEN = Path(__file__).parent / "data" / "flaps_golden.txt"


def _golden_graphs():
    rng = random.Random(6061)
    graphs = [(f"random{n}p{p}.{i}", random_graph(rng, n, p))
              for n in range(1, 13) for p in (0.15, 0.3, 0.45, 0.6) for i in range(4)]
    graphs += [(f"sparse{i}", random_connected_graph(rng, rng.randint(10, 16),
                                                     rng.choice([0.0, 0.05, 0.1])))
               for i in range(40)]
    graphs += [(f"tree{i}", random_tree(rng, rng.randint(2, 12))) for i in range(50)]
    graphs += [(f"K{s}", complete_graph(s)) for s in range(1, 9)]
    graphs += [("C9", cycle_graph(9)), ("P16", path_graph(16))]
    return graphs


def _outcome(fn, *args):
    """A call's result, or its error's class and message."""
    try:
        return fn(*args)
    except SurfcountError as exc:
        return f"{type(exc).__name__}: {exc}"


def _seps(value):
    if isinstance(value, str):
        return value
    return " ".join(sep.serialize() for sep in value) or "-"


def _graph_line(value):
    if isinstance(value, str):
        return value
    text = serialize_graph(value)
    return f"{value.n} {value.m} {hashlib.sha256(text.encode()).hexdigest()[:16]}"


def golden_text():
    """Every flap result of the golden graphs, each block after a
    ``# name`` line and the graph's edges."""
    out = []
    for name, g in _golden_graphs():
        out.append(f"# {name} n={g.n} {' '.join(f'{u}-{v}' for u, v in g.sorted_edges())}")
        out.append(f"flap_number {_outcome(flap_number, g)}")
        out.append(f"snp {_outcome(is_strongly_non_planar, g)}")
        out.append(f"candidates {_seps(_outcome(enumerate_candidate_flaps, g))}")
        family = _outcome(lambda h: flap_family_and_number(h)[0], g)
        out.append(f"family {_seps(family)}")
        if family and not isinstance(family, str):
            out.append(f"reduction {_graph_line(_outcome(flap_reduction, g, family))}")
        if 1 <= g.n <= 8 and is_connected(g):
            out.append(f"paste {_graph_line(_outcome(lower_bound_graph, g, 4 * g.n))}")
    return "\n".join(out) + "\n"


def test_golden_flaps():
    assert golden_text() == GOLDEN.read_text()


if __name__ == "__main__":
    # rewrites the golden file; only for an intended change of the results
    GOLDEN.write_text(golden_text())

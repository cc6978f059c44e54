import itertools
import math
import random
import time
from collections import Counter

import pytest

from support import (
    backtrack_copies,
    backtrack_hom,
    backtrack_injective,
    disjoint_union,
    max_clique_size,
    random_connected_graph,
    random_graph,
    random_stacked,
    slow_automorphisms,
    slow_count_cliques,
)
from surfcount import counting
from surfcount.cli import main
from surfcount.constructions import tree_blowup
from surfcount.counting import (
    _Budget,
    _hom_dp,
    _Plan,
    _spasm,
    check_genus_triangle_bound,
    check_goodman,
    count_cliques,
    count_copies,
    count_hom,
    count_injective_hom,
    scaling_exponent,
    total_cliques,
)
from surfcount.errors import CapExceeded, InternalInvariantError, PreconditionError
from surfcount.graph import (
    Graph,
    complete_graph,
    connected_components,
    cycle_graph,
    is_isomorphic,
    path_graph,
    serialize_graph,
    twin_classes,
)
from surfcount.planarity import is_planar

OCTAHEDRON = Graph.build(6, [(i, j) for i in range(6) for j in range(i + 1, 6)
                             if {i, j} not in ({0, 1}, {2, 3}, {4, 5})])


# -- independent brute-force oracles ---------------------------------------


def brute_copies(h, g):
    total = 0
    for vs in itertools.combinations(range(g.n), h.n):
        subgraphs = set()
        for perm in itertools.permutations(vs):
            if all(g.has_edge(perm[a], perm[b]) for a, b in h.edges):
                subgraphs.add(frozenset(
                    (min(perm[a], perm[b]), max(perm[a], perm[b])) for a, b in h.edges))
        total += len(subgraphs)
    return total


def brute_injective(h, g):
    return sum(
        1 for perm in itertools.permutations(range(g.n), h.n)
        if all(g.has_edge(perm[a], perm[b]) for a, b in h.edges))


def brute_hom(h, g):
    return sum(
        1 for img in itertools.product(range(g.n), repeat=h.n)
        if all(g.has_edge(img[a], img[b]) for a, b in h.edges))


def test_copies_examples():
    assert count_copies(complete_graph(3), complete_graph(4)) == 4
    assert count_copies(complete_graph(3), complete_graph(6)) == 20
    assert count_copies(path_graph(3), complete_graph(3)) == 3


def test_hom_examples():
    rng = random.Random(5)
    for _ in range(10):
        g = random_graph(rng, rng.randint(1, 8), 0.4)
        assert count_hom(complete_graph(2), g) == 2 * g.m
        assert count_hom(complete_graph(1), g) == g.n
    assert count_hom(complete_graph(3), complete_graph(3)) == 6


def test_injective_examples():
    assert count_injective_hom(complete_graph(3), complete_graph(3)) == 6
    assert count_injective_hom(complete_graph(2), path_graph(3)) == 4
    assert count_injective_hom(path_graph(3), cycle_graph(4)) == 8


def test_clique_examples():
    assert count_cliques(complete_graph(6), 5) == 6
    assert count_cliques(complete_graph(6), 4) == 15
    assert count_cliques(OCTAHEDRON, 3) == 8
    assert count_cliques(complete_graph(3), 0) == 1
    assert count_cliques(path_graph(4), 1) == 4
    assert count_cliques(path_graph(4), 2) == 3
    with pytest.raises(PreconditionError):
        count_cliques(OCTAHEDRON, -1)


def test_total_cliques():
    assert total_cliques(complete_graph(4)) == 16
    assert total_cliques(complete_graph(1)) == 2
    assert total_cliques(OCTAHEDRON) == 27
    for n in (1, 3, 6, 10, 16):
        assert total_cliques(complete_graph(n)) == 2 ** n


def test_counting_cross_oracles():
    rng = random.Random(60601)
    for _ in range(120):
        h = random_graph(rng, rng.randint(1, 4), rng.choice([0.3, 0.6]))
        g = random_graph(rng, rng.randint(1, 7), rng.choice([0.3, 0.5, 0.8]))
        assert count_copies(h, g) == brute_copies(h, g)
        assert count_injective_hom(h, g) == brute_injective(h, g)
        assert count_hom(h, g) == brute_hom(h, g)
        for s in range(5):
            assert count_cliques(g, s) == count_copies(complete_graph(s), g)


def test_copy_aut_injective_identity():
    rng = random.Random(424)
    for _ in range(100):
        h = random_graph(rng, rng.randint(1, 5), rng.choice([0.3, 0.5, 0.7]))
        g = random_graph(rng, rng.randint(1, 8), rng.choice([0.3, 0.5, 0.7]))
        assert count_copies(h, g) * len(slow_automorphisms(h)) == count_injective_hom(h, g)


def test_hom_dominates_injective():
    rng = random.Random(91)
    for _ in range(60):
        h = random_graph(rng, rng.randint(1, 4), 0.5)
        g = random_graph(rng, rng.randint(1, 6), 0.5)
        assert count_hom(h, g) >= count_injective_hom(h, g)
        if g.n < h.n and h.m > 0:
            assert count_injective_hom(h, g) == 0


def _oracle_pattern(rng, kind):
    """A pattern of 0-6 vertices: plain random, two components, or a
    connected part plus isolated vertices."""
    if kind == "random":
        return random_graph(rng, rng.randint(0, 6), rng.choice([0.3, 0.5, 0.8]))
    if kind == "disconnected":
        a = rng.randint(2, 4)
        return disjoint_union(random_connected_graph(rng, a, 0.4),
                              random_connected_graph(rng, rng.randint(1, 6 - a), 0.4))
    isolated = rng.randint(1, 3)
    core = random_connected_graph(rng, rng.randint(1, 6 - isolated), 0.4)
    return disjoint_union(core, Graph.build(isolated, []))


def _oracle_cost(h, g):
    """Upper bound on the leaves the backtracking copy oracle visits: per
    component, a root image and a neighbor for each later vertex, times the
    automorphisms its leaf filter tries."""
    top = max((g.degree(v) for v in range(g.n)), default=0)
    cost = len(slow_automorphisms(h))
    for comp in connected_components(h):
        cost *= g.n * top ** (len(comp) - 1)
    return cost


def test_against_backtracking_oracle():
    """hom, inj and copies against the old one-map-at-a-time counter on 200
    seeded pairs, hosts up to 14 vertices. Pairs whose oracle run would
    pass 3*10^5 leaves are redrawn, so the sample is checked to still hold
    every kind of pattern and large hosts."""
    rng = random.Random(0x5A5)
    seen = {"disconnected": 0, "isolated": 0, "empty": 0, "host>8": 0}
    checked = 0
    while checked < 200:
        h = _oracle_pattern(rng, rng.choice(["random", "disconnected", "isolated"]))
        g = random_graph(rng, rng.randint(1, 14), rng.choice([0.2, 0.35, 0.5]))
        if _oracle_cost(h, g) > 300_000:
            continue
        checked += 1
        seen["disconnected"] += len(connected_components(h)) > 1
        seen["isolated"] += any(h.degree(v) == 0 for v in range(h.n)) and h.n > 1
        seen["empty"] += h.n == 0
        seen["host>8"] += g.n > 8
        assert count_hom(h, g) == backtrack_hom(h, g), (sorted(h.edges), h.n, sorted(g.edges), g.n)
        assert count_injective_hom(h, g) == backtrack_injective(h, g)
        assert count_copies(h, g) == backtrack_copies(h, g)
    assert min(seen.values()) >= 5 and seen["host>8"] >= 50, seen


def _with_twins(rng, g, isolated):
    """g with false twins added: one to three copies of up to three of its
    vertices, each copy joined to its original's neighbors, then
    ``isolated`` isolated vertices."""
    n, edges = g.n, list(g.edges)
    for v in rng.sample(range(g.n), min(g.n, rng.randint(1, 3))):
        for _ in range(rng.randint(1, 3)):
            edges += [(w, n) for w in g.adj[v]]
            n += 1
    return Graph.build(n + isolated, edges)


def test_twin_hosts_against_backtracking_oracle():
    """hom, inj and copies on 150 seeded hosts with injected false twins,
    some with a class of isolated vertices, against the backtracking
    oracle; and twin_classes and the weighted quotient against a pairwise
    comparison of neighborhoods read off the edge list."""
    rng = random.Random(0x7817)
    seen = {"disconnected": 0, "isolated": 0, "isolated twins": 0, "class>2": 0}
    checked = 0
    while checked < 150:
        h = _oracle_pattern(rng, rng.choice(["random", "disconnected", "isolated"]))
        g = _with_twins(rng, random_graph(rng, rng.randint(1, 7), rng.choice([0.3, 0.5, 0.7])),
                        rng.choice([0, 0, 2]))
        if _oracle_cost(h, g) > 300_000:
            continue
        checked += 1
        nbrs = [set() for _ in range(g.n)]
        for u, v in g.edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        classes = twin_classes(g)
        assert sorted(v for c in classes for v in c) == list(range(g.n))
        assert classes == sorted(classes) and all(list(c) == sorted(c) for c in classes)
        where = {v: i for i, c in enumerate(classes) for v in c}
        for u, v in itertools.combinations(range(g.n), 2):
            assert (where[u] == where[v]) == (nbrs[u] == nbrs[v])
        q, weight = g._twin_quotient
        assert q.n == len(classes) and weight == tuple(map(len, classes))
        assert q.edges == {(min(where[u], where[v]), max(where[u], where[v]))
                           for u, v in g.edges}
        seen["disconnected"] += len(connected_components(h)) > 1
        seen["isolated"] += any(h.degree(v) == 0 for v in range(h.n)) and h.n > 1
        seen["isolated twins"] += sum(not nbrs[v] for v in range(g.n)) > 1
        seen["class>2"] += max(weight) > 2
        assert count_hom(h, g) == backtrack_hom(h, g), (sorted(h.edges), h.n, sorted(g.edges), g.n)
        assert count_injective_hom(h, g) == backtrack_injective(h, g)
        assert count_copies(h, g) == backtrack_copies(h, g)
    assert min(seen.values()) >= 10, seen


def _twin_pattern(rng):
    """A connected pattern with a class of true twins: a clique, a clique
    less an edge (a diamond at four vertices), a clique with a pendant
    path, or a random connected graph with a vertex copied onto its own
    closed neighborhood one to three times."""
    kind = rng.choice(["clique", "clique-e", "pendant", "copied"])
    if kind == "clique":
        return kind, complete_graph(rng.randint(2, 5))
    if kind == "clique-e":
        s = rng.randint(4, 5)
        return kind, Graph.build(s, [e for e in complete_graph(s).edges if e != (0, 1)])
    if kind == "pendant":
        s, tail = rng.randint(3, 4), rng.randint(1, 2)
        edges = list(complete_graph(s).edges) + [(s + i - 1 if i else 0, s + i)
                                                 for i in range(tail)]
        return kind, Graph.build(s + tail, edges)
    g = random_connected_graph(rng, rng.randint(2, 4), 0.4)
    n, edges = g.n, list(g.edges)
    v = rng.randrange(g.n)
    for _ in range(rng.randint(1, 3)):
        edges += [(w, n) for w in g.adj[v] | {v}]
        n += 1
    return kind, Graph.build(n, edges)


def test_true_twin_patterns_against_backtracking_oracle():
    """hom, inj and copies of patterns with true-twin classes, whose DP
    takes rising images along each class, against the backtracking oracle
    on 160 seeded hosts, with and without false twins."""
    rng = random.Random(0x7317)
    seen = {"clique": 0, "clique-e": 0, "pendant": 0, "copied": 0, "twin host": 0}
    checked = 0
    while checked < 160:
        kind, h = _twin_pattern(rng)
        g = random_graph(rng, rng.randint(3, 10), rng.choice([0.3, 0.5, 0.7]))
        if rng.random() < 0.5:
            g = _with_twins(rng, g, rng.choice([0, 2]))
        if _oracle_cost(h, g) > 300_000:
            continue
        checked += 1
        seen[kind] += 1
        seen["twin host"] += g._twin_quotient[0] is not g
        assert count_hom(h, g) == backtrack_hom(h, g), (sorted(h.edges), sorted(g.edges), g.n)
        assert count_injective_hom(h, g) == backtrack_injective(h, g)
        assert count_copies(h, g) == backtrack_copies(h, g)
    assert min(seen.values()) >= 20, seen


def test_cliques_match_degree_ordered_search():
    """count_cliques through the DP against the recursive search over later
    neighbors, for s = 0 up to the first empty size, on seeded random graphs, the same with false
    twins, and stacked triangulations of the sphere; clique_counts,
    total_cliques and max_clique_size read the same numbers."""
    rng = random.Random(0xC11)
    hosts = [random_graph(rng, rng.randint(0, 12), rng.choice([0.3, 0.6, 0.9]))
             for _ in range(40)]
    hosts += [_with_twins(rng, random_graph(rng, rng.randint(2, 9), 0.6), rng.choice([0, 2]))
              for _ in range(30)]
    hosts += [random_stacked(rng, n, hub_bias=hub)[0].graph
              for n in (4, 5, 9, 40, 150) for hub in (0.0, 0.5)]
    for g in hosts:
        want = [1]
        while want[-1]:
            want.append(slow_count_cliques(g, len(want)))
        assert [count_cliques(g, s) for s in range(len(want))] == want, (sorted(g.edges), g.n)
        vector = want[:-1]
        assert counting.clique_counts(g) == vector
        assert total_cliques(g) == sum(vector)
        assert max_clique_size(g) == len(vector) - 1


def test_clique_counts_take_one_dp_run(monkeypatch):
    """clique_counts reads every clique size from one K_t run: one search
    order, for K16 on K16, where a run per size took 17."""
    calls = []
    real = counting._search_order
    monkeypatch.setattr(counting, "_search_order", lambda h: calls.append(h.n) or real(h))
    assert counting.clique_counts(complete_graph(16)) == [math.comb(16, s) for s in range(17)]
    assert calls == [16]


def test_clique_dp_lists_each_clique_once():
    """On a twin-free stacked triangulation, hom(K_s) spends
    1 + 2(c_1 + ... + c_{s-1}) DP steps, c_j the number of j-cliques: each
    (j-1)-clique is one state, entered once and visited once, where it
    was entered j! times before the twin rule. P3 has no true twins and
    keeps its 1 + 3n steps. C4 has none either: it takes 31,445 steps on
    the frontier DP, and 12,827 summed over its three orientation classes,
    the listing of the classes included."""
    g = random_stacked(random.Random(2019), 200, hub_bias=0.5)[0].graph
    assert g._twin_quotient[0] is g
    c = [slow_count_cliques(g, j) for j in range(6)]
    assert c[:5] == [1, g.n, g.m, 3 * g.n - 8, g.n - 3] and c[5] == 0
    for s in range(1, 6):
        budget = _Budget(10**9)
        assert _hom_dp(complete_graph(s), g, budget) == math.factorial(s) * c[s]
        assert budget.cap - budget.left == 1 + 2 * sum(c[1:s])
    for h, hom, steps, oriented in ((path_graph(3), 16974, 1 + 3 * g.n, None),
                                    (cycle_graph(4), 46768, 31445, False),
                                    (cycle_graph(4), 46768, 12827, None)):
        budget = _Budget(10**9)
        assert _hom_dp(h, g, budget, oriented=oriented) == hom
        assert budget.cap - budget.left == steps


_ORIENTED_PATTERNS = {
    "C4": cycle_graph(4),
    "C5": cycle_graph(5),
    "K2,3": Graph.build(5, [(a, b) for a in (0, 1) for b in (2, 3, 4)]),
    "diamond": Graph.build(4, [e for e in complete_graph(4).edges if e != (0, 1)]),
    "paw": Graph.build(4, [(0, 1), (0, 2), (1, 2), (2, 3)]),
    "P4": path_graph(4),
    "K4": complete_graph(4),
}


def _acyclic_orientations(h, fixed):
    """How many of the 2^m orientations of h hold the arcs ``fixed`` and
    are acyclic, which peeling sinks finds out."""
    edges = sorted(h.edges)
    count = 0
    for flips in itertools.product((False, True), repeat=len(edges)):
        arcs = {(v, u) if f else (u, v) for f, (u, v) in zip(flips, edges)}
        if not fixed <= arcs:
            continue
        left = set(range(h.n))
        while left:
            sinks = {v for v in left if not any((v, w) in arcs for w in left)}
            if not sinks:
                break
            left -= sinks
        count += not left
    return count


def test_oriented_path_against_oracles():
    """hom by the sum over orientation classes, forced, against the
    backtracking counter and the frontier DP, forced, for C4, C5, K2,3, the
    diamond, the paw, P4 and K4 on 48 seeded hosts: stacked triangulations
    with and without a hub, stacked triangulations with false twins
    injected, and random graphs. The path the DP picks for itself gives
    the same count, and the class sizes add up to the acyclic orientations
    that orient each true-twin class by index."""
    rng = random.Random(0x0D1)
    hosts = []
    for _ in range(12):
        for hub in (0.0, 0.5):
            hosts.append(random_stacked(rng, rng.randint(5, 24), hub_bias=hub)[0].graph)
        hosts.append(_with_twins(rng, random_stacked(rng, rng.randint(4, 12))[0].graph,
                                 rng.choice([0, 2])))
        hosts.append(random_graph(rng, rng.randint(1, 14), rng.choice([0.2, 0.4, 0.7])))
    assert sum(g._twin_quotient[0] is not g for g in hosts) >= 12
    for name, h in _ORIENTED_PATTERNS.items():
        fixed = {(u, v) for u, v in h.edges if h.adj[u] | {u} == h.adj[v] | {v}}
        classes = counting._orientation_classes(h, fixed, [], _Budget(10**9), None)
        assert sum(size for size, _ in classes) == _acyclic_orientations(h, fixed), name
        for g in hosts:
            want = backtrack_hom(h, g)
            for oriented in (True, False, None):
                assert _hom_dp(h, g, _Budget(10**9), oriented=oriented) == want, (
                    name, oriented, sorted(g.edges), g.n)


def test_oriented_c4_steps_on_a_hub():
    """hom(C4) on the 2000-vertex stacked triangulation with a hub: the
    frontier DP pays for every wedge at the hub, 801,611 steps, and the
    three orientation classes take 129,147, their listing included. Both
    give sum over ordered pairs (u, v) of codeg(u, v)^2, read off the
    wedges."""
    g = random_stacked(random.Random(2), 2000, hub_bias=0.5)[0].graph
    wedges = Counter((u, v) for a in g.adj for u in a for v in a)
    want = sum(c * c for c in wedges.values())
    for oriented, steps in ((False, 801_611), (None, 129_147)):
        budget = _Budget(10**9)
        assert _hom_dp(cycle_graph(4), g, budget, oriented=oriented) == want
        assert budget.cap - budget.left == steps


def test_orientation_listing_spends_the_work_cap(monkeypatch):
    """Listing C4's orientation classes (2, 4 and 8 orientations) spends
    16 steps for the orientations tried, 8 for the automorphisms and 8 per
    class for the orbit images, 48 of hom(C4)'s 12,827: that cap is
    enough, one step fewer raises with no term counted. inj(C4) into two
    such hosts lists them once for both, so the call needs exactly 48
    steps fewer than its terms planned afresh for each host."""
    c4 = cycle_graph(4)
    g = random_stacked(random.Random(2019), 200, hub_bias=0.5)[0].graph
    g2 = random_stacked(random.Random(2020), 150, hub_bias=0.5)[0].graph
    spent = []
    real = counting._orientation_classes

    def recorded(h, fixed, watch, budget, limit):
        before = budget.left
        classes = real(h, fixed, watch, budget, limit)
        spent.append((before - budget.left, sorted(size for size, _ in classes)))
        return classes

    monkeypatch.setattr(counting, "_orientation_classes", recorded)
    assert count_hom(c4, g, work_cap=12_827) == 46768
    assert spent == [(48, [2, 4, 8])]
    with pytest.raises(CapExceeded) as err:
        count_hom(c4, g, work_cap=12_826)
    assert err.value.progress == (0, 1)
    spasm = _spasm(c4, _Budget(10**9))
    afresh = (_steps(lambda b: _spasm(c4, b))
              + sum(_steps(lambda b: _hom_dp(f, host, b)) for f, _ in spasm for host in (g, g2)))
    spent.clear()
    need = afresh - 48
    want = [backtrack_injective(c4, host) for host in (g, g2)]
    assert counting._count_injective(c4, [g, g2], _Budget(need)) == want
    assert spent == [(48, [2, 4, 8])]
    with pytest.raises(CapExceeded) as err:
        counting._count_injective(c4, [g, g2], _Budget(need - 1))
    assert err.value.progress == (2 * len(spasm) - 1, 2 * len(spasm))


def test_orientation_classes_listed_once_per_term(monkeypatch):
    """copies(C4) into K4 twice, then into three stacked triangulations
    with a hub, then into K4 again, lists C4's orientation classes once
    for all hosts and inj(C4, C4). The listing for K4 is cut off by its
    limit, sum deg^2 = 36, and it is not tried again under that limit;
    the first larger host lists them, and no later host does. No term's
    listing finishes twice, none is tried after it finished, and one cut
    off is tried again only under a larger limit."""
    c4, k4 = cycle_graph(4), complete_graph(4)
    hosts = [k4, k4] + [random_stacked(random.Random(s), n, hub_bias=0.5)[0].graph
                        for s, n in ((1, 30), (2, 60), (3, 90))] + [k4]
    want = [count_copies(c4, g) for g in hosts]
    calls = []
    real = counting._orientation_classes

    def recorded(h, fixed, watch, budget, limit):
        classes = real(h, fixed, watch, budget, limit)
        calls.append((h, limit, classes is not None))
        return classes

    monkeypatch.setattr(counting, "_orientation_classes", recorded)
    assert counting._count_copies(c4, hosts, _Budget(10**9)) == want
    assert [(limit == 36, done) for _, limit, done in calls] == [(True, False), (False, True)]
    for term in {id(h): h for h, _, _ in calls}.values():
        mine = [(limit, done) for h, limit, done in calls if h is term]
        assert [done for _, done in mine].count(True) <= 1
        assert all(not done for _, done in mine[:-1])
        limits = [limit for limit, _ in mine]
        assert limits == sorted(set(limits))


def test_copies_plan_each_spasm_term_once(monkeypatch):
    """copies(P5) into four tree blowups plans each of P5's 8 spasm terms
    once for the four hosts and |Aut(P5)| = inj(P5, P5): 8 search orders,
    where a plan per term and host took 40."""
    p5 = path_graph(5)
    hosts = [tree_blowup(p5, n) for n in (20, 40, 60, 80)]
    want = [count_copies(p5, g) for g in hosts]
    assert len(_spasm(p5, _Budget(10**9))) == 8
    calls = []
    real = counting._search_order
    monkeypatch.setattr(counting, "_search_order", lambda h: calls.append(h) or real(h))
    assert counting._count_copies(p5, hosts, _Budget(10**9)) == want
    assert len(calls) == 8 and len({id(h) for h in calls}) == 8


def test_cliques_beyond_the_degeneracy_answer_at_once():
    """A clique's earliest vertex in the smallest-last order sees all the
    others, so s above 1 + the degeneracy is 0 without building K_s:
    K1000 in P5, where building it took seconds, answers in milliseconds."""
    start = time.perf_counter()
    assert count_cliques(path_graph(5), 1000) == 0
    assert count_cliques(complete_graph(6), 7) == 0
    assert count_cliques(path_graph(5), 2) == 4
    assert time.perf_counter() - start < 0.05


def test_hom_multiplies_over_pattern_components():
    """hom(H1 + H2, G) = hom(H1, G) * hom(H2, G) on hosts with twins."""
    rng = random.Random(1717)
    for _ in range(40):
        h1 = random_connected_graph(rng, rng.randint(1, 4), 0.4)
        h2 = random_graph(rng, rng.randint(1, 4), 0.5)
        g = _with_twins(rng, random_graph(rng, rng.randint(2, 8), 0.5), rng.choice([0, 2]))
        assert count_hom(disjoint_union(h1, h2), g) == count_hom(h1, g) * count_hom(h2, g)


def test_copies_add_over_host_components():
    """copies(H, G1 + G2) = copies(H, G1) + copies(H, G2) for connected H,
    on hosts with twins."""
    rng = random.Random(1718)
    for _ in range(40):
        h = random_connected_graph(rng, rng.randint(1, 5), 0.3)
        g1 = _with_twins(rng, random_graph(rng, rng.randint(1, 7), 0.5), rng.choice([0, 2]))
        g2 = _with_twins(rng, random_graph(rng, rng.randint(1, 7), 0.5), 0)
        assert (count_copies(h, disjoint_union(g1, g2))
                == count_copies(h, g1) + count_copies(h, g2))


def test_blowup_steps_do_not_grow_with_the_host(monkeypatch):
    """count_copies(P5, tree_blowup(P5, n)) spends the same DP steps at
    n = 800 and n = 3200: every host's twin quotient is P5 weighted by
    class sizes."""
    budgets = []

    class Recorded(_Budget):
        def __init__(self, cap):
            super().__init__(cap)
            budgets.append(self)

    monkeypatch.setattr(counting, "_Budget", Recorded)
    p5 = path_graph(5)
    counts = [count_copies(p5, tree_blowup(p5, n)) for n in (800, 3200)]
    assert counts == [74087905, 4826129505]
    steps = [b.cap - b.left for b in budgets]
    assert len(steps) == 2 and steps[0] == steps[1] > 0


def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        yield [[first]] + part
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]


def test_spasm_one_entry_per_class():
    """The spasm of P9 has one entry per isomorphism class of quotients by
    independent partitions whose Moebius values do not cancel, each with
    that class's coefficient, and no two entries are isomorphic. The
    classes are rebuilt here from all 21147 set partitions."""
    h = path_graph(9)
    classes: dict = {}  # (order, size, degree sequence) -> [[quotient, coefficient]]
    for part in _set_partitions(list(range(9))):
        block = {v: b for b, vs in enumerate(part) for v in vs}
        if any(block[u] == block[v] for u, v in h.edges):
            continue
        q = Graph.build(len(part), {(min(block[u], block[v]), max(block[u], block[v]))
                                    for u, v in h.edges})
        mu = 1
        for vs in part:
            mu *= (-1) ** (len(vs) - 1) * math.factorial(len(vs) - 1)
        bucket = classes.setdefault(
            (q.n, q.m, tuple(sorted(q.degree(v) for v in range(q.n)))), [])
        for entry in bucket:
            if is_isomorphic(q, entry[0]):
                entry[1] += mu
                break
        else:
            bucket.append([q, mu])
    expected = [(q, c) for bucket in classes.values() for q, c in bucket if c]
    spasm = _spasm(h, _Budget(10**9))
    assert len(spasm) == len(expected)
    for f, coeff in spasm:
        assert [c for q, c in expected if is_isomorphic(f, q)] == [coeff]
    for i, (f, _) in enumerate(spasm):
        for f2, _ in spasm[i + 1:]:
            assert not is_isomorphic(f, f2)


def test_work_cap():
    with pytest.raises(CapExceeded) as err:
        count_copies(path_graph(4), complete_graph(9), work_cap=10)
    assert err.value.progress is not None


def test_work_cap_is_a_total():
    """One budget spans the spasm enumeration and every class's DP, run
    from one plan per class: the summed steps of the parts are exactly
    enough, one fewer is not, and the overrun reports the classes counted
    out of the total."""
    h, g = path_graph(5), cycle_graph(9)
    budget = _Budget(10**9)
    spasm = _spasm(h, budget)
    plans = [_Plan(f) for f, _ in spasm]
    need = budget.cap - budget.left + sum(_steps(lambda b: p.run(g, b)) for p in plans)
    assert len(spasm) > 1
    assert count_injective_hom(h, g, work_cap=need) == backtrack_injective(h, g)
    with pytest.raises(CapExceeded) as err:
        count_injective_hom(h, g, work_cap=need - 1)
    assert err.value.progress == (len(spasm) - 1, len(spasm))
    with pytest.raises(CapExceeded) as err:
        count_copies(h, g, work_cap=3)
    assert err.value.progress == (0, None)  # still enumerating the spasm
    part = _Budget(10**9)
    assert _hom_dp(h, g, part) == count_hom(h, g, work_cap=part.cap - part.left)
    with pytest.raises(CapExceeded) as err:
        count_hom(h, g, work_cap=part.cap - part.left - 1)
    assert err.value.progress == (0, 1)


def test_isolated_vertices_and_automorphisms_are_cheap():
    """Isolated pattern vertices are placed by a falling factorial and
    |Aut(H)| is a product over component classes, so nine isolated
    vertices need neither 21147 spasm partitions nor 9! automorphisms."""
    start = time.perf_counter()
    assert count_copies(Graph.build(9, []), complete_graph(12)) == 220
    assert time.perf_counter() - start < 0.05
    h = disjoint_union(disjoint_union(cycle_graph(4), cycle_graph(4)), Graph.build(3, []))
    g = random_graph(random.Random(8), 11, 0.6)
    assert count_copies(h, g) * len(slow_automorphisms(h)) == count_injective_hom(h, g)


def _steps(run):
    """DP steps that ``run(budget)`` spends from a fresh, ample budget."""
    budget = _Budget(10**9)
    run(budget)
    return budget.cap - budget.left


def test_automorphisms_spend_the_work_cap():
    """The denominator |Aut(H)| = inj(H, H) is counted over the numerator's
    spasm and plans, with DP steps from the same budget: the spasm and
    both sums, each term planned once for both, are exactly enough, a cap
    one step short of the denominator's last class raises, and a cap
    inside the denominator reports the terms counted of the numerator's
    and the denominator's."""
    c6, host = cycle_graph(6), complete_graph(6)
    spasm = _spasm(c6, _Budget(10**9))
    enumerate_steps = _steps(lambda b: _spasm(c6, b))
    plans = [_Plan(f) for f, _ in spasm]
    numerator = [_steps(lambda b: p.run(host, b)) for p in plans]
    denominator = [_steps(lambda b: p.run(c6, b)) for p in plans]
    need = enumerate_steps + sum(numerator) + sum(denominator)
    assert _steps(lambda b: counting._count_copies(c6, [host], b)) == need
    assert count_copies(c6, host, work_cap=need) == 60
    with pytest.raises(CapExceeded) as err:
        count_copies(c6, host, work_cap=need - 1)
    assert err.value.progress == (2 * len(spasm) - 1, 2 * len(spasm))
    j = len(spasm) // 2
    with pytest.raises(CapExceeded) as err:
        count_copies(c6, host, work_cap=need - sum(denominator[j:]))
    assert err.value.progress == (len(spasm) + j, 2 * len(spasm))


def test_automorphisms_through_twin_classes():
    """|Aut(K1,k)| = k! comes from DPs on the star's own twin quotient K2,
    weighted 1 and k. The spasm classes are K1,j for j = 1..k, and each
    takes at most 3 + 2j steps there, so the denominator costs at most
    k(k + 4) steps, not k! maps."""
    for k, host, copies in ((8, complete_graph(9), 9), (10, complete_graph(12), 132)):
        star = Graph.build(k + 1, [(0, i) for i in range(1, k + 1)])
        spasm = _spasm(star, _Budget(10**9))
        budget = _Budget(10**9)
        assert sum(c * _hom_dp(f, star, budget) for f, c in spasm) == math.factorial(k)
        steps = budget.cap - budget.left
        assert len(spasm) == k and steps <= k * (k + 4), (k, steps)
        assert count_copies(star, host) == copies


def test_invariant_errors_survive_optimization(monkeypatch, capsys, tmp_path):
    """A wrong |Aut(H)| = inj(H, H) is caught by an explicit check, not an
    assert, and the CLI reports it in one line with exit 1."""
    real = counting._count_injective

    def wrong_denominator(h, hosts, budget):
        *injs, aut = real(h, hosts, budget)
        return [*injs, 7]

    monkeypatch.setattr(counting, "_count_injective", wrong_denominator)
    with pytest.raises(InternalInvariantError):
        count_copies(path_graph(3), complete_graph(4))
    pattern, host = tmp_path / "p3.g", tmp_path / "k4.g"
    pattern.write_text(serialize_graph(path_graph(3)))
    host.write_text(serialize_graph(complete_graph(4)))
    assert main(["count", str(pattern), str(host)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def _aut_pattern(rng, kind):
    """A pattern of up to 8 vertices: plain random, two components, a
    connected part plus isolated vertices, or a random graph with false or
    true twins copied in."""
    if kind in ("random", "disconnected", "isolated"):
        return _oracle_pattern(rng, kind)
    base = random_connected_graph(rng, rng.randint(1, 6), 0.4)
    n, edges = base.n, list(base.edges)
    for v in rng.sample(range(base.n), min(base.n, rng.randint(1, 2))):
        if n < 8:
            edges += [(w, n) for w in base.adj[v]] + ([(v, n)] if kind == "true" else [])
            n += 1
    return Graph.build(n, edges)


def test_denominator_is_the_automorphism_count():
    """inj(H, H) equals the number of automorphisms enumerated one at a
    time, on seeded patterns of up to 8 vertices: random, disconnected,
    with isolated vertices, and with false or true twins."""
    rng = random.Random(0xA07)
    kinds = ["random", "disconnected", "isolated", "false", "true"]
    for i in range(150):
        h = _aut_pattern(rng, kinds[i % len(kinds)])
        assert count_injective_hom(h, h) == len(slow_automorphisms(h)), (h.n, sorted(h.edges))
    for h in (complete_graph(8), Graph.build(8, []), cycle_graph(8),
              disjoint_union(cycle_graph(4), cycle_graph(4))):
        assert count_injective_hom(h, h) == len(slow_automorphisms(h))


def test_clique_copies_are_cheap():
    """count_copies(K10, K12) is 66 within 20,000 DP steps: K10's spasm is
    K10 alone, and the denominator is one DP into K10, not 10! maps."""
    assert count_copies(complete_graph(10), complete_graph(12), work_cap=20_000) == 66


def test_scaling_counts_over_one_spasm(monkeypatch):
    """scaling_exponent enumerates h's spasm once for all hosts and the
    denominator, and its work cap is one total for the call: the summed
    steps of the parts pass, one step fewer raises."""
    h, sizes = path_graph(3), (6, 9, 12)
    hosts = [tree_blowup(h, n) for n in sizes]
    calls = []
    real = counting._spasm

    def counted(f, budget):
        calls.append(f)
        return real(f, budget)

    monkeypatch.setattr(counting, "_spasm", counted)
    rep = scaling_exponent(h, sizes, lambda n: tree_blowup(h, n))
    assert len(calls) == 1
    assert list(rep.counts) == [count_copies(h, g) for g in hosts]
    spasm = real(h, _Budget(10**9))
    need = (_steps(lambda b: real(h, b))
            + sum(_steps(lambda b: _hom_dp(f, g, b)) for f, _ in spasm for g in [*hosts, h]))
    assert scaling_exponent(h, sizes, lambda n: tree_blowup(h, n), work_cap=need) == rep
    with pytest.raises(CapExceeded) as err:
        scaling_exponent(h, sizes, lambda n: tree_blowup(h, n), work_cap=need - 1)
    assert err.value.progress == (4 * len(spasm) - 1, 4 * len(spasm))


def test_goodman():
    rep = check_goodman(complete_graph(3))
    assert (rep.lhs, rep.rhs, rep.holds) == (18, 18, True)
    rep = check_goodman(Graph.build(5, []))
    assert (rep.lhs, rep.rhs, rep.holds) == (0, 0, True)
    rep = check_goodman(complete_graph(4))
    assert (rep.lhs, rep.rhs, rep.holds) == (96, 96, True)


def test_inequalities_take_one_dp_run(monkeypatch):
    """check_goodman and check_genus_triangle_bound read n, m and t from
    one DP run for K3, padded with zeros where the run stops early: one
    search order each, and the reports that hom(K1), hom(K2) and hom(K3)
    from the backtracking oracle give, on the empty graph, edgeless and
    triangle-free graphs, K5 and seeded hosts with false twins."""
    rng = random.Random(0x600D)
    hosts = [Graph.build(0, []), Graph.build(4, []), path_graph(6), cycle_graph(6),
             complete_graph(5)]
    hosts += [_with_twins(rng, random_graph(rng, rng.randint(1, 9), rng.choice([0.2, 0.5, 0.8])),
                          rng.choice([0, 2])) for _ in range(30)]
    calls = []
    real = counting._search_order
    monkeypatch.setattr(counting, "_search_order", lambda h: calls.append(h) or real(h))
    checked = 0
    for g in hosts:
        h1, h2, h3 = (backtrack_hom(complete_graph(k), g) for k in (1, 2, 3))
        calls.clear()
        rep = check_goodman(g)
        assert (rep.lhs, rep.rhs) == (h1 * h3, h2 * (2 * h2 - h1 * h1)) and len(calls) == 1
        if g.m <= 1 or (g.m == 3 and h3 == 6):
            continue
        calls.clear()
        rep = check_genus_triangle_bound(g, 1)
        c = len(connected_components(g))
        assert (rep.lhs, rep.rhs) == (h3 // 6, h2 - 4 * g.n + 4 * c)
        assert (rep.hom_lhs, rep.hom_rhs) == (h3, 6 * h2 - 24 * h1 + 24) and len(calls) == 1
        checked += 1
    assert checked >= 20


def test_goodman_universal_fuzz():
    rng = random.Random(321)
    for _ in range(150):
        g = random_graph(rng, rng.randint(1, 12), rng.choice([0.2, 0.4, 0.6, 0.9]))
        assert check_goodman(g).holds


def test_genus_triangle_bound():
    rep = check_genus_triangle_bound(complete_graph(4), 0)
    assert (rep.lhs, rep.rhs, rep.holds) == (4, 4, True)
    assert rep.hom_lhs == 24 and rep.hom_rhs == 24
    rep = check_genus_triangle_bound(OCTAHEDRON, 0)
    assert (rep.lhs, rep.rhs, rep.holds) == (8, 8, True)
    assert rep.hom_lhs == count_hom(complete_graph(3), OCTAHEDRON) == 48
    for n in (3, 5, 8):
        rep = check_genus_triangle_bound(path_graph(n), 0)
        assert rep.lhs == 0 and rep.rhs <= 0 and rep.holds
        if n >= 4:
            assert rep.rhs < 0
    with pytest.raises(PreconditionError):
        check_genus_triangle_bound(complete_graph(4), -1)


def test_genus_triangle_refusals_are_exactly_the_failures():
    """At genus 0, over every planar graph on at most 5 vertices and every
    7th edge set on 6, the triangle form computed from its definition fails
    exactly when the graph has at most one edge or its edges form one lone
    triangle. Those graphs are refused, and the bound holds on the rest."""
    refused = 0
    for n in range(7):
        pairs = list(itertools.combinations(range(n), 2))
        for bits in range(0, 1 << len(pairs), 7 if n == 6 else 1):
            g = Graph.build(n, [e for i, e in enumerate(pairs) if bits >> i & 1])
            if not is_planar(g):
                continue
            t = slow_count_cliques(g, 3)
            fails = t < 2 * g.m - 4 * n + 4 + 4 * len(connected_components(g))
            lone = g.m <= 1 or (g.m == 3 and t == 1)
            assert fails == lone, (n, sorted(g.edges))
            if lone:
                refused += 1
                with pytest.raises(PreconditionError, match="lone triangle"):
                    check_genus_triangle_bound(g, 0)
            else:
                assert check_genus_triangle_bound(g, 0).holds, (n, sorted(g.edges))
    assert refused > 0


def test_max_clique_size():
    assert max_clique_size(complete_graph(6)) == 6
    assert max_clique_size(path_graph(4)) == 2
    assert max_clique_size(Graph.build(3, [])) == 1


def test_scaling_validation():
    with pytest.raises(PreconditionError):
        scaling_exponent(path_graph(3), [10, 20], lambda n: complete_graph(3))
    with pytest.raises(PreconditionError, match="zero copy count"):
        scaling_exponent(complete_graph(3), [4, 8, 12], lambda n: path_graph(n))

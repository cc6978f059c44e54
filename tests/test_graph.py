import itertools
import random
import time

import pytest

from support import (
    _components_without,
    brute_blocks,
    brute_cut_vertices,
    contract_edge_simple,
    disjoint_union,
    random_glued_graph,
    random_graph,
    random_stacked,
    random_tree,
    slow_automorphisms,
    slow_twin_quotient,
)
from surfcount.constructions import lower_bound_graph, tree_blowup
from surfcount.errors import ParseError, PreconditionError
from surfcount.graph import (
    Graph,
    _isomorphisms,
    add_clique,
    articulation_points,
    blocks,
    complete_graph,
    connected_components,
    cycle_graph,
    induced_subgraph,
    is_isomorphic,
    parse_graph,
    path_graph,
    serialize_graph,
    spanning_forest,
)


def test_parse_triangle():
    g = parse_graph("3 3\n0 1\n1 2\n0 2")
    assert g.n == 3 and g.edges == frozenset({(0, 1), (1, 2), (0, 2)})


def test_parse_k1():
    g = parse_graph("1 0")
    assert g.n == 1 and not g.edges


def test_parse_comments_and_errors():
    g = parse_graph("# a comment\n2 1\n0 1\n")
    assert g.m == 1
    with pytest.raises(ParseError, match="line 2.*self-loop"):
        parse_graph("2 1\n0 0")
    with pytest.raises(ParseError, match="duplicate"):
        parse_graph("3 2\n0 1\n1 0")
    with pytest.raises(ParseError, match="out of range"):
        parse_graph("2 1\n0 5")
    with pytest.raises(ParseError, match="non-integer"):
        parse_graph("2 1\nzero one")
    with pytest.raises(ParseError):
        parse_graph("3 2\n0 1")  # promised 2 edges


def test_serialize_round_trip():
    g = parse_graph("4 3\n2 3\n0 1\n1 3")
    text = serialize_graph(g)
    assert text == "4 3\n0 1\n1 3\n2 3\n"
    assert parse_graph(text).edges == g.edges


def test_induced_subgraph():
    k4 = complete_graph(4)
    tri = induced_subgraph(k4, [0, 1, 2])
    assert tri.n == 3 and tri.m == 3
    empty = induced_subgraph(k4, [])
    assert empty.n == 0
    p4 = path_graph(4)
    g = induced_subgraph(p4, [0, 2, 3])
    assert g.edges == frozenset({(1, 2)})  # re-indexed: 2->1, 3->2
    assert induced_subgraph(p4, range(4)).edges == p4.edges


def test_induced_subgraph_errors():
    with pytest.raises(PreconditionError):
        induced_subgraph(complete_graph(3), [0, 7])


def test_connected_components():
    assert connected_components(complete_graph(3)) == [(0, 1, 2)]
    g = disjoint_union(complete_graph(1), complete_graph(2))
    assert connected_components(g) == [(0,), (1, 2)]
    p5_minus_mid = induced_subgraph(path_graph(5), [0, 1, 3, 4])
    assert connected_components(p5_minus_mid) == [(0, 1), (2, 3)]


def test_connectivity_against_brute_force():
    """articulation_points and connected_components with 0-2 removed
    vertices against deleting each vertex and counting components, on 300
    seeded graphs: every order from 0 to 14, sparse ones with isolated
    vertices and several components, and dense ones."""
    rng = random.Random(1973)
    seen = {"n<=2": 0, "isolated": 0, "disconnected": 0, "cut": 0}
    for i in range(300):
        n = i % 15
        g = random_graph(rng, n, rng.choice([0.1, 0.2, 0.35, 0.6]))
        removed = tuple(rng.sample(range(n), min(n, i % 3)))
        comps = connected_components(g, removed)
        assert comps == [tuple(sorted(c)) for c in _components_without(g, removed)]
        cuts = articulation_points(g, removed)
        assert cuts == brute_cut_vertices(g, removed), (n, sorted(g.edges), removed)
        seen["n<=2"] += n <= 2
        seen["isolated"] += any(len(c) == 1 for c in comps)
        seen["disconnected"] += len(comps) > 1
        seen["cut"] += bool(cuts)
    assert min(seen.values()) >= 20, seen
    assert articulation_points(path_graph(5)) == [1, 2, 3]
    assert articulation_points(path_graph(5), (2,)) == []
    assert articulation_points(cycle_graph(6), (0,)) == [2, 3, 4]


def test_spanning_forest_shape():
    """Plain neighbour lists work; a vertex is marked when pushed, so each
    is found once, from the first popped vertex that sees it."""
    assert spanning_forest([[1, 2, 3], [0], [0], [0]]) == ([-1, 0, 0, 0], [0, 3, 2, 1])
    assert spanning_forest([(2, 1), (0, 2), (1, 0)]) == ([-1, 0, 0], [0, 1, 2])
    assert spanning_forest([[1], [0, 2], [1]], (1,)) == ([-1, -2, -1], [0, 2])
    assert spanning_forest([]) == ([], [])


def test_spanning_forest_against_brute_force():
    """On 200 seeded graphs with 0-2 removed vertices: the roots are the
    least vertices of the components, each parent edge is an edge of g,
    and each component is one run of the order, parents before children."""
    rng = random.Random(1957)
    for i in range(200):
        n = i % 13
        g = random_graph(rng, n, rng.choice([0.1, 0.25, 0.5]))
        removed = tuple(rng.sample(range(n), min(n, i % 3)))
        parent, order = spanning_forest(g.adj, removed)
        comps = _components_without(g, removed)
        assert [v for v in range(n) if parent[v] == -2] == sorted(removed)
        starts = [k for k, v in enumerate(order) if parent[v] == -1]
        assert [order[k] for k in starts] == [min(c) for c in comps]
        starts.append(len(order))
        assert [frozenset(order[a:b]) for a, b in zip(starts, starts[1:])] == comps
        at = {v: k for k, v in enumerate(order)}
        for v in order:
            assert parent[v] == -1 or (g.has_edge(v, parent[v]) and at[parent[v]] < at[v])


def test_blocks_against_brute_force():
    """blocks against maximal 2-connected vertex sets and bridges found
    from the definition, on 150 seeded graphs of up to 9 vertices; and the
    vertices in two blocks or more against articulation_points, there and
    on 120 glued graphs of up to 16 vertices with K5 and K3,3 pieces."""
    rng = random.Random(1973)
    for i in range(270):
        if i < 150:
            g = random_graph(rng, i % 10, rng.choice([0.15, 0.3, 0.5, 0.8]))
            assert blocks(g) == brute_blocks(g), (g.n, sorted(g.edges))
        else:
            g = random_glued_graph(rng, rng.choice([8, 12, 16]))
        found = blocks(g)
        assert all(len(b) >= 2 and list(b) == sorted(set(b)) for b in found)
        assert found == sorted(found)
        members = [v for b in found for v in b]
        assert sorted({v for v in members if members.count(v) >= 2}) == articulation_points(g)
    assert blocks(complete_graph(4)) == [(0, 1, 2, 3)]
    assert blocks(Graph.build(5, [(0, 1), (1, 2), (0, 2), (2, 3)])) == [(0, 1, 2), (2, 3)]


def test_blocks_deep_path():
    assert blocks(path_graph(20000)) == [(i, i + 1) for i in range(19999)]


def test_contract_edge():
    k3 = complete_graph(3)
    assert contract_edge_simple(k3, (0, 1)).edges == frozenset({(0, 1)})
    p4 = path_graph(4)
    p3 = contract_edge_simple(p4, (1, 2))
    assert p3.n == 3 and p3.m == 2
    c4 = cycle_graph(4)
    tri = contract_edge_simple(c4, (0, 1))
    assert tri.n == 3 and tri.m == 3
    with pytest.raises(PreconditionError):
        contract_edge_simple(p4, (0, 3))


def test_add_remove_clique():
    g = Graph.build(2, [])
    assert add_clique(g, [0, 1]).edges == frozenset({(0, 1)})
    k3 = complete_graph(3)
    assert add_clique(k3, [0, 1, 2]).edges == k3.edges
    assert add_clique(path_graph(4), [0, 3]).edges == path_graph(4).edges | {(0, 3)}


def test_count_isomorphisms():
    assert len(slow_automorphisms(complete_graph(3))) == 6
    assert not is_isomorphic(path_graph(3), complete_graph(3))
    assert len(slow_automorphisms(cycle_graph(4))) == 8
    assert not is_isomorphic(path_graph(2), path_graph(3))
    assert len(slow_automorphisms(path_graph(5))) == 2


def test_is_isomorphic_against_permutations():
    """is_isomorphic against a check of every bijection on seeded pairs of
    up to 6 vertices with equal order and size, half of them relabelings
    of each other; and on a 2000-vertex path, deeper than the default
    recursion limit, since the search keeps its own stack."""
    rng = random.Random(0x150)
    agree = 0
    for _ in range(300):
        n = rng.randint(0, 6)
        a = random_graph(rng, n, rng.choice([0.3, 0.5, 0.7]))
        if rng.random() < 0.5:
            perm = rng.sample(range(n), n)
            b = Graph.build(n, [(perm[u], perm[v]) for u, v in a.edges])
        else:
            b = random_graph(rng, n, a.m / max(1, n * (n - 1) // 2))
        brute = a.m == b.m and any(
            all(b.has_edge(p[u], p[v]) for u, v in a.edges)
            for p in itertools.permutations(range(n)))
        assert is_isomorphic(a, b) == brute, (n, sorted(a.edges), sorted(b.edges))
        agree += brute
    assert 150 <= agree < 300
    assert is_isomorphic(path_graph(2000), path_graph(2000))


def test_isomorphisms_list_every_automorphism():
    """_isomorphisms(h, h) yields each automorphism once, the same set the
    recursive oracle finds, on seeded graphs of up to 7 vertices; and each
    bijection onto a relabeling of h, which preserves edges."""
    rng = random.Random(0xA07)
    for _ in range(200):
        n = rng.randint(0, 7)
        h = random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
        autos = [tuple(a) for a in _isomorphisms(h, h)]
        assert len(autos) == len(set(autos))
        assert set(autos) == set(slow_automorphisms(h)), (n, sorted(h.edges))
        perm = rng.sample(range(n), n)
        g = Graph.build(n, [(perm[u], perm[v]) for u, v in h.edges])
        maps = list(_isomorphisms(h, g))
        assert len(maps) == len(autos)
        for image in maps:
            assert {(min(image[u], image[v]), max(image[u], image[v]))
                    for u, v in h.edges} == g.edges


def _brute_degeneracy(g):
    """The largest minimum degree over the induced subgraphs of g."""
    best = 0
    for mask in range(1, 1 << g.n):
        vs = [v for v in range(g.n) if mask >> v & 1]
        best = max(best, min(sum(mask >> w & 1 for w in g.adj[v]) for v in vs))
    return best


def test_out_in_follow_a_smallest_last_order():
    """Graph._out_in splits each neighborhood into out- and in-sets along
    one acyclic order, and the largest out-set is the degeneracy, the
    largest minimum degree of an induced subgraph, found here by brute
    force on seeded graphs of up to 11 vertices. A stacked triangulation
    is 3-degenerate however large its hub."""
    rng = random.Random(0xDE6)
    graphs = [random_graph(rng, rng.randint(0, 11), rng.choice([0.2, 0.4, 0.7]))
              for _ in range(60)]
    graphs += [cycle_graph(7), complete_graph(6), path_graph(5), Graph.build(3, [])]
    for g in graphs:
        out, into = g._out_in
        for v in range(g.n):
            assert out[v] | into[v] == g.adj[v] and not out[v] & into[v]
            assert all(v in into[w] for w in out[v])
        left = set(range(g.n))
        while left:  # an order exists iff no cycle of out-arcs
            sinks = [v for v in left if not out[v] & left]
            assert sinks, sorted(g.edges)
            left -= set(sinks)
        assert max(map(len, out), default=0) == _brute_degeneracy(g), sorted(g.edges)
    for hub in (0.0, 0.5):
        g = random_stacked(random.Random(3), 500, hub_bias=hub)[0].graph
        assert max(map(len, g._out_in[0])) == 3


def test_is_isomorphic_checks_only_neighbors():
    """A path beside a 4-cycle against a 4-vertex path beside a cycle:
    equal order, size, neighbor degrees and component sizes, so the search
    tries every start and walks the path around the cycle from each. Each
    candidate is checked against the placed neighbors and a count of used
    vertices around it, not against every placed vertex, so 600 vertices
    stay well inside 5 s."""
    n = 600
    h = disjoint_union(path_graph(n), cycle_graph(4))
    g = disjoint_union(path_graph(4), cycle_graph(n))
    start = time.perf_counter()
    assert not is_isomorphic(h, g)
    assert time.perf_counter() - start < 5


def test_is_isomorphic_compares_neighbor_degrees_first():
    """A path beside a triangle against a 3-vertex path beside a cycle
    shares order, size, degrees and component sizes but not neighbor
    degrees, which answer before the search: 2003 vertices in under
    0.1 s."""
    n = 2000
    h = disjoint_union(path_graph(n), cycle_graph(3))
    g = disjoint_union(path_graph(3), cycle_graph(n))
    start = time.perf_counter()
    assert not is_isomorphic(h, g)
    assert time.perf_counter() - start < 0.1


def test_is_isomorphic_compares_component_sizes_first():
    """A path against a triangle beside a shorter path shares order, size,
    degrees and neighbor degrees but not component sizes, which answer
    once the first start image fails, before the search tries every
    other: 2000 vertices in under 1 s."""
    n = 2000
    h, g = path_graph(n), disjoint_union(cycle_graph(3), path_graph(n - 3))
    start = time.perf_counter()
    assert not is_isomorphic(h, g)
    assert time.perf_counter() - start < 1


def test_twin_quotient_from_class_members():
    """The twin quotient built from one member per class equals the one
    read off every edge (``slow_twin_quotient``), with the same weights,
    and its prebuilt adjacency is the one its edges give: on seeded random
    graphs with false twins copied in and isolated vertices added, on tree
    blowups of random trees and on pastes."""
    rng = random.Random(0x7017)
    hosts = []
    for _ in range(60):
        g = random_graph(rng, rng.randint(0, 10), rng.choice([0.2, 0.5, 0.8]))
        n, edges = g.n, list(g.edges)
        for v in rng.sample(range(g.n), min(g.n, rng.randint(0, 3))):
            for _ in range(rng.randint(1, 3)):
                edges += [(w, n) for w in g.adj[v]]
                n += 1
        hosts.append(Graph.build(n + rng.choice([0, 0, 2]), edges))
    hosts += [tree_blowup(random_tree(rng, k), rng.randint(2 * k, 80))
              for k in range(2, 10) for _ in range(3)]
    diamond = Graph.build(4, [e for e in complete_graph(4).edges if e != (0, 1)])
    hosts += [lower_bound_graph(h, n) for h in (path_graph(4), cycle_graph(5), diamond)
              for n in (20, 41, 100)]
    quotients = 0
    for g in hosts:
        q, weight = g._twin_quotient
        assert (q, weight) == slow_twin_quotient(g), (g.n, sorted(g.edges))
        assert q.adj == Graph(q.n, q.edges).adj
        quotients += q is not g
    assert quotients >= 60

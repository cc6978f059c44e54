import random
from itertools import combinations

from support import contract_edge_simple, planar_oracle, random_graph, reference_is_planar
from surfcount.graph import Graph, complete_graph, cycle_graph
from surfcount.planarity import is_planar


def k33(missing=()):
    return Graph.build(6, [(i, j) for i in range(3) for j in range(3, 6)
                           if (i, j) not in missing])


def test_classical_examples():
    assert is_planar(complete_graph(4))
    assert not is_planar(complete_graph(5))
    assert not is_planar(k33())
    assert is_planar(k33(missing=[(0, 3)]))
    assert is_planar(cycle_graph(12))


def test_petersen_nonplanar():
    pet = Graph.build(10, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
                           (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
                           (0, 5), (1, 6), (2, 7), (3, 8), (4, 9)])
    assert not is_planar(pet)


def test_no_size_cap():
    """is_planar has no vertex cap: a grown 600-vertex triangulation is
    planar, and the same graph beside a disjoint K5 is not."""
    from surfcount.constructions import split_growth
    from surfcount.surfaces import sphere_irreducible

    g = split_growth(sphere_irreducible(), 600).graph
    assert g.n == 600 and is_planar(g)
    k5 = {(a + g.n, b + g.n) for a, b in complete_graph(5).edges}
    assert not is_planar(Graph.build(g.n + 5, set(g.edges) | k5))


def test_large_grid_planar():
    def grid(r, c):
        idx = lambda i, j: i * c + j
        es = []
        for i in range(r):
            for j in range(c):
                if j + 1 < c:
                    es.append((idx(i, j), idx(i, j + 1)))
                if i + 1 < r:
                    es.append((idx(i, j), idx(i + 1, j)))
        return Graph.build(r * c, es)

    g = grid(22, 22)
    assert is_planar(g)
    # attach a K5 to break planarity
    n = g.n
    es = set(g.edges) | {(a + n, b + n) for a, b in complete_graph(5).edges} | {(0, n)}
    assert not is_planar(Graph.build(n + 5, es))


def test_exhaustive_small_against_minor_oracle():
    for n in range(1, 6):
        pairs = list(combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            g = Graph.build(n, [e for i, e in enumerate(pairs) if bits >> i & 1])
            assert is_planar(g) == planar_oracle(g), sorted(g.edges)


def test_random_against_minor_oracle():
    rng = random.Random(20240811)
    for _ in range(250):
        n = rng.choice([6, 7, 8])
        p = rng.choice([0.15, 0.3, 0.45, 0.6, 0.75])
        g = random_graph(rng, n, p)
        assert is_planar(g) == planar_oracle(g), sorted(g.edges)


def test_grown_triangulations():
    from surfcount.constructions import split_growth
    from surfcount.surfaces import projective_k6, sphere_irreducible

    sphere = split_growth(sphere_irreducible(), 60)
    assert is_planar(sphere.graph)  # a maximal planar graph
    projective = split_growth(projective_k6(), 60)
    assert not is_planar(projective.graph)  # genus 1 stays non-planar


def test_contraction_preserves_planarity():
    rng = random.Random(11)
    checked = 0
    while checked < 40:
        g = random_graph(rng, rng.randint(4, 9), 0.35)
        if not is_planar(g) or not g.edges:
            continue
        checked += 1
        for e in g.sorted_edges():
            assert is_planar(contract_edge_simple(g, e))


# -- known answers at sizes the left-right test must decide ------------------

K5_LINKS = [(a, b) for a in range(5) for b in range(a + 1, 5)]
K33_LINKS = [(a, b) for a in range(3) for b in range(3, 6)]


def _grid_edges(r, c):
    return ([(i * c + j, i * c + j + 1) for i in range(r) for j in range(c - 1)]
            + [(i * c + j, (i + 1) * c + j) for i in range(r - 1) for j in range(c)])


def _stacked_edges(rng, n):
    """A random stacked triangulation of the sphere on n >= 4 vertices:
    each new vertex goes inside a face and is joined to its corners."""
    edges = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    faces = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    for x in range(4, n):
        i = rng.randrange(len(faces))
        a, b, c = faces[i]
        faces[i] = (a, b, x)
        faces += [(b, c, x), (a, c, x)]
        edges += [(a, x), (b, x), (c, x)]
    return edges


def _drop(rng, edges, share):
    return rng.sample(edges, len(edges) - int(share * len(edges)))


def _plant(rng, n, edges, links, most_fresh=20):
    """The host plus a subdivided K5 or K3,3: its branch vertices are host
    vertices, and each of its edges is a path through 0 to ``most_fresh``
    fresh ones."""
    branch = rng.sample(range(n), 1 + max(map(max, links)))
    edges = list(edges)
    for a, b in links:
        fresh = rng.randint(0, most_fresh)
        path = [branch[a], *range(n, n + fresh), branch[b]]
        edges += zip(path, path[1:])
        n += fresh
    return Graph.build(n, edges)


def _sparse(g):
    """The Euler count alone cannot reject g."""
    assert g.m <= 3 * g.n - 6
    return g


def test_planted_subdivisions_nonplanar():
    """Graphs of 100-2000 vertices that contain a subdivided K5 or K3,3."""
    rng = random.Random(151)
    for side, links in [(10, K5_LINKS), (10, K33_LINKS), (24, K5_LINKS),
                        (32, K33_LINKS), (42, K5_LINKS), (42, K33_LINKS)]:
        g = _sparse(_plant(rng, side * side, _grid_edges(side, side), links))
        assert not is_planar(g), (side, len(links))
    for n, links in [(100, K5_LINKS), (100, K33_LINKS), (500, K33_LINKS),
                     (900, K5_LINKS), (1800, K5_LINKS), (1800, K33_LINKS)]:
        host = _drop(rng, _stacked_edges(rng, n), 0.1)
        g = _sparse(_plant(rng, n, host, links))
        assert not is_planar(g), (n, len(links))


def test_known_planar_hosts():
    """Grids with one diagonal in some faces, and stacked triangulations
    with some edges deleted."""
    rng = random.Random(152)
    for r, c in [(10, 10), (17, 31), (30, 30), (44, 45)]:
        edges = _grid_edges(r, c)
        for i in range(r - 1):
            for j in range(c - 1):
                if rng.random() < 0.5:  # one diagonal of the face at (i, j)
                    k = i * c + j
                    edges.append(rng.choice([(k, k + c + 1), (k + 1, k + c)]))
        assert is_planar(_sparse(Graph.build(r * c, edges))), (r, c)
    for n, share in [(100, 0.05), (700, 0.01), (1500, 0.2), (2000, 0.001)]:
        g = _sparse(Graph.build(n, _drop(rng, _stacked_edges(rng, n), share)))
        assert is_planar(g), n


def _sparse_edges(rng, n):
    return sorted(random_graph(rng, n, rng.uniform(0.5, 4) / n).edges)


def _near_maximal_edges(rng, n):
    """A stacked triangulation less 1-6 edges, plus as many random pairs
    at most, so m stays at most 3n - 6."""
    edges = _stacked_edges(rng, n)
    k = rng.randint(1, 6)
    return rng.sample(edges, len(edges) - k) + [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, k))]


def _differential_graphs(rng):
    """400 seeded graphs of 5-60 vertices of each kind: sparse, near
    3n - 6, several components, and a stacked triangulation less some
    edges with a planted K5 or K3,3 subdivision."""
    for i in range(2000):
        kind = i % 5
        if kind == 0:
            n = rng.randint(5, 60)
            yield Graph.build(n, _sparse_edges(rng, n))
        elif kind == 1:
            n = rng.randint(5, 60)
            yield Graph.build(n, _near_maximal_edges(rng, n))
        elif kind == 2:  # 2-4 components, each sparse or near 3n - 6
            n, edges = 0, []
            for _ in range(rng.randint(2, 4)):
                size = rng.randint(4, 15)
                piece = rng.choice([_sparse_edges, _near_maximal_edges])(rng, size)
                edges += [(u + n, v + n) for u, v in piece]
                n += size
            yield Graph.build(n, edges)
        else:
            n = rng.randint(6, 40)
            host = _drop(rng, _stacked_edges(rng, n), rng.uniform(0.1, 0.3))
            links = K5_LINKS if kind == 3 else K33_LINKS
            yield _plant(rng, n, host, links, most_fresh=2)


def test_agrees_with_reference_implementation():
    """The left-right test over darts answers as the class-based reference
    translation in tests/support.py does, on sizes the minor oracle cannot
    reach. Most graphs pass the Euler count, with both answers common."""
    rng = random.Random(20261020)
    tested = {True: 0, False: 0}
    for g in _differential_graphs(rng):
        assert 5 <= g.n <= 60
        answer = is_planar(g)
        assert answer == reference_is_planar(g), (g.n, sorted(g.edges))
        if g.m <= 3 * g.n - 6:
            tested[answer] += 1
    assert min(tested.values()) >= 500, tested

import copy
import inspect
import random
import sys
from itertools import combinations
from pathlib import Path

import pytest

from support import (brute_cut_vertices, disjoint_union, per_vertex_pair_scan,
                     random_connected_graph, random_graph, random_stacked,
                     slow_multigraph_is_minor, slow_spqrk_build)
from surfcount import spqrk
from surfcount.errors import InternalInvariantError, PreconditionError
from surfcount.graph import Graph, blocks, complete_graph, cycle_graph, path_graph
from surfcount.spqrk import (
    REAL,
    VIRTUAL,
    SpqrkNode,
    serialize_spqrk,
    spqrk_build,
    spqrk_validate,
)


def kinds(tree):
    return sorted(node.kind for node in tree.nodes)


def test_single_node_cases():
    assert kinds(spqrk_build(cycle_graph(5))) == ["S"]
    assert kinds(spqrk_build(complete_graph(2))) == ["K"]
    assert kinds(spqrk_build(complete_graph(1))) == ["K"]
    assert kinds(spqrk_build(complete_graph(4))) == ["R"]


def test_bowtie_q_node():
    g = Graph.build(5, [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)])
    tree = spqrk_build(g)
    assert kinds(tree) == ["Q", "S", "S"]
    q = next(n for n in tree.nodes if n.kind == "Q")
    assert q.vertices == (0,) and q.edges == []
    assert spqrk_validate(tree, g)


def test_diamond_p_node():
    g = Graph.build(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)])
    tree = spqrk_build(g)
    assert kinds(tree) == ["P", "S", "S"]
    p = next(n for n in tree.nodes if n.kind == "P")
    flags = sorted(flag for _, _, flag in p.edges)
    assert flags == [REAL, VIRTUAL, VIRTUAL]
    assert spqrk_validate(tree, g)


def test_theta_p_node_no_real():
    theta = Graph.build(5, [(0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 1)])
    tree = spqrk_build(theta)
    p = next(n for n in tree.nodes if n.kind == "P")
    assert sorted(flag for _, _, flag in p.edges) == [VIRTUAL] * 3
    assert spqrk_validate(tree, theta)


def test_pair_scan_guard():
    """A pair scan that finds nothing in a 2-connected graph, not a cycle,
    with a vertex of degree 2 has skipped the pair it needed, and raises;
    the per-vertex oracle gives the same three answers."""
    theta = Graph.build(5, [(0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 1)])
    for scan in (lambda g, start: spqrk._separating_pair(g, start, spqrk._pair_vertices(g)),
                 per_vertex_pair_scan):
        assert scan(theta, 0) == (0, 1)
        with pytest.raises(InternalInvariantError):
            scan(theta, 1)
        assert scan(complete_graph(4), 0) is None


@pytest.fixture
def pair_scans(monkeypatch):
    """Check each pair the builder picks, on each piece it scans, against
    the per-vertex scan over all x >= start; the pairs found are recorded."""
    found = []
    scan = spqrk._separating_pair

    def checked(g, start, flagged):
        pair = scan(g, start, flagged)
        assert pair == per_vertex_pair_scan(g, start), (sorted(g.edges), start)
        found.append(pair)
        return pair
    monkeypatch.setattr(spqrk, "_separating_pair", checked)
    return found


def test_path_decomposition():
    tree = spqrk_build(path_graph(4))
    assert kinds(tree) == ["K", "K", "K", "Q", "Q"]
    assert spqrk_validate(tree, path_graph(4))


def test_disconnected_rejected():
    with pytest.raises(PreconditionError):
        spqrk_build(disjoint_union(complete_graph(2), complete_graph(2)))


def test_random_build_validate(pair_scans):
    rng = random.Random(90210)
    for _ in range(100):
        g = random_connected_graph(rng, rng.randint(1, 10),
                                   rng.choice([0.0, 0.15, 0.3, 0.5]))
        tree = spqrk_build(g)
        assert spqrk_validate(tree, g), sorted(g.edges)
    assert None in pair_scans and len(pair_scans) > 10


def test_validate_detects_tampering():
    g = Graph.build(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)])
    tree = spqrk_build(g)
    for node in tree.nodes:
        for j, (u, v, flag) in enumerate(node.edges):
            if flag == REAL:
                node.edges[j] = (u, v, VIRTUAL)
                assert not spqrk_validate(tree, g)
                node.edges[j] = (u, v, flag)
                break
        else:
            continue
        break
    tree = spqrk_build(g)
    tree.nodes[0].edges.append((2, 3, REAL))  # not an edge of g
    assert not spqrk_validate(tree, g)
    tree = spqrk_build(g)
    tree.nodes[1].edges.remove((1, 2, REAL))
    tree.nodes[2].edges.append((1, 2, REAL))  # its node lacks vertex 2
    assert not spqrk_validate(tree, g)
    tree = spqrk_build(g)
    tree.nodes[0].vertices = (0, 1, 0)  # two branch sets cannot share a vertex
    assert not spqrk_validate(tree, g)


def test_serialization():
    g = Graph.build(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)])
    text = serialize_spqrk(spqrk_build(g))
    lines = text.splitlines()
    assert lines[0].startswith("P {0,1}")
    assert all("[R]" in ln or "[V]" in ln for ln in lines)
    assert lines[1].startswith("  ")  # indented children


def test_deep_path_needs_no_recursion():
    """Building and serializing a 400-vertex path, whose tree is 796
    levels deep, fits in 100 frames above the caller's."""
    g = path_graph(400)
    limit = sys.getrecursionlimit()
    depth = len(inspect.stack())
    sys.setrecursionlimit(depth + 100)
    try:
        tree = spqrk_build(g)
        text = serialize_spqrk(tree)
    finally:
        sys.setrecursionlimit(limit)
    assert len(tree.nodes) == 797 and len(text.splitlines()) == 797
    assert text.splitlines()[-1] == "  " * 795 + "K {398,399} 398-399[R]"


def test_long_path_tree():
    """A 20000-vertex path gives one Q node per inner vertex and one K node
    per edge. Its indented text is quadratic in size, so it is not
    serialized."""
    g = path_graph(20000)
    tree = spqrk_build(g)
    assert len(tree.nodes) == 39997
    assert kinds(tree).count("Q") == 19998 and kinds(tree).count("K") == 19999
    assert spqrk_validate(tree, g)


def test_witness_check_is_sound():
    """On random nodes with parallel edges, the check of the tree's own
    witness says True only where the exhaustive oracle finds a minor. It
    tries no other witness, so it may say False where the oracle says True:
    on 14 of these 200 nodes."""
    rng = random.Random(1618)
    outcomes = []
    for _ in range(200):
        g = random_graph(rng, rng.randint(2, 6), rng.choice([0.3, 0.5, 0.8]))
        roots = sorted(rng.sample(range(g.n), rng.randint(2, min(4, g.n))))
        edges = [(*sorted(rng.sample(roots, 2)), rng.choice([REAL, VIRTUAL]))
                 for _ in range(rng.randint(0, 5))]
        node = SpqrkNode("K", tuple(roots), edges)
        outcomes.append((spqrk._witness_is_minor(node, g), slow_multigraph_is_minor(node, g)))
        assert outcomes[-1] != (True, False), (sorted(g.edges), node)
    assert 40 < sum(slow for _, slow in outcomes) < 160
    assert sum(fast == slow for fast, slow in outcomes) == 186


def test_witness_check_misses_other_witnesses():
    """The triangle x, y, z is a minor of g = {xa, ya, ab, by, bz} with a in
    x's branch set and b in z's. The component {a, b} goes whole to x, its
    least attachment, which leaves no g-edge between y and z."""
    x, y, z, a, b = range(5)
    g = Graph.build(5, [(x, a), (y, a), (a, b), (b, y), (b, z)])
    triangle = SpqrkNode("K", (x, y, z), [(x, y, VIRTUAL), (x, z, VIRTUAL), (y, z, VIRTUAL)])
    assert slow_multigraph_is_minor(triangle, g)
    assert not spqrk._witness_is_minor(triangle, g)


def test_articulation_runs(monkeypatch):
    """Cut vertices come from one block decomposition, so a path needs no
    articulation search. A pair scan tries only the vertices its block's
    lowpoint pass flags: a grid's 2-cuts are the neighbours of its corners,
    so a grid of any size needs a dozen searches, and a wheel none."""
    calls = []
    search = spqrk.articulation_points
    monkeypatch.setattr(spqrk, "articulation_points",
                        lambda g, removed=(): calls.append(removed) or search(g, removed))
    spqrk_build(path_graph(150))
    assert calls == []
    for g in (_grid(9), _grid(40)):
        calls.clear()
        spqrk_build(g)
        assert 0 < len(calls) <= 16
    calls.clear()
    spqrk_build(_wheel(500))
    assert calls == []


def _shuffled(g, rng):
    """g relabelled at random, with each neighbour list in random order:
    the depth-first search starts and turns elsewhere."""
    perm = rng.sample(range(g.n), g.n)
    g = Graph.build(g.n, [(perm[u], perm[v]) for u, v in g.edges])
    vars(g)["adj"] = tuple(tuple(rng.sample(sorted(a), len(a))) for a in g.adj)
    return g


def _subdivided(rng, g, p):
    """g with each edge, with probability p, replaced by a path of 2-4 edges."""
    n, edges = g.n, []
    for u, v in sorted(g.edges):
        inner = list(range(n, n + rng.randint(1, 3))) if rng.random() < p else []
        n += len(inner)
        path = [u, *inner, v]
        edges += zip(path, path[1:])
    return Graph.build(n, edges)


def _random_piece(rng, glued=True):
    """A 2-connected graph: a subdivided wheel, a K3,t, a stacked
    triangulation with subdivided edges, a cycle with chords, or two to
    four of these glued at pairs of vertices."""
    kind = rng.randrange(5 if glued else 4)
    if kind == 0:
        return _subdivided(rng, _wheel(rng.randint(3, 9)), 0.3)
    if kind == 1:
        t = rng.randint(2, 8)
        return Graph.build(3 + t, [(a, 3 + i) for a in range(3) for i in range(t)])
    if kind == 2:
        return _subdivided(rng, random_stacked(rng, rng.randint(4, 10))[0].graph, 0.2)
    if kind == 3:
        k = rng.randint(4, 20)
        return Graph.build(k, [(i, (i + 1) % k) for i in range(k)]
                           + [(i, j) for i, j in combinations(range(k), 2)
                              if 1 < j - i < k - 1 and rng.random() < 3 / k ** 2])
    g = _random_piece(rng, False)
    for _ in range(rng.randint(1, 3)):
        piece = _random_piece(rng, False)
        a, b = rng.sample(range(g.n), 2)
        where = [a, b, *range(g.n, g.n + piece.n - 2)]
        g = Graph.build(g.n + piece.n - 2,
                        [*g.edges, *((where[u], where[v]) for u, v in piece.edges)])
    return g


def test_pair_vertices_match_brute_force():
    """The lowpoint pass flags exactly the vertices x for which g - x has a
    cut vertex: on every 2-connected graph of up to 5 vertices, on seeded
    2-connected pieces of up to 40 vertices with shuffled neighbour lists,
    and on grids, necklaces and ladders."""
    def check(g):
        assert spqrk._pair_vertices(g) == [bool(brute_cut_vertices(g, (x,))) for x in range(g.n)], \
            sorted(g.edges)
    for n in range(3, 6):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            g = Graph.build(n, [e for k, e in enumerate(pairs) if mask >> k & 1])
            if blocks(g) == [tuple(range(n))]:
                check(g)
    rng = random.Random(4242)
    pieces = 0
    while pieces < 500:
        g = _random_piece(rng)
        if g.n <= 40:
            check(_shuffled(g, rng))
            pieces += 1
    for g in [_grid(k) for k in (2, 3, 5, 7)] + [_necklace(b) for b in (3, 6)] + [
            _ladder(r) for r in (2, 3, 9)]:
        check(g)


def _two_connected_piece(rng):
    """A cycle, alone, with random chords, or with a hub joined to two of
    its vertices or more: always 2-connected."""
    k = rng.randint(3, 7)
    edges = [(i, (i + 1) % k) for i in range(k)]
    kind = rng.randrange(3)
    if kind == 1:
        edges += [(i, j) for i in range(k) for j in range(i + 2, k)
                  if (i, j) != (0, k - 1) and rng.random() < 0.3]
    elif kind == 2:
        edges += [(k, i) for i in range(k) if rng.random() < 0.6 or i < 2]
        k += 1
    return k, edges


def _glued_blocks(rng, pieces):
    """Random 2-connected pieces and bridges, each glued to the graph so far
    at one vertex or at a pair; relabelled at random half of the time."""
    n, edges = 1, set()
    for _ in range(pieces):
        k, piece = (2, [(0, 1)]) if rng.random() < 0.3 else _two_connected_piece(rng)
        glue = rng.sample(range(n), min(rng.choice([1, 2]), n, k - 1))
        where = glue + list(range(n, n + k - len(glue)))
        edges |= {(min(where[u], where[v]), max(where[u], where[v])) for u, v in piece}
        n += k - len(glue)
    perm = rng.sample(range(n), n) if rng.random() < 0.5 else list(range(n))
    return Graph.build(n, [(perm[u], perm[v]) for u, v in edges])


def test_matches_slow_builder_on_glued_graphs(pair_scans):
    rng = random.Random(2718)
    for _ in range(300):
        g = _glued_blocks(rng, rng.randint(1, 6))
        fast, slow = spqrk_build(g), slow_spqrk_build(g)
        assert serialize_spqrk(fast) == serialize_spqrk(slow), sorted(g.edges)
        assert fast.tree_edges == slow.tree_edges
    assert None in pair_scans and len(pair_scans) > 100


def _glue_at_vertices(rng, parts):
    """The parts one after another, each but the first with one of its
    vertices glued to a random vertex of the graph so far."""
    n, edges = parts[0].n, list(parts[0].edges)
    for part in parts[1:]:
        glue = rng.randrange(part.n)
        where = [n + v - (v > glue) for v in range(part.n)]
        where[glue] = rng.randrange(n)
        edges += [(where[u], where[v]) for u, v in part.edges]
        n += part.n - 1
    return Graph.build(n, edges)


def _deeply_nested(rng):
    """Ladders of 30-80 rungs with pendants on random vertices, ladders
    glued to each other, necklaces, and wheels glued at vertices: P levels
    nest as deep as the rungs, and Q links land on vertices of P pairs."""
    yield _glue_at_vertices(rng, [_ladder(rng.randint(30, 80))]
                            + [complete_graph(2)] * rng.randint(1, 40))
    yield _glue_at_vertices(rng, [_ladder(rng.randint(3, 12)) for _ in range(rng.randint(2, 5))])
    yield _glue_at_vertices(rng, [_necklace(rng.randint(3, 12))]
                            + [complete_graph(2)] * rng.randint(0, 6))
    yield _glue_at_vertices(rng, [_wheel(rng.randint(3, 8)) for _ in range(rng.randint(2, 6))])


def test_matches_slow_builder_where_links_nest(pair_scans):
    rng = random.Random(1996)
    for _ in range(12):
        for g in _deeply_nested(rng):
            fast, slow = spqrk_build(g), slow_spqrk_build(g)
            assert [(n.kind, n.vertices, n.edges) for n in fast.nodes] == [
                (n.kind, n.vertices, n.edges) for n in slow.nodes], sorted(g.edges)
            assert fast.tree_edges == slow.tree_edges
    assert len(pair_scans) > 100


def test_builder_invariant_checks():
    """A pair's virtual edge that lands in two nodes raises, and so does a
    cut vertex held by two nodes of its block whose first holder is not a P
    node; a first holder that is a P node stays the anchor."""
    builder = spqrk._Builder()
    builder.anchor[0, 1] = None
    builder.add_node(SpqrkNode("S", (0, 1, 2), [(0, 1, REAL), (0, 2, REAL), (1, 2, REAL)]))
    assert builder.nodes[0].edges[0] == (0, 1, VIRTUAL) and builder.anchor[0, 1] == 0
    with pytest.raises(InternalInvariantError):
        builder.add_node(SpqrkNode("K", (0, 1), [(0, 1, REAL)]))
    builder.anchor[2] = None
    builder.add_node(SpqrkNode("P", (2, 3), [(2, 3, VIRTUAL), (2, 3, VIRTUAL)]))
    builder.add_node(SpqrkNode("S", (2, 3, 4), [(2, 3, REAL), (2, 4, REAL), (3, 4, REAL)]))
    assert builder.anchor[2] == 1
    builder.anchor[5] = None
    builder.add_node(SpqrkNode("K", (5, 6), [(5, 6, REAL)]))
    with pytest.raises(InternalInvariantError):
        builder.add_node(SpqrkNode("K", (5, 7), [(5, 7, REAL)]))


def _k5_node(tree):
    corners = (0, 2, 4, 6, 8)
    tree.nodes.append(SpqrkNode("K", corners, [(u, v, VIRTUAL) for u, v in combinations(corners, 2)]))
    tree.tree_edges.append((0, len(tree.nodes) - 1))


def test_validate_rejects_mutated_trees():
    """Each mutation of the 3x3 grid's tree breaks one invariant that
    spqrk_validate checks."""
    g = _grid(3)
    tree = spqrk_build(g)
    assert spqrk_validate(tree, g)
    mutations = [
        lambda t: t.nodes[1].edges.remove((0, 1, REAL)),
        lambda t: t.nodes[1].edges.append((0, 1, REAL)),
        lambda t: setattr(t.nodes[0], "kind", "X"),
        lambda t: t.tree_edges.__setitem__(0, (0, 0)),
        lambda t: t.tree_edges.append((1, 2)),
        lambda t: setattr(t.nodes[0], "vertices", t.nodes[0].vertices + (g.n,)),
        lambda t: t.nodes[1].edges.append((0, 4, REAL)),
        _k5_node,
    ]
    for mutate in mutations:
        bad = copy.deepcopy(tree)
        mutate(bad)
        assert not spqrk_validate(bad, g)
    # links outside the tree: past its end, or negative (which must not wrap)
    g = Graph.build(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)])
    tree = spqrk_build(g)
    assert spqrk_validate(tree, g)
    for link in [(0, len(tree.nodes) + 3), (0, -4)]:
        bad = copy.deepcopy(tree)
        bad.tree_edges[bad.tree_edges.index((0, 1))] = link
        assert not spqrk_validate(bad, g)

GOLDEN = Path(__file__).parent / "data" / "spqrk_golden.txt"


def _grid(k):
    return Graph.build(k * k, [(r * k + c, r * k + c + 1) for r in range(k) for c in range(k - 1)]
                       + [(r * k + c, (r + 1) * k + c) for r in range(k - 1) for c in range(k)])


def _wheel(rim):
    return Graph.build(rim + 1, [(0, i) for i in range(1, rim + 1)]
                       + [(i, i % rim + 1) for i in range(1, rim + 1)])


def _necklace(beads):
    """K4s in a ring, bead i's vertex 3 joined to bead i+1's vertex 0."""
    edges = [(4 * b + i, 4 * b + j) for b in range(beads)
             for i in range(4) for j in range(i + 1, 4)]
    edges += [(4 * b + 3, 4 * ((b + 1) % beads)) for b in range(beads)]
    return Graph.build(4 * beads, edges)


@pytest.mark.parametrize("g", [cycle_graph(3000), _wheel(1500)], ids=["cycle3000", "wheel1500"])
def test_validate_node_with_thousands_of_edges(g):
    """One S or R node holds every edge, each real and matched to its own
    g-edge by the partition check, so no witness search runs."""
    tree = spqrk_build(g)
    assert len(tree.nodes) == 1
    assert spqrk_validate(tree, g)


def _ladder(rungs):
    return Graph.build(2 * rungs, [(2 * i, 2 * i + 1) for i in range(rungs)]
                       + [(2 * i + s, 2 * i + 2 + s) for i in range(rungs - 1) for s in (0, 1)])


def _golden_graphs():
    rng = random.Random(4711)
    graphs = [(f"random{i}", random_connected_graph(rng, rng.randint(1, 16),
                                                    rng.choice([0.0, 0.1, 0.2, 0.35])))
              for i in range(100)]
    return graphs + [("grid6", _grid(6)), ("wheel30", _wheel(30)),
                     ("necklace8", _necklace(8)), ("path60", path_graph(60))]


def golden_text(build=spqrk_build):
    """Serialized trees of the golden graphs, each after a ``# name`` line."""
    return "".join(f"# {name}\n{serialize_spqrk(build(g))}" for name, g in _golden_graphs())


# an R node {1,3,5,7,10,11} with 8 vertices outside it
_GRAPH14 = Graph.build(14, [(0, 5), (0, 10), (1, 3), (1, 4), (1, 5), (1, 7), (2, 3), (2, 6),
                            (2, 9), (2, 12), (3, 8), (3, 10), (3, 11), (4, 13), (5, 11),
                            (6, 7), (7, 10), (7, 11), (7, 12), (8, 9)])


@pytest.mark.parametrize("g", [pytest.param(g, id=name) for name, g in _golden_graphs()
                               + [("graph14", _GRAPH14), ("ladder1500", _ladder(1500))]])
def test_builder_trees_validate(g):
    """spqrk_validate accepts every tree the builder makes: a node's
    virtual edges are matched through the components the tree hangs off
    it, so no search over branch sets is needed."""
    assert spqrk_validate(spqrk_build(g), g)


def test_golden_trees():
    assert golden_text() == GOLDEN.read_text()


if __name__ == "__main__":
    # rewrites the golden file from the slow oracle, never from the fast
    # builder under test; only for an intended change of the trees
    GOLDEN.write_text(golden_text(slow_spqrk_build))

import random
from pathlib import Path

import pytest

from support import (
    disjoint_union, random_connected_graph, random_tree, slow_lower_bound_graph, slow_split,
    slow_split_growth)
from surfcount import embedding
from surfcount.constructions import lower_bound_graph, split_growth, tree_blowup
from surfcount.counting import count_cliques, count_copies
from surfcount.embedding import (
    EmbeddedGraph,
    euler_genus,
    face_vertices,
    is_triangulation,
    parse_embedding,
    serialize_embedding,
    split_triangle,
    switch_vertex,
)
from surfcount.errors import PreconditionError
from surfcount.flaps import flap_number, tree_beta
from surfcount.graph import complete_graph, path_graph, serialize_graph
from surfcount.planarity import is_planar
from surfcount.surfaces import load_bundled, projective_k6, sphere_irreducible

DATA = Path(__file__).parent / "data"


def test_paste_p3():
    out = lower_bound_graph(path_graph(3), 12)
    assert out.n <= 12
    q = 12 // 3 - 1
    assert count_copies(path_graph(3), out) >= q ** 2


def test_paste_k4_flapless():
    out = lower_bound_graph(complete_graph(4), 16)
    assert out.n <= 16
    assert count_copies(complete_graph(4), out) >= 3


def test_paste_errors():
    with pytest.raises(PreconditionError, match="strongly non-planar"):
        lower_bound_graph(complete_graph(5), 40)
    with pytest.raises(PreconditionError, match="connected"):
        lower_bound_graph(disjoint_union(path_graph(2), path_graph(2)), 64)
    with pytest.raises(PreconditionError, match="4"):
        lower_bound_graph(path_graph(3), 8)


def test_paste_guarantee_random():
    rng = random.Random(271)
    checked = 0
    while checked < 25:
        h = random_connected_graph(rng, rng.randint(2, 5), rng.choice([0.0, 0.3]))
        k = flap_number(h)
        if k < 1:
            continue
        n = rng.choice([4 * h.n, 5 * h.n, 24])
        if n < 4 * h.n:
            continue
        out = lower_bound_graph(h, n)
        checked += 1
        q = n // h.n - 1
        assert out.n <= n
        assert count_copies(h, out) >= q ** k
        if is_planar(h):
            assert is_planar(out)


def test_paste_matches_relabelling_oracle():
    """Sides taken straight from H's edges give the graph that building
    each side as a relabelled induced subgraph gives, or the same refusal,
    on seeded connected patterns at n = 4|H|, 4|H| + 7 and 10|H|."""
    rng = random.Random(4417)
    pasted = 0
    for _ in range(300):
        h = random_connected_graph(rng, rng.randint(3, 9), rng.choice([0.0, 0.2, 0.5]))
        for n in (4 * h.n, 4 * h.n + 7, 10 * h.n):
            try:
                want = serialize_graph(slow_lower_bound_graph(h, n))
            except PreconditionError as exc:
                with pytest.raises(PreconditionError) as got:
                    lower_bound_graph(h, n)
                assert str(got.value) == str(exc)
                continue
            assert serialize_graph(lower_bound_graph(h, n)) == want
            pasted += 1
    assert pasted >= 600


def test_blowup_examples():
    out = tree_blowup(path_graph(3), 10)
    assert out.n <= 10 and is_planar(out)
    assert count_copies(path_graph(3), out) >= ((10 - 3) // 2) ** 2
    out = tree_blowup(complete_graph(2), 8)
    assert count_copies(complete_graph(2), out) >= 6


def test_blowup_errors():
    with pytest.raises(PreconditionError):
        tree_blowup(complete_graph(3), 30)
    with pytest.raises(PreconditionError):
        tree_blowup(path_graph(4), 6)


def test_blowup_random_trees():
    rng = random.Random(615)
    for _ in range(40):
        t = random_tree(rng, rng.randint(2, 9))
        n = rng.choice([2 * t.n, 3 * t.n + 1, 30])
        if n < 2 * t.n:
            continue
        out = tree_blowup(t, n)
        beta = tree_beta(t)
        q = (n - t.n) // beta
        assert out.n <= n
        assert is_planar(out)
        assert count_copies(t, out) >= q ** beta


def test_split_growth_sphere():
    seed = sphere_irreducible()
    for n in (4, 5, 9, 17, 30):
        eg = split_growth(seed, n)
        assert eg.n == n
        assert euler_genus(eg) == 0 and is_triangulation(eg)
        assert count_cliques(eg.graph, 3) == 3 * n - 8
        assert count_cliques(eg.graph, 4) == n - 3


def test_split_growth_projective():
    seed = projective_k6()
    eg = split_growth(seed, 12)
    assert count_cliques(eg.graph, 3) == 3 * 12 + 2
    assert count_cliques(eg.graph, 4) == 12 + 9
    assert euler_genus(eg) == 1


def test_split_growth_excess_invariance():
    seed = projective_k6()
    eg = seed
    base3 = count_cliques(seed.graph, 3) - 3 * seed.n
    base4 = count_cliques(seed.graph, 4) - seed.n
    for n in range(seed.n + 1, seed.n + 8):
        eg = split_growth(seed, n)
        assert count_cliques(eg.graph, 3) - 3 * n == base3
        assert count_cliques(eg.graph, 4) - n == base4
        assert euler_genus(eg) == 1


def test_split_growth_errors():
    with pytest.raises(PreconditionError):
        split_growth(sphere_irreducible(), 3)


def test_split_growth_traces_once_per_step(monkeypatch):
    """Only the seed is traced: one trace checks it and fills the face
    heap, whatever the target."""
    calls = []

    def counted(eg):
        calls.append(eg.n)
        return trace(eg)

    trace = embedding._trace
    monkeypatch.setattr(embedding, "_trace", counted)
    for n in (60, 600):
        calls.clear()
        assert split_growth(load_bundled("k4_sphere"), n).n == n
        assert len(calls) == 1


def test_split_growth_matches_retracing_oracle():
    """The face heap and the incremental splitter give the embedding that
    retracing every face at every step gives, byte for byte, on randomly
    switched seeds (K3 on the sphere has two faces on one triple); so do
    single splits of the grown embedding after further switches."""
    k3 = EmbeddedGraph.build(complete_graph(3), [(1, 2), (0, 2), (0, 1)])
    seeds = [load_bundled("k4_sphere"), load_bundled("k6_projective"), k3,
             parse_embedding((DATA / "projective_irreducible_7.emb").read_text())]
    rng = random.Random(7301)

    def switched(eg):
        for v in rng.sample(range(eg.n), rng.randint(1, eg.n)):
            eg = switch_vertex(eg, v)
        return eg

    for i in range(44):
        seed = switched(seeds[i % len(seeds)])
        n = rng.randint(seed.n, 60)
        grown = split_growth(seed, n)
        assert serialize_embedding(grown) == serialize_embedding(slow_split_growth(seed, n))
        grown = switched(grown)
        face = rng.choice(face_vertices(grown))
        assert (serialize_embedding(split_triangle(grown, face))
                == serialize_embedding(slow_split(grown, *face)))
    seed = seeds[0]
    assert (serialize_embedding(split_growth(seed, 300))
            == serialize_embedding(slow_split_growth(seed, 300)))

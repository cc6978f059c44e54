"""Acceptance suite: one test per criterion, each printing a PASS line
with its measured runtime. Tolerances and budgets are pinned here, not
configurable."""

import random
import time
from pathlib import Path

from support import (
    literal_flap_number,
    literal_strongly_non_planar,
    random_graph,
    random_tree,
    slow_automorphisms,
)
from surfcount.census import (
    bounds,
    extremal_count,
    lower_bound_applies,
    surface_table,
)
from surfcount.constructions import split_growth, tree_blowup
from surfcount.counting import (
    check_genus_triangle_bound,
    check_goodman,
    count_cliques,
    count_copies,
    count_injective_hom,
    scaling_exponent,
)
from surfcount.embedding import (
    contract_reducible,
    euler_genus,
    face_vertices,
    parse_embedding,
    reducible_edges,
    split_path,
    split_triangle,
)
from surfcount.flaps import (
    flap_family_and_number,
    flap_number,
    flap_reduction,
    is_strongly_non_planar,
    tree_beta,
)
from surfcount.graph import complete_graph, path_graph
from surfcount.surfaces import projective_k6, sphere_irreducible

DATA = Path(__file__).parent / "data"


def _report(number: int, text: str, t0: float) -> None:
    print(f"PASS criterion {number}: {text} [{time.time() - t0:.2f}s]")


def second_projective():
    return parse_embedding((DATA / "projective_irreducible_7.emb").read_text())


def test_criterion_1_complete_graph_flap_numbers():
    t0 = time.time()
    for s in (2, 3, 4):
        assert flap_number(complete_graph(s)) == 1
    for s in (5, 6, 7, 8):
        assert flap_number(complete_graph(s)) == 0
    elapsed = time.time() - t0
    assert elapsed < 1.0, f"runtime budget exceeded: {elapsed:.2f}s"
    _report(1, "flap number of K2..K4 is 1 and of K5..K8 is 0", t0)


def test_criterion_2_tree_flap_number_equals_beta():
    t0 = time.time()
    rng = random.Random(0xC2)
    for _ in range(200):
        t = random_tree(rng, rng.randint(2, 12))
        assert flap_number(t) == tree_beta(t), sorted(t.edges)
    elapsed = time.time() - t0
    assert elapsed < 60.0, f"runtime budget exceeded: {elapsed:.2f}s"
    _report(2, "flap number equals the low-degree stable set number on 200 trees", t0)


def test_criterion_3_definition_level_oracle():
    t0 = time.time()
    rng = random.Random(0xC3)
    for _ in range(500):
        n = rng.choice([8, 9])
        p = rng.choice([0.15, 0.25, 0.35, 0.5])
        g = random_graph(rng, n, p)
        f = flap_number(g)
        assert f == literal_flap_number(g), sorted(g.edges)
        snp = is_strongly_non_planar(g)
        assert (f == 0) == snp, sorted(g.edges)
        assert snp == literal_strongly_non_planar(g), sorted(g.edges)
    elapsed = time.time() - t0
    assert elapsed < 600.0, f"runtime budget exceeded: {elapsed:.2f}s"
    _report(3, "canonical flap number matches the literal definition on 500 graphs", t0)


def test_criterion_4_sphere_row_and_growth():
    t0 = time.time()
    row = surface_table("S0", 0, [sphere_irreducible()], complete=True)
    assert [(e.a, e.b) for e in row.entries] == [
        (0, 1), (1, 0), (3, -6), (3, -8), (1, -3)]
    assert (row.total.a, row.total.b) == (8, -16)
    seed = sphere_irreducible()
    for n in range(4, 31):
        eg = split_growth(seed, n)
        assert count_cliques(eg.graph, 3) == 3 * n - 8
        assert count_cliques(eg.graph, 4) == n - 3
        assert extremal_count(row, 3, n) == 3 * n - 8
        assert extremal_count(row, 4, n) == n - 3
    _report(4, "sphere census row and split growth agree exactly for n=4..30", t0)


def test_criterion_5_projective_row():
    t0 = time.time()
    full = surface_table("N1", 1, [projective_k6(), second_projective()],
                         complete=True)
    assert [(e.a, e.b) for e in full.entries] == [
        (0, 1), (1, 0), (3, -3), (3, 2), (1, 9), (0, 6), (0, 1)]
    assert (full.total.a, full.total.b) == (8, 16)
    assert full.complete
    partial = surface_table("N1", 1, [projective_k6()], complete=False)
    assert not partial.complete
    # documented partial mode: every entry is a valid lower bound, and the
    # bundled K6 in fact attains the full row
    assert [(e.a, e.b) for e in partial.entries] == [(e.a, e.b) for e in full.entries]
    _report(5, "projective-plane census row exact; single-member mode is a lower bound", t0)


def test_criterion_6_scaling_slopes():
    t0 = time.time()
    sizes = [50, 100, 200, 400]
    p5 = path_graph(5)
    rep = scaling_exponent(p5, sizes, lambda n: tree_blowup(p5, n))
    assert abs(rep.slope - 3) <= 0.3, rep.slope
    seed = sphere_irreducible()
    rep = scaling_exponent(complete_graph(4), sizes,
                           lambda n: split_growth(seed, n).graph)
    assert abs(rep.slope - 1) <= 0.3, rep.slope
    p3 = path_graph(3)
    rep = scaling_exponent(p3, sizes, lambda n: tree_blowup(p3, n))
    assert abs(rep.slope - 2) <= 0.3, rep.slope
    elapsed = time.time() - t0
    assert elapsed < 300.0, f"runtime budget exceeded: {elapsed:.2f}s"
    _report(6, "log-log slopes sit within 0.3 of the flap numbers 3, 1, 2", t0)


def test_criterion_7_counting_cross_oracle():
    t0 = time.time()
    rng = random.Random(0xC7)
    for _ in range(300):
        h = random_graph(rng, rng.randint(1, 5), rng.choice([0.25, 0.5, 0.75]))
        g = random_graph(rng, rng.randint(1, 8), rng.choice([0.25, 0.5, 0.75]))
        assert count_copies(h, g) * len(slow_automorphisms(h)) == count_injective_hom(h, g)
    _report(7, "copies times automorphisms equals injective maps on 300 pairs", t0)


def test_criterion_8_flap_reduction():
    t0 = time.time()
    rng = random.Random(0xC8)
    produced = 0
    while produced < 100:
        g = random_graph(rng, rng.randint(4, 9), rng.choice([0.2, 0.3, 0.45, 0.6]))
        k = flap_number(g)
        if k < 1:
            continue
        family = flap_family_and_number(g)[0]
        if not family:
            continue  # flap number 1 via the planar no-separation clause
        produced += 1
        reduced = flap_reduction(g, family)
        assert flap_number(reduced) <= k - 1, sorted(g.edges)
    _report(8, "removing a maximal first flap lowers the flap number on 100 graphs", t0)


def test_criterion_9_inequalities():
    t0 = time.time()
    rng = random.Random(0xC9)
    for _ in range(500):
        g = random_graph(rng, rng.randint(1, 12), rng.choice([0.2, 0.4, 0.6, 0.8]))
        assert check_goodman(g).holds
    rep = check_genus_triangle_bound(complete_graph(4), 0)
    assert rep.holds and rep.lhs == rep.rhs == 4
    seed = sphere_irreducible()
    for n in (6, 11, 19, 30):
        eg = split_growth(seed, n)
        rep = check_genus_triangle_bound(eg.graph, 0)
        assert rep.holds
        # the derivation is tight on triangulations: the triangular face
        # count meets the bound exactly (the subgraph-triangle count can
        # only exceed it)
        assert len(face_vertices(eg)) == rep.rhs
        assert rep.lhs >= rep.rhs
    _report(9, "Goodman holds on 500 graphs; the genus triangle bound is tight "
               "on grown sphere triangulations", t0)


def test_criterion_10_bounds_consistency():
    t0 = time.time()
    for g in range(1, 101):
        for s in (3, 4, 5, 6):
            b = bounds(g, s, n=max(50, g))
            assert b.lower <= b.upper, (g, s)
    rows = [
        surface_table("S0", 0, [sphere_irreducible()], complete=True),
        surface_table("N1", 1, [projective_k6(), second_projective()], complete=True),
    ]
    for row in rows:
        if row.genus < 1:
            continue  # the explicit bounds are stated for genus >= 1
        for s in (3, 4, 5, 6):
            for n in (20, 60, 100):
                value = extremal_count(row, s, n)
                b = bounds(row.genus, s, n)
                assert value <= b.upper, (row.surface, s, n)
                if lower_bound_applies(row.genus, s):
                    assert b.lower <= value, (row.surface, s, n)
    _report(10, "bounds are ordered for g=1..100 and contain the census values "
                "wherever their derivations apply", t0)


def test_criterion_11_surgery_round_trip():
    t0 = time.time()
    rng = random.Random(0xC11)
    seeds = [sphere_irreducible(), projective_k6()]
    for trial in range(50):
        seed = seeds[trial % 2]
        eg = split_growth(seed, seed.n + rng.randint(2, 8))
        genus = euler_genus(eg)
        faces_before = sorted(tuple(sorted(f)) for f in face_vertices(eg))
        # split then contract
        tri = tuple(sorted(rng.choice(face_vertices(eg))))
        grown = split_triangle(eg, tri)
        back = contract_reducible(grown, (tri[1], grown.n - 1))
        assert sorted(tuple(sorted(f)) for f in face_vertices(back)) == faces_before
        assert euler_genus(back) == genus
        # contract then split
        v, w = rng.choice(reducible_edges(eg))
        thirds = sorted(eg.graph.adj[v] & eg.graph.adj[w])
        contracted = contract_reducible(eg, (v, w))
        assert euler_genus(contracted) == genus

        def remap(u):
            return u if u < w else u - 1

        expected = sorted(
            tuple(sorted((remap(u) if u != w else contracted.n) for u in tri))
            for tri in faces_before)
        restored = False
        for a, b in ((thirds[0], thirds[1]), (thirds[1], thirds[0])):
            candidate = split_path(contracted, remap(a), remap(v), remap(b))
            got = sorted(tuple(sorted(f)) for f in face_vertices(candidate))
            if got == expected and euler_genus(candidate) == genus:
                restored = True
                break
        assert restored, (sorted(eg.graph.edges), (v, w))
    _report(11, "split/contract round trips restore faces and genus on 50 "
                "grown triangulations", t0)

from pathlib import Path

import pytest

from support import OCTA_FACES, slow_embedding_from_faces
from surfcount.census import (
    _max_excess,
    bounds,
    extremal_count,
    is_irreducible,
    lower_bound_applies,
    render_table,
    surface_table,
)
from surfcount.counting import count_cliques
from surfcount.embedding import parse_embedding
from surfcount.errors import PreconditionError
from surfcount.surfaces import projective_k6, sphere_irreducible

DATA = Path(__file__).parent / "data"

def second_projective():
    return parse_embedding((DATA / "projective_irreducible_7.emb").read_text())


def test_irreducibility_judgments():
    assert is_irreducible(sphere_irreducible())  # the tetrahedron stays in
    assert is_irreducible(projective_k6())
    assert is_irreducible(second_projective())
    octa = slow_embedding_from_faces(6, OCTA_FACES)
    assert not is_irreducible(octa)


def test_max_excess():
    def max_excess(triangulations, s):
        return _max_excess(triangulations,
                           [count_cliques(eg.graph, s) for eg in triangulations], s)

    phi3, arg3 = max_excess([sphere_irreducible()], 3)
    assert phi3 == -8 and arg3 == [0]
    phi4, arg4 = max_excess([sphere_irreducible()], 4)
    assert phi4 == -3 and arg4 == [0]
    phi3, arg3 = max_excess([projective_k6(), second_projective()], 3)
    assert phi3 == 2 and arg3 == [0]  # 20 - 18 from K6; the 7-vertex one gives 1
    phi4, _ = max_excess([projective_k6(), second_projective()], 4)
    assert phi4 == 9


def test_sphere_row():
    row = surface_table("S0", 0, [sphere_irreducible()], complete=True)
    assert [(e.a, e.b) for e in row.entries] == [
        (0, 1), (1, 0), (3, -6), (3, -8), (1, -3)]
    assert (row.total.a, row.total.b) == (8, -16)
    assert row.n_min == 4
    text = render_table(row)
    assert "3n-8" in text and "n-3" in text and "8n-16" in text


def test_projective_row_full():
    row = surface_table("N1", 1, [projective_k6(), second_projective()], complete=True)
    assert [(e.a, e.b) for e in row.entries] == [
        (0, 1), (1, 0), (3, -3), (3, 2), (1, 9), (0, 6), (0, 1)]
    assert (row.total.a, row.total.b) == (8, 16)
    assert row.complete


def test_projective_row_partial_lower_bounds():
    full = surface_table("N1", 1, [projective_k6(), second_projective()], complete=True)
    part = surface_table("N1", 1, [projective_k6()], complete=False)
    assert not part.complete
    # with K6 alone every entry reproduces as a lower bound (it attains all)
    assert [(e.a, e.b) for e in part.entries] == [(e.a, e.b) for e in full.entries]
    assert ">=" in render_table(part)


def test_list_verification():
    octa = slow_embedding_from_faces(6, OCTA_FACES)
    with pytest.raises(PreconditionError, match="irreducible"):
        surface_table("S0", 0, [octa], complete=True)
    with pytest.raises(PreconditionError, match="genus"):
        surface_table("S0", 0, [projective_k6()], complete=True)
    with pytest.raises(PreconditionError, match="empty"):
        surface_table("S0", 0, [], complete=True)


def test_extremal_count():
    sphere = surface_table("S0", 0, [sphere_irreducible()], complete=True)
    assert extremal_count(sphere, 3, 10) == 22
    assert extremal_count(sphere, 2, 10) == 24
    assert extremal_count(sphere, 0, 10) == 1
    assert extremal_count(sphere, 9, 10) == 0
    with pytest.raises(PreconditionError, match="attained"):
        extremal_count(sphere, 3, 3)
    n1 = surface_table("N1", 1, [projective_k6(), second_projective()], complete=True)
    assert extremal_count(n1, 5, 8) == 6
    assert extremal_count(n1, 6, 6) == 1
    assert extremal_count(n1, 3, 12) == 38
    assert extremal_count(n1, 2, 6) == 15


def test_bounds_values():
    b = bounds(1, 3, 100)
    assert abs(b.lower - (300 + 6 ** 0.5)) < 1e-9
    import math
    assert abs(b.upper - (300 + 10.5 + 270 + 36 * math.log(13))) < 1e-9
    b = bounds(1, 5)
    assert abs(b.lower - (6 ** 0.5 / 5) ** 5) < 1e-12
    assert b.upper == 60.0 ** 5
    b = bounds(4, 4, 50)
    assert b.lower == 50 + 1.5 * 16


def test_bounds_side_conditions():
    with pytest.raises(PreconditionError):
        bounds(0, 3, 100)
    with pytest.raises(PreconditionError):
        bounds(1, 2, 100)
    with pytest.raises(PreconditionError):
        bounds(6, 3, 3)  # n below sqrt(6g)
    with pytest.raises(PreconditionError):
        bounds(1, 3, None)
    assert not lower_bound_applies(1, 3)
    assert lower_bound_applies(4, 3)
    assert lower_bound_applies(1, 4)
    assert not lower_bound_applies(1, 5)
    assert lower_bound_applies(5, 5)


def test_bounds_overflow_is_a_precondition():
    """Bounds past the largest float are refused: a float power out of
    range, an int too large for a float (g inside the sqrt(6g)
    precondition, or n), and float sums that reach infinity without
    raising. Values that fit are the formulas' own."""
    for g, s, n in [(10**6, 400, None), (10**400, 3, 5), (1, 3, 10**400), (10**205, 3, 10**103)]:
        with pytest.raises(PreconditionError, match="overflow a float"):
            bounds(g, s, n)
    assert bounds(10**6, 40).upper == (300 * 10**3 / 40) ** 40
    assert bounds(10**100, 3, 10**51).lower == 3 * 10**51 + 6 ** 0.5 * (10**100) ** 1.5


def test_bounds_consistent_and_contain_census():
    sphere_row = surface_table("S0", 0, [sphere_irreducible()], complete=True)
    n1_row = surface_table("N1", 1, [projective_k6(), second_projective()], complete=True)
    for g in range(1, 101):
        for s in (3, 4, 5, 6):
            b = bounds(g, s, n=max(40, g))
            assert b.lower <= b.upper
    for n in (10, 40, 80):
        for s in (3, 4, 5, 6):
            value = extremal_count(n1_row, s, n)
            b = bounds(1, s, n)
            assert value <= b.upper
            if lower_bound_applies(1, s):
                assert b.lower <= value

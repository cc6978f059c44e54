"""Per-surface clique census: extremal counts of complete subgraphs among
all n-vertex graphs embeddable in a surface of a given Euler genus.

Given the complete list of irreducible triangulations of a surface, the
maximum count of s-cliques over n-vertex embeddable graphs is:

    s = 0 : 1            s = 1 : n          s = 2 : 3(n + g - 2)
    s = 3 : 3n + phi3    s = 4 : n + phi4   s >= 5 : a constant

where phi3 and phi4 are the maximum excesses C(K3) - 3n and C(K4) - n
over the irreducible list, and the s >= 5 constants are the maxima of the
irreducible members' clique counts. Splitting a facial triangle adds one
vertex, three triangles and one K4 and is the excess-preserving growth
move, so the linear forms are attained for every n at or above the size
of an attaining irreducible triangulation.

Completeness of the list is a caller assertion, recorded in the output;
without it every entry is still a valid lower bound (partial mode).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .counting import clique_counts
from .embedding import EmbeddedGraph, euler_genus, is_triangulation, reducible_edges
from .errors import PreconditionError


def is_irreducible(eg: EmbeddedGraph) -> bool:
    """No edge admits the reducible-edge contraction to a smaller proper
    triangulation. The definitional reducible edges (exactly two triangles
    through the edge) only count when both triangles are faces and the
    result keeps at least four vertices, which keeps the tetrahedron
    irreducible."""
    return is_triangulation(eg) and (eg.n <= 4 or not reducible_edges(eg))


@dataclass(frozen=True)
class LinearForm:
    """a*n + b as a census entry."""

    a: int
    b: int

    def at(self, n: int) -> int:
        return self.a * n + self.b

    def render(self) -> str:
        if self.a == 0:
            return str(self.b)
        head = "n" if self.a == 1 else f"{self.a}n"
        if self.b == 0:
            return head
        return f"{head}{'+' if self.b > 0 else '-'}{abs(self.b)}"


@dataclass(frozen=True)
class SurfaceCensus:
    surface: str
    genus: int
    complete: bool
    entries: tuple[LinearForm, ...]  # index s = 0 .. max clique size
    total: LinearForm
    thresholds: tuple[int, ...]  # per-s minimum n at which the entry is attained
    n_min: int

    def as_dict(self) -> dict:
        return {
            "surface": self.surface,
            "genus": self.genus,
            "complete": self.complete,
            "entries": {str(s): asdict(e) for s, e in enumerate(self.entries)},
            "total": asdict(self.total),
            "thresholds": list(self.thresholds),
            "n_min": self.n_min,
        }


def _validate_list(triangulations: list[EmbeddedGraph], genus: int) -> None:
    if not triangulations:
        raise PreconditionError("empty irreducible list")
    for eg in triangulations:
        if not is_triangulation(eg):
            raise PreconditionError("list member is not a triangulation")
        got = euler_genus(eg)
        if got != genus:
            raise PreconditionError(
                f"list member has Euler genus {got}, expected {genus}")
        if not is_irreducible(eg):
            raise PreconditionError("list member is not irreducible")


def _max_excess(triangulations: list[EmbeddedGraph], counts: list[int],
                s: int) -> tuple[int, list[int]]:
    """Maximum excess over the list (C(K3)-3n for s=3, C(K4)-n for s=4),
    from the members' s-clique counts, and the indices attaining it."""
    weight = 3 if s == 3 else 1
    values = [c - weight * eg.n for c, eg in zip(counts, triangulations)]
    phi = max(values)
    return phi, [i for i, v in enumerate(values) if v == phi]


def surface_table(surface: str, genus: int, triangulations: list[EmbeddedGraph],
                  complete: bool) -> SurfaceCensus:
    """One census row. ``complete`` is the caller's assertion that the
    list contains every irreducible triangulation of the surface; the
    members themselves are verified (triangulation, genus, irreducible)."""
    _validate_list(triangulations, genus)
    vectors = [clique_counts(eg.graph) for eg in triangulations]

    def column(s: int) -> list[int]:
        return [c[s] if s < len(c) else 0 for c in vectors]

    phi3, arg3 = _max_excess(triangulations, column(3), 3)
    phi4, arg4 = _max_excess(triangulations, column(4), 4)
    smax = max(map(len, vectors)) - 1
    entries = [LinearForm(0, 1), LinearForm(1, 0), LinearForm(3, 3 * (genus - 2)),
               LinearForm(3, phi3), LinearForm(1, phi4)]
    thresholds = [0, 1,
                  min(eg.n for eg in triangulations),
                  min(triangulations[i].n for i in arg3),
                  min(triangulations[i].n for i in arg4)]
    for s in range(5, smax + 1):
        counts = column(s)
        best = max(counts)
        entries.append(LinearForm(0, best))
        thresholds.append(min(eg.n for eg, c in zip(triangulations, counts) if c == best))
    total = LinearForm(sum(e.a for e in entries), sum(e.b for e in entries))
    return SurfaceCensus(surface, genus, complete, tuple(entries), total,
                         tuple(thresholds), max(thresholds))


def extremal_count(census: SurfaceCensus, s: int, n: int) -> int:
    """The census's maximum number of s-cliques among n-vertex graphs
    embeddable in the surface. Errors below the attainment threshold."""
    if s < 0 or n < 0:
        raise PreconditionError("s and n must be non-negative")
    if s >= len(census.entries):
        return 0
    thr = census.thresholds[s]
    if n < thr:
        raise PreconditionError(
            f"entry s={s} is attained from n={thr}; got n={n}")
    return census.entries[s].at(n)


def render_table(census: SurfaceCensus) -> str:
    """Aligned text row mirroring the published table layout."""
    header = ["surface"] + [f"s={s}" for s in range(len(census.entries))] + ["total"]
    row = [census.surface] + [e.render() for e in census.entries] + [census.total.render()]
    if not census.complete:
        row = [row[0]] + [f">={cell}" for cell in row[1:]]
    widths = [max(len(a), len(b)) for a, b in zip(header, row)]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip(),
        "  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip(),
    ]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Explicit bounds in the genus, from the proofs of the precise theorems
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Bounds:
    lower: float
    upper: float


def bounds(g: int, s: int, n: int | None = None) -> Bounds:
    """Explicit lower/upper bounds on the maximum number of s-cliques in
    an n-vertex graph of Euler genus g, for s >= 3.

    s = 3: 3n + sqrt(6) g^1.5  <=  C  <=  3n + 10.5 g^1.5 + 270 g + 36 g ln(13g)
    s = 4: n + 1.5 g^2         <=  C  <=  n + (283/24) g^2 + 27 g^1.5
                                          + 108 g (ln(13g) + 1) + 468 g
    s >= 5: (sqrt(6g)/s)^s     <=  C  <=  (300 sqrt(g)/s)^s

    Side conditions: g >= 1 throughout; the lower bounds need
    n >= sqrt(6g); the s = 3 lower bound's derivation additionally
    assumes g >= 4 (below that it can overshoot the true maximum by a
    fractional amount), and the s >= 5 lower bound needs sqrt(6g) >= s to
    be meaningful. Values are still reported for every g >= 1.
    """
    if g < 1:
        raise PreconditionError("bounds need Euler genus g >= 1")
    if s < 3:
        raise PreconditionError("bounds cover s >= 3")
    try:
        if s in (3, 4):
            if n is None:
                raise PreconditionError(f"s={s} bounds are linear in n; n required")
            if n < math.sqrt(6 * g):
                raise PreconditionError(
                    f"lower bound needs n >= sqrt(6g) = {math.sqrt(6 * g):.2f}")
        if s == 3:
            lower = 3 * n + math.sqrt(6) * g ** 1.5
            upper = 3 * n + 10.5 * g ** 1.5 + 270 * g + 36 * g * math.log(13 * g)
        elif s == 4:
            lower = n + 1.5 * g * g
            upper = (n + (283 / 24) * g * g + 27 * g ** 1.5
                     + 108 * g * (math.log(13 * g) + 1) + 468 * g)
        else:
            lower = (math.sqrt(6 * g) / s) ** s
            upper = (300 * math.sqrt(g) / s) ** s
    except OverflowError:  # an int too large for a float, or a float result
        lower = upper = math.inf
    if math.inf in (lower, upper):  # a float sum or product past the largest float
        raise PreconditionError("the bounds at these g, s and n overflow a float")
    return Bounds(lower, upper)


def lower_bound_applies(g: int, s: int) -> bool:
    """Whether the reported lower bound is claimed at this genus: the
    s = 3 form needs g >= 4, the s >= 5 form needs sqrt(6g) >= s."""
    if s == 3:
        return g >= 4
    if s == 4:
        return g >= 1
    return math.sqrt(6 * g) >= s

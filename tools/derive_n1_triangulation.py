#!/usr/bin/env python3
"""Derive the 7-vertex irreducible triangulation of the projective plane.

A 7-vertex triangulation of a genus-1 surface has 18 edges and 12
triangular faces, so its complement in K7 has exactly 3 edges. This
script tries every 3-edge complement shape, searches for a face set (12
triangles covering every edge exactly twice, every vertex link a single
cycle), reconstructs the signed rotation system with the test oracle
``slow_embedding_from_faces``, verifies genus 1 and irreducibility, and
writes the result to tests/data/.

Run once, from anywhere: ``python tools/derive_n1_triangulation.py``. The
output file is committed as the user-supplied second member of the
projective-plane irreducible list; a test re-derives it through
``derive()``.
"""

import itertools
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "tests" / "data" / "projective_irreducible_7.emb"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from support import slow_embedding_from_faces
from surfcount.embedding import (
    EmbeddedGraph,
    euler_genus,
    is_triangulation,
    reducible_edges,
    serialize_embedding,
)
from surfcount.errors import PreconditionError
from surfcount.graph import Graph


def triangulating_face_sets(g: Graph, want_faces: int):
    """Yield face sets: multisets of triangles covering each edge exactly
    twice. Backtracking on the least uncovered edge."""
    triangles = [
        t for t in itertools.combinations(range(g.n), 3)
        if g.has_edge(t[0], t[1]) and g.has_edge(t[1], t[2]) and g.has_edge(t[0], t[2])
    ]
    edges = g.sorted_edges()
    tri_edges = {
        t: [(min(a, b), max(a, b)) for a, b in itertools.combinations(t, 2)]
        for t in triangles
    }
    by_edge = {e: [t for t in triangles if e in tri_edges[t]] for e in edges}
    count = {e: 0 for e in edges}
    chosen: list[tuple[int, int, int]] = []

    def rec(start_idx: int):
        if len(chosen) == want_faces:
            if all(c == 2 for c in count.values()):
                yield list(chosen)
            return
        open_edges = [e for e in edges if count[e] < 2]
        if not open_edges:
            return
        e = open_edges[0]
        for t in by_edge[e]:
            # allow a triangle twice only if it can cover both sides
            if chosen and t < chosen[-1]:
                continue
            if chosen.count(t) >= 2:
                continue
            if any(count[x] >= 2 for x in tri_edges[t]):
                continue
            chosen.append(t)
            for x in tri_edges[t]:
                count[x] += 1
            yield from rec(start_idx)
            for x in tri_edges[t]:
                count[x] -= 1
            chosen.pop()

    yield from rec(0)


def derive() -> EmbeddedGraph | None:
    """The first irreducible genus-1 triangulation found on K7 minus three
    edges, trying each complement shape in turn; None if none has one."""
    n = 7
    all_pairs = list(itertools.combinations(range(n), 2))
    # complement shapes on 3 edges, up to the labeling that puts them first
    complements = {
        "triangle": [(0, 1), (0, 2), (1, 2)],
        "path": [(0, 1), (1, 2), (2, 3)],
        "star": [(0, 1), (0, 2), (0, 3)],
        "matching+edge": [(0, 1), (2, 3), (4, 5)],
        "edge+path": [(0, 1), (2, 3), (3, 4)],
    }
    for missing in complements.values():
        g = Graph.build(n, [e for e in all_pairs if e not in missing])
        for faces in triangulating_face_sets(g, want_faces=12):
            try:
                eg = slow_embedding_from_faces(n, faces)
            except PreconditionError:
                continue
            if euler_genus(eg) == 1 and is_triangulation(eg) and not reducible_edges(eg):
                return eg
    return None


def main() -> None:
    found = derive()
    if found is None:
        print("no candidate complement worked", file=sys.stderr)
        sys.exit(1)
    print(serialize_embedding(found))
    OUT.write_text(serialize_embedding(found))
    print(f"written to {OUT}")


if __name__ == "__main__":
    main()

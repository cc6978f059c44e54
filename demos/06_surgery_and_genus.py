#!/usr/bin/env python3
"""Rotation-system surgery and the Euler genus.

Embeddings are signed rotation systems; face tracing gives the Euler
genus. Splitting a facial triangle adds a vertex inside it, contracting a
reducible edge is the inverse, and both preserve the surface. The
minimum-genus search tries rotation systems directly (small graphs only).
"""

import random

from surfcount import (
    Graph,
    complete_graph,
    contract_reducible,
    euler_genus,
    face_vertices,
    min_genus_search,
    projective_k6,
    reducible_edges,
    serialize_embedding,
    split_triangle,
)

print("=== the bundled projective-plane triangulation ===")
k6 = projective_k6()
print(serialize_embedding(k6))
print(f"faces: {len(face_vertices(k6))}  Euler genus: {euler_genus(k6)}")
print(f"reducible edges: {reducible_edges(k6)!r} (none: it is irreducible)")

print("\n=== growing and shrinking preserves the surface ===")
rng = random.Random(7)
eg = k6
for step in range(5):
    face = rng.choice(face_vertices(eg))
    eg = split_triangle(eg, face)
    print(f"  split {sorted(face)} -> n={eg.n}, genus {euler_genus(eg)}")
while eg.n > 6:
    edge = rng.choice(reducible_edges(eg))
    eg = contract_reducible(eg, edge)
    print(f"  contract {edge} -> n={eg.n}, genus {euler_genus(eg)}")

print("\n=== minimum genus by search ===")
for name, g in [("K_4", complete_graph(4)),
                ("K_5", complete_graph(5)),
                ("K_{3,3}", Graph.build(6, [(i, j) for i in range(3) for j in range(3, 6)]))]:
    genus, witness = min_genus_search(g)
    print(f"  {name}: Euler genus {genus} "
          f"(witness has {len(face_vertices(witness))} faces)")

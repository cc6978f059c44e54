#!/usr/bin/env python3
"""Exact counting and the homomorphism inequalities.

Copies are subgraphs isomorphic to the pattern; injective homomorphisms
count labeled embeddings, so copies times automorphisms equals injective
maps. An injective map of the pattern into itself is an automorphism, so
|Aut| is the pattern's injective count into itself. Goodman's triangle bound holds for every graph; the Euler-formula
variant ties the triangle count to the genus of a surface the graph
embeds in.
"""

from surfcount import (
    check_genus_triangle_bound,
    check_goodman,
    complete_graph,
    count_cliques,
    count_copies,
    count_hom,
    count_injective_hom,
    cycle_graph,
    path_graph,
    total_cliques,
)

print("=== copies, homomorphisms, cliques ===")
pairs = [
    ("K_3 in K_6", complete_graph(3), complete_graph(6)),
    ("P_4 in K_5", path_graph(4), complete_graph(5)),
    ("C_4 in K_5", cycle_graph(4), complete_graph(5)),
]
for name, h, g in pairs:
    copies = count_copies(h, g)
    inj = count_injective_hom(h, g)
    aut = count_injective_hom(h, h)
    print(f"  {name}: copies={copies}  injective={inj}  |Aut|={aut}"
          f"  (copies*|Aut| == injective: {copies * aut == inj})")
print(f"  hom(K_2, K_5) = {count_hom(complete_graph(2), complete_graph(5))}"
      f"   (twice the edge count of K_5)")

octa = complete_graph(6)
octa = octa.build(6, [(i, j) for i in range(6) for j in range(i + 1, 6)
                      if {i, j} not in ({0, 1}, {2, 3}, {4, 5})])
print(f"  octahedron cliques by size: "
      f"{[count_cliques(octa, s) for s in range(5)]}  total {total_cliques(octa)}")

print("\n=== Goodman's bound ===")
for name, g in [("K_3", complete_graph(3)), ("K_4", complete_graph(4)),
                ("C_5", cycle_graph(5)), ("P_6", path_graph(6))]:
    rep = check_goodman(g)
    mark = "equality" if rep.lhs == rep.rhs else "strict"
    print(f"  {name}: {rep.lhs} >= {rep.rhs}  ({mark})")

print("\n=== triangle bound at a given Euler genus ===")
for name, g, genus in [("K_4 on the sphere", complete_graph(4), 0),
                       ("octahedron on the sphere", octa, 0),
                       ("K_5 on the projective plane", complete_graph(5), 1)]:
    rep = check_genus_triangle_bound(g, genus)
    print(f"  {name}: triangles {rep.lhs} >= bound {rep.rhs}  holds={rep.holds}")

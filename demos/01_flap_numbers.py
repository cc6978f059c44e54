#!/usr/bin/env python3
"""Tour of the flap number.

A flap of a graph is a separation of order at most two whose cut side
becomes planar after completing the cut set to a clique. The flap number
counts pairwise independent flaps (planar graphs with no small separation
get value 1 by convention), and it is exactly zero for the strongly
non-planar graphs, where every small separation leaves both sides
non-planar.
"""

from surfcount import (
    Graph,
    complete_graph,
    cycle_graph,
    enumerate_candidate_flaps,
    flap_family_and_number,
    flap_number,
    flap_reduction,
    is_strongly_non_planar,
    path_graph,
    tree_beta,
)

print("=== flap numbers of complete graphs ===")
for s in range(2, 9):
    print(f"  K_{s}: flap number {flap_number(complete_graph(s))}"
          f"   strongly non-planar: {is_strongly_non_planar(complete_graph(s))}")
print("K_4 and below are planar; from K_5 on, no small separation can rescue")
print("planarity on either side, so the flap number collapses to zero.")

print("\n=== paths, cycles, and trees ===")
for n in (3, 5, 8, 11):
    p = path_graph(n)
    print(f"  P_{n}: flap number {flap_number(p)}  (tree invariant beta = {tree_beta(p)})")
print(f"  C_8: flap number {flap_number(cycle_graph(8))}")
print("For a tree the flap number equals the largest stable set among its")
print("vertices of degree at most two.")

print("\n=== a non-planar graph that is not strongly non-planar ===")
k5_pendant = Graph.build(6, [(i, j) for i in range(5) for j in range(i + 1, 5)] + [(0, 5)])
family, number = flap_family_and_number(k5_pendant)
print(f"  K_5 with a pendant vertex: flap number {number}")
for sep in family:
    print(f"  maximum family member: {sep.serialize()}")
reduced = flap_reduction(k5_pendant, family)
print(f"  after removing that flap the rest has flap number {flap_number(reduced)}")

print("\n=== flap candidates of a small path ===")
for sep in enumerate_candidate_flaps(path_graph(4)):
    print(f"  {sep.serialize()}")

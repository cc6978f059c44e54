"""Checks every reference in ``oracles.py`` against brute force at small
sizes, and that the output checks in ``workloads.py`` reject wrong answers.

Usage: python3 perfbench/selftest.py   (prints one line per group; exit
code 0 when everything agrees)
"""

from __future__ import annotations

import itertools
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles as O  # noqa: E402
import workloads as W  # noqa: E402


def maps(h, g, injective: bool) -> int:
    """Adjacency-preserving maps V(h) -> V(g), by plain backtracking."""
    (hn, hedges), (gn, gedges) = h, g
    hadj, gadj = O.adjacency(hn, hedges), O.adjacency(gn, gedges)
    image: list[int] = []

    def rec(v: int) -> int:
        if v == hn:
            return 1
        total = 0
        for c in range(gn):
            if injective and c in image:
                continue
            if all(image[w] in gadj[c] for w in hadj[v] if w < v):
                image.append(c)
                total += rec(v + 1)
                image.pop()
        return total

    return rec(0)


def copies(h, g) -> int:
    return maps(h, g, True) // maps(h, h, True)


def random_graph(rng: random.Random, n: int, p: float):
    return n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]


def brute_planar(n: int, edges) -> bool:
    """Some rotation system of each component has 2 - n + m faces."""
    adj = O.adjacency(n, edges)
    for comp in O.components_without(adj, ()):
        verts = sorted(comp)
        m = sum(len(adj[v]) for v in verts) // 2
        if m == 0:
            continue
        choices = []
        for v in verts:
            nbrs = sorted(adj[v])
            choices.append([[nbrs[0], *p] for p in itertools.permutations(nbrs[1:])])
        want = 2 - len(verts) + m
        rotations = [[] for _ in range(n)]
        found = False
        for combo in itertools.product(*choices):
            for v, rot in zip(verts, combo):
                rotations[v] = rot
            if len(O.trace_faces(rotations, set())) == want:
                found = True
                break
        if not found:
            return False
    return True


def rotation_work(n: int, edges) -> int:
    work = 1
    for a in O.adjacency(n, edges):
        for k in range(2, len(a)):
            work *= k
    return work


def check(name: str, ok: bool) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {name}")
    if not ok:
        check.failed = True


check.failed = False


def rejects(task_check, out: str, others=None) -> bool:
    try:
        task_check(out, others or {})
    except (W.CheckFailed, ValueError, KeyError, IndexError):
        return True
    return False


def main() -> int:
    rng = random.Random(2003_13777)

    check("P5 blowup copies", all(
        copies(W.P5, W.blowup(W.P5, [0, 2, 4], q)) == O.blowup_copies_p5(5 + 3 * q)
        for q in range(1, 5)))
    check("P3 blowup copies", all(
        copies(W.P3, W.blowup(W.P3, [0, 2], q)) == O.blowup_copies_p3(3 + 2 * q)
        for q in range(1, 7)))
    check("diamond paste copies", all(
        copies(W.DIAMOND, W.book(2 * q)) == O.paste_copies_diamond(4 * (q + 1))
        for q in range(1, 5)))

    graphs = [random_graph(rng, rng.randrange(4, 8), rng.choice((0.3, 0.5, 0.8)))
              for _ in range(25)]
    path = {k: (k, [(i, i + 1) for i in range(k - 1)]) for k in (3, 4, 5)}
    ok = {"copies": True, "hom": True, "cliques": True, "goodman": True}
    for n, edges in graphs:
        g = (n, edges)
        adj = O.adjacency(n, edges)
        ok["copies"] &= (O.copies_p3(adj) == copies(W.P3, g)
                         and O.copies_diamond(adj, edges) == copies(W.DIAMOND, g)
                         and O.inj_c4(adj) == maps(W.C4, g, True))
        ok["hom"] &= (O.hom_c4(adj) == maps(W.C4, g, False)
                      and all(O.hom_path(adj, k) == maps(path[k], g, False) for k in path))
        counts = O.clique_counts(adj)
        brute = [sum(1 for c in itertools.combinations(range(n), s)
                     if all(b in adj[a] for a, b in itertools.combinations(c, 2)))
                 for s in range(len(counts) + 1)]
        ok["cliques"] &= brute[:len(counts)] == counts and brute[-1] == 0 \
            and O.triangles(adj, edges) == (counts[3] if len(counts) > 3 else 0)
        k3 = (3, [(0, 1), (1, 2), (0, 2)])
        lhs, rhs = O.goodman_sides(n, len(edges), O.triangles(adj, edges))
        ok["goodman"] &= (lhs == n * maps(k3, g, False)
                          and rhs == maps((2, [(0, 1)]), g, False)
                          * (2 * maps((2, [(0, 1)]), g, False) - n * n))
    for name, good in ok.items():
        check(f"{name} references on random graphs", good)

    known = [(5, [(i, j) for i in range(5) for j in range(i + 1, 5)], False),
             (6, [(i, j) for i in range(3) for j in range(3, 6)], False),
             (10, [(i, (i + 1) % 5) for i in range(5)] + [(5 + i, 5 + (i + 2) % 5)
                                                         for i in range(5)]
              + [(i, i + 5) for i in range(5)], False),
             (*W.grid(5), True), (*W.wheel(12), True), (*W.necklace(5), True)]
    check("planarity of known graphs", all(O.is_planar(n, e) == want for n, e, want in known))
    agree = tries = nonplanar = 0
    while tries < 80:
        n, edges = random_graph(rng, rng.randrange(5, 8), rng.choice((0.4, 0.6, 0.8)))
        if rotation_work(n, edges) > 20000:
            continue
        tries += 1
        planar = brute_planar(n, edges)
        nonplanar += not planar
        agree += O.is_planar(n, edges) == planar
    check(f"planarity against rotation-system search ({tries} graphs, {nonplanar} non-planar)",
          agree == tries and nonplanar > 0)

    check("flap numbers of complete graphs", all(
        O.flap_number(s, [(i, j) for i in range(s) for j in range(i + 1, s)]) == (s <= 4)
        for s in range(2, 8)))
    check("flap numbers of cycles", all(O.flap_number(*W.cycle(n)) == n // 2
                                        for n in range(4, 10)))
    check("flap numbers of K2,t", all(
        O.flap_number(t + 2, [(e, p) for p in range(2, t + 2) for e in (0, 1)]) == t
        for t in range(2, 6)))
    trees = [(n, W.random_tree(rng, n)) for n in range(3, 10) for _ in range(3)]
    check("tree flap number against the flap oracle",
          all(O.tree_flap_number(n, e) == O.flap_number(n, e) for n, e in trees))
    stable_ok = True
    for n, edges in trees:
        adj = O.adjacency(n, edges)
        low = [v for v in range(n) if len(adj[v]) <= 2]
        best = max(len(s) for r in range(len(low) + 1) for s in itertools.combinations(low, r)
                   if all(b not in adj[a] for a, b in itertools.combinations(s, 2)))
        stable_ok &= best == O.forest_stable_set(n, edges, low)
    check("forest stable set against subsets", stable_ok)

    faces, history = O.stacked_triangulation(rng, 60, hub_bias=0.5)
    rotations = O.rotations_from_faces(60, faces)
    traced = O.triangulation_faces(rotations, set())
    check("face tracer on a stacked triangulation",
          traced == {frozenset(f) for f in faces} and len(history) == 56
          and O.clique_counts(O.adjacency(60, O.embedding_edges(rotations)))[3:5] == [172, 57])
    member = Path(__file__).resolve().parent / "data" / "projective_irreducible_7.emb"
    rot7, neg7 = O.read_embedding(member.read_text())
    faces7 = O.triangulation_faces(rot7, neg7)
    check("face tracer on K7 - K3 in the projective plane",
          len(faces7) == 12 and O.euler_genus(7, len(O.embedding_edges(rot7)), 12) == 1)
    check("slope of an exact power law",
          abs(O.slope([10, 20, 40], [3 * 10 ** 3, 3 * 20 ** 3, 3 * 40 ** 3]) - 3) < 1e-12)

    # the output checks must reject wrong answers
    n, edges = W.wheel(6)
    good = "R {0,1,2,3,4,5,6} " + " ".join(f"{u}-{v}[R]" for u, v in sorted(edges)) + "\n"
    spqrk = W._spqrk_check(n, edges, "R")
    stacked = W._faces_check({frozenset(f) for f in faces})
    text = "\n".join(" ".join(map(str, f)) for f in faces) + "\n"
    check("checks accept right answers",
          not rejects(spqrk, good) and not rejects(stacked, text)
          and not rejects(W._equals(7), "7\n"))
    check("checks reject wrong answers",
          rejects(spqrk, good.replace(" 0-1[R]", ""))
          and rejects(spqrk, good.replace("R {", "S {"))
          and rejects(stacked, "\n".join(text.splitlines()[:-1] + [text.splitlines()[0]]))
          and rejects(W._equals(7), "8\n")
          and rejects(W._snp_check("f"), "true\n", {"f": "1\n"}))
    return 1 if check.failed else 0


if __name__ == "__main__":
    sys.exit(main())

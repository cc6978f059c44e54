"""The three workloads: seeded input files, the fixed task list, and the
check each task's output must pass.

A task is one ``surfcount`` command line. Inputs are written as files so
that every task parses its own copy, as a command-line user's run does.
The seed only changes the inputs (random relabelings, random trees and
graphs, random stacked triangulations and the faces chosen on them);
sizes are fixed so that the work per pass stays comparable across seeds.
Every expected answer comes from ``oracles``, never from a stored output.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracles as O


class CheckFailed(Exception):
    """A task's output disagrees with its reference."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Task:
    name: str
    argv: list[str]
    # check(stdout, first-pass stdout of every task by name) raises CheckFailed
    check: Callable[[str, dict[str, str]], None]


class _Inputs:
    """Writes input files into one directory and names them for argv."""

    def __init__(self, directory: Path):
        self.dir = directory
        directory.mkdir(parents=True, exist_ok=True)
        for old in directory.iterdir():
            old.unlink()

    def graph(self, name: str, n: int, edges) -> str:
        path = self.dir / f"{name}.g"
        path.write_text(O.graph_text(n, edges))
        return str(path)

    def embedding(self, name: str, rotations) -> str:
        path = self.dir / f"{name}.emb"
        path.write_text(O.embedding_text(rotations))
        return str(path)

    def copy(self, source: Path) -> str:
        path = self.dir / source.name
        path.write_text(source.read_text())
        return str(path)


def _relabel(rng: random.Random, n: int, edges) -> list[O.Edge]:
    perm = list(range(n))
    rng.shuffle(perm)
    return [O.norm(perm[u], perm[v]) for u, v in edges]


def _single_int(out: str) -> int:
    lines = out.split()
    expect(len(lines) == 1, f"expected one integer, got {out[:60]!r}")
    return int(lines[0])


def _equals(want: int) -> Callable[[str, dict], None]:
    def check(out: str, _others: dict) -> None:
        got = _single_int(out)
        expect(got == want, f"got {got}, reference {want}")
    return check


def _key_values(out: str) -> dict[str, str]:
    return dict(line.split("=", 1) for line in out.splitlines() if "=" in line)


# ---------------------------------------------------------------------------
# Shared graphs
# ---------------------------------------------------------------------------

P5 = (5, [(0, 1), (1, 2), (2, 3), (3, 4)])
P3 = (3, [(0, 1), (1, 2)])
DIAMOND = (4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])  # K4 - e
K4 = (4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
C4 = (4, [(0, 1), (1, 2), (2, 3), (0, 3)])


def blowup(tree, stable, q: int):
    """Each vertex of ``stable`` replaced by q twins sharing its
    neighbourhood; the construction the paper uses for trees."""
    n, edges = tree
    adj = O.adjacency(n, edges)
    kept = [v for v in range(n) if v not in stable]
    index = {v: i for i, v in enumerate(kept)}
    out = [(index[u], index[v]) for u, v in edges if u in index and v in index]
    nxt = len(kept)
    for v in stable:
        for _ in range(q):
            out.extend((index[w], nxt) for w in adj[v])
            nxt += 1
    return nxt, out


def book(pages: int):
    """The diamond pasted at its 2-cut: an edge 01 and ``pages`` common
    neighbours of 0 and 1."""
    return pages + 2, [(0, 1)] + [(e, p) for p in range(2, pages + 2) for e in (0, 1)]


def _scaling_check(sizes, host_of, count_of, flap):
    def check(out: str, _others: dict) -> None:
        kv = _key_values(out)
        expect([int(t) for t in kv["sizes"].split(",")] == sizes, "sizes echoed wrongly")
        hosts = [int(t) for t in kv["hosts"].split(",")]
        counts = [int(t) for t in kv["counts"].split(",")]
        expect(hosts == [host_of(s) for s in sizes], f"host orders {hosts}")
        want = [count_of(s) for s in sizes]
        expect(counts == want, f"counts {counts}, reference {want}")
        fit = O.slope(hosts, counts)
        expect(abs(float(kv["slope"]) - fit) < 1e-4, f"slope {kv['slope']} vs refit {fit:.6f}")
        expect(abs(fit - flap) <= 0.3, f"slope {fit:.4f} not within 0.3 of f(H) = {flap}")
    return check


# ---------------------------------------------------------------------------
# count: many copies on extremal hosts
# ---------------------------------------------------------------------------

BLOWUP_P5_N = 95
BLOWUP_P3_N = 500
PASTE_N = 400


def count_tasks(rng: random.Random, files: _Inputs) -> list[Task]:
    p5 = files.graph("p5", *P5)
    p3 = files.graph("p3", *P3)
    diamond = files.graph("diamond", *DIAMOND)

    q5 = (BLOWUP_P5_N - 5) // 3
    n5, e5 = blowup(P5, [0, 2, 4], q5)
    e5 = _relabel(rng, n5, e5)
    host5 = files.graph("blowup_p5", n5, e5)
    adj5 = O.adjacency(n5, e5)

    q3 = (BLOWUP_P3_N - 3) // 2
    n3, e3 = blowup(P3, [0, 2], q3)
    e3 = _relabel(rng, n3, e3)
    host3 = files.graph("blowup_p3", n3, e3)
    adj3 = O.adjacency(n3, e3)

    nb, eb = book(2 * (PASTE_N // 4 - 1))
    eb = _relabel(rng, nb, eb)
    hostb = files.graph("paste_diamond", nb, eb)
    adjb = O.adjacency(nb, eb)

    copies5 = O.blowup_copies_p5(BLOWUP_P5_N)
    copies3 = O.blowup_copies_p3(BLOWUP_P3_N)
    copiesb = O.paste_copies_diamond(PASTE_N)
    # two routes to the same number: the closed formula and the host itself
    if copies3 != O.copies_p3(adj3) or copiesb != O.copies_diamond(adjb, eb):
        raise CheckFailed("count references disagree with each other")

    return [
        Task("count-p5-blowup", ["count", p5, host5], _equals(copies5)),
        Task("hom-p5-blowup", ["hom", p5, host5], _equals(O.hom_path(adj5, 5))),
        # |Aut(P5)| = 2
        Task("inj-p5-blowup", ["hom", "--injective", p5, host5], _equals(2 * copies5)),
        Task("count-p3-blowup", ["count", p3, host3], _equals(copies3)),
        Task("hom-p3-blowup", ["hom", p3, host3], _equals(O.hom_path(adj3, 3))),
        Task("count-diamond-paste", ["count", diamond, hostb], _equals(copiesb)),
        # |Aut(K4 - e)| = 4
        Task("inj-diamond-paste", ["hom", "--injective", diamond, hostb],
             _equals(4 * copiesb)),
        Task("scaling-p5-blowup",
             ["scaling", "--graph", p5, "--generator", "tree-blowup", "--sizes", "40,60,80"],
             _scaling_check([40, 60, 80], lambda s: 2 + 3 * ((s - 5) // 3),
                            O.blowup_copies_p5, 3)),
        Task("scaling-diamond-paste",
             ["scaling", "--graph", diamond, "--generator", "paste",
              "--sizes", "100,200,400"],
             _scaling_check([100, 200, 400], lambda s: 2 * (s // 4 - 1) + 2,
                            O.paste_copies_diamond, 2)),
        # Fails today: tree_blowup's planarity assert hits the 512-vertex
        # cap at 800. Kept so that mending it shows as fewer failures.
        Task("scaling-p3-blowup-800",
             ["scaling", "--graph", p3, "--generator", "tree-blowup",
              "--sizes", "200,400,800"],
             _scaling_check([200, 400, 800], lambda s: 1 + 2 * ((s - 3) // 2),
                            O.blowup_copies_p3, 2)),
    ]


# ---------------------------------------------------------------------------
# triangulate: embedding-layer work on large sparse triangulations
# ---------------------------------------------------------------------------

GROW_N = 150
STACK_A_N = 1500
STACK_B_N = 2000
HOST_RANDOM_N = 400
HOST_HUB_N = 300

# the paper's census rows, entries s = 0, 1, 2, ... as (a, b) for a*n + b
S0_ROW = [(0, 1), (1, 0), (3, -6), (3, -8), (1, -3)]
N1_ROW = [(0, 1), (1, 0), (3, -3), (3, 2), (1, 9), (0, 6), (0, 1)]


def _embedding_check(n: int, genus: int, cliques: dict[int, Callable[[int], int]] | None = None,
                     faces: set[frozenset[int]] | None = None):
    def check(out: str, _others: dict) -> None:
        rotations, negative = O.read_embedding(out)
        expect(len(rotations) == n, f"{len(rotations)} vertices, expected {n}")
        got = O.triangulation_faces(rotations, negative)
        m = len(O.embedding_edges(rotations))
        expect(len(got) == 2 * (n - 2 + genus), f"{len(got)} faces for n={n}, genus {genus}")
        expect(O.euler_genus(n, m, len(got)) == genus, "wrong Euler genus")
        if faces is not None:
            expect(got == faces, "face set differs from the reference")
        if cliques:
            counts = O.clique_counts(O.adjacency(n, O.embedding_edges(rotations)))
            for s, want in cliques.items():
                have = counts[s] if s < len(counts) else 0
                expect(have == want(n), f"K{s} count {have}, reference {want(n)}")
    return check


def _census_check(surface: str, genus: int, row, members):
    """Entries must be the published row. Thresholds are the smallest
    member order attaining each entry, from our own clique counts of the
    irreducible list ``members`` given as (n, edges)."""
    counts = [O.clique_counts(O.adjacency(n, edges)) for n, edges in members]
    orders = [n for n, _ in members]

    def at(c: list[int], s: int) -> int:
        return c[s] if s < len(c) else 0

    thresholds = [0, 1, min(orders)]
    for s, weight in ((3, 3), (4, 1)):
        excess = [c[s] - weight * n for c, n in zip(counts, orders)]
        thresholds.append(min(n for n, e in zip(orders, excess) if e == max(excess)))
    for s in range(5, len(row)):
        best = max(at(c, s) for c in counts)
        thresholds.append(min(n for n, c in zip(orders, counts) if at(c, s) == best))

    def check(out: str, _others: dict) -> None:
        rec = json.loads(out)
        expect(rec["surface"] == surface and rec["genus"] == genus, "surface mislabelled")
        expect(rec["complete"] is True, "list not recorded as complete")
        got = [(rec["entries"][str(s)]["a"], rec["entries"][str(s)]["b"])
               for s in range(len(rec["entries"]))]
        expect(got == row, f"entries {got}, published {row}")
        total = (sum(a for a, _ in row), sum(b for _, b in row))
        expect((rec["total"]["a"], rec["total"]["b"]) == total, "total row")
        expect(rec["thresholds"] == thresholds, f"thresholds {rec['thresholds']}")
        expect(rec["n_min"] == max(thresholds), "n_min")
    return check


def _render(a: int, b: int) -> str:
    if a == 0:
        return str(b)
    head = "n" if a == 1 else f"{a}n"
    return head if b == 0 else f"{head}{'+' if b > 0 else '-'}{abs(b)}"


def _table_check(surface: str, row):
    def check(out: str, _others: dict) -> None:
        lines = out.splitlines()
        expect(len(lines) == 2, "table must have a header and one row")
        want_header = ["surface"] + [f"s={s}" for s in range(len(row))] + ["total"]
        expect(lines[0].split() == want_header, f"header {lines[0]!r}")
        total = (sum(a for a, _ in row), sum(b for _, b in row))
        want = [surface] + [_render(a, b) for a, b in row] + [_render(*total)]
        expect(lines[1].split() == want, f"row {lines[1]!r}, published {want}")
    return check


def _faces_check(faces: set[frozenset[int]]):
    def check(out: str, _others: dict) -> None:
        walks = [frozenset(map(int, line.split())) for line in out.splitlines()]
        expect(len(walks) == len(faces), f"{len(walks)} faces, expected {len(faces)}")
        expect(set(walks) == faces, "face set differs from the generated one")
    return check


def _goodman_check(n: int, edges):
    lhs, rhs = O.goodman_sides(n, len(edges), O.triangles(O.adjacency(n, edges), edges))

    def check(out: str, _others: dict) -> None:
        kv = _key_values(out)
        expect(int(kv["lhs"]) == lhs and int(kv["rhs"]) == rhs,
               f"sides {kv.get('lhs')}, {kv.get('rhs')}; reference {lhs}, {rhs}")
        expect(kv["holds"] == ("true" if lhs >= rhs else "false"), "holds flag")
    return check


def _stacked(rng: random.Random, n: int, hub_bias: float = 0.0):
    faces, history = O.stacked_triangulation(rng, n, hub_bias)
    return faces, history, O.rotations_from_faces(n, faces)


def _stacked_graph(rng: random.Random, n: int, hub_bias: float = 0.0) -> list[O.Edge]:
    faces, _ = O.stacked_triangulation(rng, n, hub_bias)
    return sorted({O.norm(f[i], f[j]) for f in faces for i, j in ((0, 1), (1, 2), (0, 2))})


def triangulate_tasks(rng: random.Random, files: _Inputs) -> list[Task]:
    here = Path(__file__).resolve().parent
    k4 = files.graph("k4", *K4)
    p3 = files.graph("p3", *P3)
    c4 = files.graph("c4", *C4)
    member = files.copy(here / "data" / "projective_irreducible_7.emb")

    faces_a, _, rot_a = _stacked(rng, STACK_A_N)
    stack_a = files.embedding("stack_a", rot_a)
    set_a = {frozenset(f) for f in faces_a}
    faces_b, hist_b, rot_b = _stacked(rng, STACK_B_N, hub_bias=0.5)
    stack_b = files.embedding("stack_b", rot_b)
    set_b = {frozenset(f) for f in faces_b}

    split_face = sorted(faces_a[rng.randrange(len(faces_a))])
    x, v, y = split_face
    new = STACK_A_N
    after_split = (set_a - {frozenset(split_face)}) | {
        frozenset((x, v, new)), frozenset((v, y, new)), frozenset((x, y, new))}
    last = STACK_B_N - 1
    a, b, c = hist_b[-1]
    before_last = {f for f in set_b if last not in f} | {frozenset((a, b, c))}
    keep = rng.choice((a, b, c))

    host_r_edges = _stacked_graph(rng, HOST_RANDOM_N)
    host_r = files.graph("stack_random", HOST_RANDOM_N, host_r_edges)
    adj_r = O.adjacency(HOST_RANDOM_N, host_r_edges)
    host_h_edges = _stacked_graph(rng, HOST_HUB_N, hub_bias=0.5)
    host_h = files.graph("stack_hub", HOST_HUB_N, host_h_edges)
    adj_h = O.adjacency(HOST_HUB_N, host_h_edges)

    sphere = {3: lambda n: 3 * n - 8, 4: lambda n: n - 3, 5: lambda n: 0}
    projective = {3: lambda n: 3 * n + 2, 4: lambda n: n + 9,
                  5: lambda n: 6, 6: lambda n: 1, 7: lambda n: 0}
    # the N1 list: the bundled K6 and K7 minus a triangle (12 faces)
    rot7, neg7 = O.read_embedding(Path(member).read_text())
    edges7 = O.embedding_edges(rot7)
    faces7 = O.triangulation_faces(rot7, neg7)
    if O.euler_genus(7, len(edges7), len(faces7)) != 1 or len(edges7) != 18:
        raise CheckFailed("the N1 list member is not K7 - K3 on the projective plane")
    n1_members = [(6, [(i, j) for i in range(6) for j in range(i + 1, 6)]), (7, edges7)]
    return [
        Task("grow-k4-sphere", ["grow", "k4-sphere", str(GROW_N)],
             _embedding_check(GROW_N, 0, sphere)),
        Task("grow-k6-projective", ["grow", "k6-projective", str(GROW_N)],
             _embedding_check(GROW_N, 1, projective)),
        Task("scaling-k4-growth",
             ["scaling", "--graph", k4, "--generator", "split-growth",
              "--sizes", "30,60,120"],
             _scaling_check([30, 60, 120], lambda s: s, lambda s: s - 3, 1)),
        Task("faces-stack-a", ["faces", stack_a], _faces_check(set_a)),
        Task("genus-stack-b", ["genus", stack_b], _equals(0)),
        Task("split-stack-a", ["split", stack_a, str(x), str(v), str(y), "--triangle"],
             _embedding_check(STACK_A_N + 1, 0, faces=after_split)),
        Task("contract-stack-b", ["contract", stack_b, str(keep), str(last)],
             _embedding_check(STACK_B_N - 1, 0, faces=before_last)),
        Task("census-n1", ["census", "--surface", "n1", "--list", member, "--complete"],
             _census_check("N1", 1, N1_ROW, n1_members)),
        Task("table-sphere", ["table", "--surface", "sphere"], _table_check("S0", S0_ROW)),
        Task("count-k4-random", ["count", k4, host_r], _equals(HOST_RANDOM_N - 3)),
        Task("count-k4-hub", ["count", k4, host_h], _equals(HOST_HUB_N - 3)),
        Task("count-p3-hub", ["count", p3, host_h], _equals(O.copies_p3(adj_h))),
        Task("hom-c4-random", ["hom", c4, host_r], _equals(O.hom_c4(adj_r))),
        Task("goodman-random", ["inequality", "goodman", host_r],
             _goodman_check(HOST_RANDOM_N, host_r_edges)),
    ]


# ---------------------------------------------------------------------------
# structure: planarity, flaps and decomposition trees on small graphs
# ---------------------------------------------------------------------------

CLIQUE_ORDERS = (4, 5, 6)
CYCLE_ORDERS = (9, 14)
K2T_PAGES = (4, 8)
TREE_ORDERS = (13, 14, 15, 16)
# graphs up to ORACLE_MAX_N are checked against the definition-level oracle
RANDOM_ORDERS = (10, 11) + (15, 16) * 5
ORACLE_MAX_N = 11
EXTRA_EDGE_P = 0.12
GRID_SIDES = (6, 8, 9)
WHEEL_RIM = 30
NECKLACE_BEADS = 8
SPQRK_CYCLE = 60
SPQRK_PATHS = (100, 150)


def random_tree(rng: random.Random, n: int) -> list[O.Edge]:
    """Uniform labelled tree from a random Pruefer sequence."""
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    for v in seq:
        leaf = min(u for u in range(n) if degree[u] == 1)
        edges.append(O.norm(leaf, v))
        degree[leaf] -= 1
        degree[v] -= 1
    u, w = [u for u in range(n) if degree[u] == 1]
    edges.append(O.norm(u, w))
    return edges


def random_connected(rng: random.Random, n: int, p: float) -> list[O.Edge]:
    edges = set(random_tree(rng, n))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges.add((i, j))
    return sorted(edges)


def grid(k: int):
    return k * k, [(r * k + c, r * k + c + 1) for r in range(k) for c in range(k - 1)] + \
        [(r * k + c, (r + 1) * k + c) for r in range(k - 1) for c in range(k)]


def wheel(rim: int):
    return rim + 1, [(0, i) for i in range(1, rim + 1)] + \
        [(i, i % rim + 1) for i in range(1, rim + 1)]


def cycle(n: int):
    return n, [O.norm(i, (i + 1) % n) for i in range(n)]


def necklace(beads: int):
    """K4s in a ring, bead i's vertex 3 joined to bead i+1's vertex 0."""
    edges = [(4 * b + i, 4 * b + j) for b in range(beads)
             for i in range(4) for j in range(i + 1, 4)]
    edges += [O.norm(4 * b + 3, 4 * ((b + 1) % beads)) for b in range(beads)]
    return 4 * beads, edges


def _parse_separation(line: str) -> tuple[tuple[int, ...], frozenset[int]]:
    x_part, s_part = line.split()

    def members(part: str) -> list[int]:
        body = part.split("=", 1)[1].strip("[]")
        return [int(t) for t in body.split(",") if t]
    return tuple(members(x_part)), frozenset(members(s_part))


def _family_check(n: int, edges):
    adj = O.adjacency(n, edges)
    oracle = O.flap_number(n, edges) if n <= ORACLE_MAX_N else None

    def check(out: str, _others: dict) -> None:
        lines = out.splitlines()
        f = int(lines[0])
        if oracle is not None:
            expect(f == oracle, f"flap number {f}, oracle {oracle}")
        family = [_parse_separation(line) for line in lines[1:]]
        for x, s in family:
            expect(len(x) <= 2 and s and not (s & set(x)), f"bad separation {x} {sorted(s)}")
            expect(len(s) + len(x) < n, "separation with an empty far side")
            expect(all(w in s or w in x for v in s for w in adj[v]),
                   "interior is not a union of components of H - X")
            expect(O.side_is_planar(adj, x, s), f"side {x} {sorted(s)} is not planar")
        for i, (_, s) in enumerate(family):
            for _, t in family[i + 1:]:
                expect(not (s & t) and not any(w in t for v in s for w in adj[v]),
                       "family members are not independent")
        if family or f != 1:
            expect(len(family) == f, f"family of {len(family)} for flap number {f}")
        else:  # flap number 1 without any flap: planar, no small separation
            expect(not any(len(O.components_without(adj, x)) >= 2 for x in O.cut_sets(n))
                   and O.is_planar(n, edges),
                   "empty family for flap number 1")
    return check


def _snp_check(sibling: str):
    """snp is true exactly when the flap number printed by ``sibling`` is 0."""
    def check(out: str, others: dict) -> None:
        f = int(others[sibling].split()[0])
        expect(out.strip() == ("true" if f == 0 else "false"), f"snp {out.strip()} with f={f}")
    return check


def _spqrk_check(n: int, edges, single: str | None = None):
    edge_set = {O.norm(u, v) for u, v in edges}

    def check(out: str, _others: dict) -> None:
        nodes = []  # (depth, kind, vertices, edges with flags)
        for line in out.splitlines():
            depth = (len(line) - len(line.lstrip(" "))) // 2
            parts = line.split()
            verts = {int(t) for t in parts[1].strip("{}").split(",") if t}
            flagged = []
            for tok in parts[2:]:
                uv, flag = tok[:-1].split("[")
                u, v = (int(t) for t in uv.split("-"))
                flagged.append((O.norm(u, v), flag))
            nodes.append((depth, parts[0], verts, flagged))
        expect(nodes and nodes[0][0] == 0, "tree has no root")
        path = []  # open ancestors by depth
        real = []
        for depth, kind, verts, flagged in nodes:
            expect(kind in ("S", "P", "Q", "R", "K"), f"node kind {kind}")
            expect(depth <= len(path), "indentation skips a level")
            del path[depth:]
            if path:
                expect(bool(verts & path[-1]), "node shares no vertex with its parent")
            path.append(verts)
            for e, flag in flagged:
                expect(e[0] in verts and e[1] in verts, f"edge {e} outside its node")
                if flag == "R":
                    real.append(e)
        expect(len(real) == len(edge_set) and set(real) == edge_set,
               "real edges do not partition E(G)")
        if single is not None:
            expect(len(nodes) == 1 and nodes[0][1] == single,
                   f"expected a single {single} node, got {len(nodes)} nodes")
    return check


def structure_tasks(rng: random.Random, files: _Inputs) -> list[Task]:
    tasks: list[Task] = []

    def graph(name: str, n: int, edges) -> str:
        return files.graph(name, n, _relabel(rng, n, edges))

    for s in CLIQUE_ORDERS:
        path = graph(f"k{s}", s, [(i, j) for i in range(s) for j in range(i + 1, s)])
        tasks.append(Task(f"flap-k{s}", ["flap-number", path], _equals(1 if s <= 4 else 0)))
        tasks.append(Task(f"snp-k{s}", ["snp", path], _snp_check(f"flap-k{s}")))
    for n in CYCLE_ORDERS:
        path = graph(f"c{n}", *cycle(n))
        tasks.append(Task(f"flap-c{n}", ["flap-number", path], _equals(n // 2)))
    for t in K2T_PAGES:
        path = graph(f"k2_{t}", t + 2, [(e, p) for p in range(2, t + 2) for e in (0, 1)])
        tasks.append(Task(f"flap-k2_{t}", ["flap-number", path], _equals(t)))
    for i, n in enumerate(TREE_ORDERS):
        edges = random_tree(rng, n)
        path = files.graph(f"tree{i}", n, edges)
        f = O.tree_flap_number(n, edges)
        tasks.append(Task(f"flap-tree{i}", ["flap-number", path], _equals(f)))
        tasks.append(Task(f"beta-tree{i}", ["beta", path], _equals(f)))
    for i, n in enumerate(RANDOM_ORDERS):
        edges = random_connected(rng, n, EXTRA_EDGE_P)
        path = files.graph(f"random{i}", n, edges)
        tasks.append(Task(f"family-random{i}", ["flap-number", "--family", path],
                          _family_check(n, edges)))
        tasks.append(Task(f"snp-random{i}", ["snp", path], _snp_check(f"family-random{i}")))
    shapes = [(f"grid{k}", grid(k), None) for k in GRID_SIDES] + [
        ("wheel", wheel(WHEEL_RIM), "R"),
        ("necklace", necklace(NECKLACE_BEADS), None),
        ("cycle", cycle(SPQRK_CYCLE), "S"),
    ] + [(f"path{n}", (n, [(i, i + 1) for i in range(n - 1)]), None) for n in SPQRK_PATHS]
    # decomposition work depends strongly on the vertex order (a relabelled
    # grid costs 0.85-1.15 times the row-major one), so these keep
    # their natural labels and the seed varies only the small graphs above
    for name, (n, edges), single in shapes:
        path = files.graph(name, n, edges)
        tasks.append(Task(f"spqrk-{name}", ["spqrk", path], _spqrk_check(n, edges, single)))
    return tasks


WORKLOADS = {
    "count": count_tasks,
    "triangulate": triangulate_tasks,
    "structure": structure_tasks,
}


def build(workload: str, seed: int, directory: Path) -> list[Task]:
    """Write the workload's inputs for ``seed`` into ``directory`` and
    return its tasks, in the fixed order every pass runs them."""
    rng = random.Random(f"{workload}:{seed}")
    return WORKLOADS[workload](rng, _Inputs(directory))

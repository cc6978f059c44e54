import json
import random
from pathlib import Path

import pytest

from support import (
    OCTA_FACES,
    PROJECTIVE_K6_FACES,
    TETRAHEDRON_FACES,
    face_tail_vertices,
    icosahedron,
    icosahedron_antipodal_classes,
    is_triangle_face,
    random_connected_graph,
    random_rotation_system,
    random_stacked,
    slow_contract_reducible,
    slow_embedding_from_faces,
    slow_parse_embedding,
    slow_read_rotations,
    slow_split_path,
    slow_trace_faces,
)
from surfcount import embedding
from surfcount.cli import main
from surfcount.constructions import split_growth
from surfcount.counting import count_cliques
from surfcount.embedding import (
    EmbeddedGraph,
    contract_reducible,
    euler_genus,
    face_vertices,
    is_triangulation,
    min_genus_search,
    parse_embedding,
    reducible_edges,
    serialize_embedding,
    split_path,
    split_triangle,
    switch_vertex,
)
from surfcount.errors import CapExceeded, InternalInvariantError, ParseError, PreconditionError
from surfcount.graph import (
    Graph, complete_graph, connected_components, induced_subgraph, is_connected)
from surfcount.surfaces import load_bundled, projective_k6, sphere_irreducible

DATA = Path(__file__).parent / "data"


def face_multiset(eg):
    return sorted(tuple(sorted(f)) for f in face_vertices(eg))


def face_steps(eg):
    """The faces as the oracle lists them: each face's directed edges."""
    return [tuple(zip(f, f[1:] + f[:1])) for f in face_vertices(eg)]


def test_tetrahedron():
    k4 = sphere_irreducible()
    faces = face_vertices(k4)
    assert len(faces) == 4 and all(len(set(f)) == len(f) == 3 for f in faces)
    assert euler_genus(k4) == 0
    assert is_triangulation(k4)


def test_k6_projective():
    k6 = projective_k6()
    assert k6.graph.edges == complete_graph(6).edges
    assert len(face_vertices(k6)) == 10
    assert euler_genus(k6) == 1
    assert is_triangulation(k6)
    assert reducible_edges(k6) == []


def test_bundled_files_match_builders():
    """Each bundled file is, byte for byte, its face list's embedding."""
    data = Path(embedding.__file__).parent / "data"
    for name, n, faces in (("k4_sphere", 4, TETRAHEDRON_FACES),
                           ("k6_projective", 6, PROJECTIVE_K6_FACES)):
        assert ((data / f"{name}.emb").read_text()
                == serialize_embedding(slow_embedding_from_faces(n, faces)))


def test_load_bundled_refuses_other_names():
    """Only the two bundled names load; no other name becomes a path."""
    for name in ("nope", "../x", "data/k4_sphere", "k4_sphere.emb", ""):
        with pytest.raises(PreconditionError, match="no bundled embedding"):
            load_bundled(name)


def test_k6_is_antipodal_icosahedron_quotient():
    ico = icosahedron()
    assert euler_genus(ico) == 0 and len(face_vertices(ico)) == 20
    pairs = icosahedron_antipodal_classes()
    cls = {}
    anti = {}
    for c, (a, b) in enumerate(pairs):
        cls[a] = c
        cls[b] = c
        anti[a] = b
        anti[b] = a
    g = ico.graph
    assert all(g.has_edge(anti[u], anti[v]) for u, v in g.edges)  # automorphism
    assert all(not g.has_edge(a, b) for a, b in pairs)  # fixed-point free on edges
    quotient_faces = {tuple(sorted(cls[v] for v in f)) for f in face_vertices(ico)}
    assert quotient_faces == {tuple(sorted(f)) for f in PROJECTIVE_K6_FACES}


def test_single_edge_face():
    k2 = EmbeddedGraph.build(complete_graph(2), [(1,), (0,)])
    assert face_vertices(k2) == [[0, 1]]
    assert euler_genus(k2) == 0


def test_k1_genus():
    k1 = EmbeddedGraph.build(complete_graph(1), [()])
    assert euler_genus(k1) == 0


def test_k5_toroidal_rotation():
    # an all-positive rotation system of K5 with five faces lives on the
    # surface of Euler genus 2 (found by exhaustive search, frozen here)
    rotations = [(1, 2, 3, 4), (0, 2, 3, 4), (0, 1, 4, 3), (0, 2, 1, 4), (0, 3, 1, 2)]
    eg = EmbeddedGraph.build(complete_graph(5), rotations)
    assert len(face_vertices(eg)) == 5
    assert euler_genus(eg) == 2


def test_triangulation_edge_count_invariant():
    # every triangulation satisfies m = 3(n + g - 2) exactly
    from surfcount.surfaces import projective_k6 as pk6

    for seed, genus in ((sphere_irreducible(), 0), (pk6(), 1)):
        for n in range(seed.n, seed.n + 10):
            eg = split_growth(seed, n)
            assert eg.m == 3 * (eg.n + genus - 2)


def test_face_side_count_invariant():
    rng = random.Random(3)
    eg = projective_k6()
    for _ in range(6):
        faces = face_vertices(eg)
        assert sum(map(len, faces)) == 2 * eg.m
        eg = split_triangle(eg, tuple(rng.choice(faces)))


def test_parse_errors():
    with pytest.raises(ParseError,
                       match=r"^edge \(0, 1\) has conflicting signs at its endpoints$"):
        parse_embedding("2\n0: 1-\n1: 0\n")
    # vertex 1 lists 2, and 2 is the vertex that leaves it out
    with pytest.raises(ParseError, match="^vertex 2 does not list 1 back$"):
        parse_embedding("3\n0: 1\n1: 0 2\n2:\n")
    with pytest.raises(ParseError, match="duplicate"):
        parse_embedding("2\n0: 1 1\n1: 0 0\n")
    with pytest.raises(ParseError, match="out of range"):
        parse_embedding("2\n0: 5\n1: 0\n")
    with pytest.raises(ParseError, match="order"):
        parse_embedding("2\n1: 0\n0: 1\n")
    with pytest.raises(ParseError, match="self-loop at vertex 0"):
        parse_embedding("2\n0: 0 1\n1: 0\n")
    for tok in ("x", "3--", "-", "1.0"):
        with pytest.raises(ParseError, match="bad neighbor token"):
            parse_embedding(f"4\n0: 1 {tok}\n1: 0\n2:\n3:\n")
    with pytest.raises(ParseError, match="expected 'v: ...'"):
        parse_embedding("2\nzero: 1\n1: 0\n")
    with pytest.raises(ParseError, match="expected vertex count"):
        parse_embedding("two\n0: 1\n1: 0\n")
    with pytest.raises(ParseError, match="expected 3 rotation lines, found 2"):
        parse_embedding("3\n0: 1\n1: 0\n")
    with pytest.raises(ParseError, match="expected -1 rotation lines, found 0"):
        parse_embedding("-1\n")
    for text in ("", "\n  \n", "# a comment only\n"):
        with pytest.raises(ParseError, match="empty embedding document"):
            parse_embedding(text)


def test_parse_equals_checked_build():
    """The parse builds its embedding without the checked constructors;
    on every embedding of the golden file it equals what they build from
    the same rotations and signs, and serializes back to the same text."""
    sections = GOLDEN.read_text().split("# ")[1:]
    texts = [body for head, _, body in (sec.partition("\n") for sec in sections)
             if not head.endswith("walks")]
    assert len(texts) == 97
    for text in texts:
        lines = text.splitlines()
        rotations = [[int(tok.rstrip("-")) for tok in ln.split(":")[1].split()]
                     for ln in lines[1:]]
        negative = [(v, int(tok[:-1])) for v, ln in enumerate(lines[1:])
                    for tok in ln.split(":")[1].split() if tok.endswith("-")]
        n = int(lines[0])
        edges = [(v, u) for v, rot in enumerate(rotations) for u in rot]
        built = EmbeddedGraph.build(Graph.build(n, edges), rotations, negative)
        parsed = parse_embedding(text)
        assert parsed == built
        assert type(parsed.rotations[0]) is tuple and type(parsed.graph.edges) is frozenset
        assert serialize_embedding(parsed) == text


def test_serialize_round_trip_exact():
    for eg in (sphere_irreducible(), projective_k6(),
               parse_embedding((DATA / "projective_irreducible_7.emb").read_text())):
        text = serialize_embedding(eg)
        again = parse_embedding(text)
        assert again == eg
        assert serialize_embedding(again) == text


def test_switch_preserves_faces():
    eg = projective_k6()
    for v in range(6):
        assert face_multiset(switch_vertex(eg, v)) == face_multiset(eg)
        assert euler_genus(switch_vertex(eg, v)) == 1


def face_cycles(eg):
    """The faces as cyclic vertex sequences up to rotation and reversal,
    sorted: the face multiset of the walks themselves."""
    out = []
    for seq in face_vertices(eg):
        turns = [seq[i:] + seq[:i] for i in range(len(seq))]
        out.append(min(turns + [t[::-1] for t in turns]))
    return sorted(out)


def test_switch_vertex_properties():
    """Switching a vertex keeps the faces, as walks, and the Euler genus,
    and switching it twice gives back an equal embedding. Seeded signed
    rotation systems: trees, graphs with pendant, isolated and degree-2
    vertices and random negative edges, and randomly switched stacked and
    grown triangulations."""
    rng = random.Random(1307)
    cases = [random_rotation_system(rng, rng.randint(1, 12)) for _ in range(150)]
    cases += [random_stacked(rng, rng.randint(4, 40), rng.choice([0.0, 0.5]), 0.5)[0]
              for _ in range(20)]
    for _ in range(10):
        eg = split_growth(rng.choice([sphere_irreducible(), projective_k6()]),
                          rng.randint(8, 30))
        for v in rng.sample(range(eg.n), rng.randint(0, eg.n)):
            eg = switch_vertex(eg, v)
        cases.append(eg)
    seen = {"tree": 0, "pendant": 0, "degree 2": 0, "negative": 0, "genus": 0}
    for eg in cases:
        degrees = [eg.graph.degree(v) for v in range(eg.n)]
        connected = is_connected(eg.graph)
        seen["tree"] += connected and eg.m == eg.n - 1 > 0
        seen["pendant"] += 1 in degrees
        seen["degree 2"] += 2 in degrees
        seen["negative"] += bool(eg.negative_edges)
        faces = face_cycles(eg)
        genus = euler_genus(eg) if connected else None
        seen["genus"] += bool(genus)
        for v in rng.sample(range(eg.n), min(eg.n, 4)):
            switched = switch_vertex(eg, v)
            assert face_cycles(switched) == faces
            if connected:
                assert euler_genus(switched) == genus
            assert switch_vertex(switched, v) == eg
    assert min(seen.values()) >= 10, seen


def test_switch_vertex_refuses_a_missing_vertex():
    """A vertex outside range(n) is refused, not read from the end of the
    rotations or past it."""
    k4 = sphere_irreducible()
    for v in (-1, k4.n):
        with pytest.raises(PreconditionError, match=f"vertex {v} not in graph"):
            switch_vertex(k4, v)


def test_face_list_refusals():
    """A face list that is not a closed triangulated surface raises, each
    with the first fault it finds."""
    bad = [(6, OCTA_FACES[:-1]), (7, OCTA_FACES), (6, OCTA_FACES[:-1] + [(1, 5, 5)]),
           (6, [(0, 1, 2), (0, 2, 1)] * 2 + OCTA_FACES),
           (5, [(0, 1, 2), (0, 2, 1), (2, 3, 4), (2, 4, 3)]),
           (5, OCTA_FACES)]
    messages = []
    for n, faces in bad:
        with pytest.raises(PreconditionError) as err:
            slow_embedding_from_faces(n, faces)
        messages.append(str(err.value))
    assert messages == [
        "edge (2, 5) lies in 1 faces, need 2",
        "vertex 6 is isolated",
        "face (1, 5, 5) is not a triangle",
        "edge (0, 1) lies in 4 faces, need 2",
        "link of vertex 2 is not a single cycle",
        "edge (3,5) out of range for n=5",
    ]


def test_octahedron_contract():
    octa = slow_embedding_from_faces(6, OCTA_FACES)
    assert is_triangulation(octa) and euler_genus(octa) == 0
    assert len(reducible_edges(octa)) == 12
    smaller = contract_reducible(octa, (0, 2))
    assert smaller.n == 5 and euler_genus(smaller) == 0 and is_triangulation(smaller)
    assert count_cliques(smaller.graph, 3) == 7  # 3n-8 at n=5


def test_k4_reducible_edges_definitional():
    k4 = sphere_irreducible()
    assert len(reducible_edges(k4)) == 6
    k3 = contract_reducible(k4, (2, 3))
    assert k3.n == 3 and euler_genus(k3) == 0
    assert len(face_vertices(k3)) == 2


def test_split_triangle_counts():
    k4 = sphere_irreducible()
    bigger = split_triangle(k4, (0, 1, 2))
    assert bigger.n == 5 and euler_genus(bigger) == 0 and is_triangulation(bigger)
    assert count_cliques(bigger.graph, 3) == 7
    assert count_cliques(bigger.graph, 4) == 2
    with pytest.raises(PreconditionError):
        split_triangle(bigger, (0, 1, 2))  # no longer a face
    for outside in ((-1, 0, 1), (1, 2, 4), (4, 5, 6)):
        with pytest.raises(PreconditionError, match="is not a facial triangle"):
            split_triangle(k4, outside)


def test_split_then_contract_restores():
    rng = random.Random(17)
    eg = projective_k6()
    for _ in range(8):
        eg = split_triangle(eg, tuple(rng.choice(face_vertices(eg))))
    for _ in range(20):
        tri = tuple(sorted(rng.choice(face_vertices(eg))))
        before = (set(eg.graph.edges), face_multiset(eg))
        grown = split_triangle(eg, tri)
        w = grown.n - 1
        back = contract_reducible(grown, (tri[1], w))
        assert set(back.graph.edges) == before[0]
        assert face_multiset(back) == before[1]


def test_contract_then_split_restores():
    rng = random.Random(23)
    eg = projective_k6()
    for _ in range(8):
        eg = split_triangle(eg, tuple(rng.choice(face_vertices(eg))))
    for _ in range(15):
        red = reducible_edges(eg)
        v, w = rng.choice(red)
        thirds = sorted(eg.graph.adj[v] & eg.graph.adj[w])
        contracted = contract_reducible(eg, (v, w))
        assert euler_genus(contracted) == 1

        def remap(u):
            return u if u < w else u - 1

        expected = sorted(
            tuple(sorted((remap(u) if u != w else contracted.n) for u in tri))
            for tri in face_multiset(eg))
        restored = None
        for a, b in ((thirds[0], thirds[1]), (thirds[1], thirds[0])):
            candidate = split_path(contracted, remap(a), remap(v), remap(b))
            if face_multiset(candidate) == expected:
                restored = candidate
                break
        assert restored is not None


def test_split_path_matches_tuple_oracle():
    """Path splits through the incremental splitter equal the rebuild on
    rotation tuples, byte for byte: random rotation systems with random
    signs (pendant vertices included) and switched triangulations."""
    rng = random.Random(2718)
    for i in range(300):
        if i % 3:
            g = random_connected_graph(rng, rng.randint(2, 12), rng.choice([0.0, 0.2, 0.5]))
            rotations = [rng.sample(sorted(g.adj[v]), g.degree(v)) for v in range(g.n)]
            eg = EmbeddedGraph.build(g, rotations, [e for e in g.edges if rng.random() < 0.4])
        else:
            eg = projective_k6() if i % 2 else sphere_irreducible()
            for _ in range(rng.randint(0, 6)):
                eg = split_triangle(eg, rng.choice(face_vertices(eg)))
            for v in rng.sample(range(eg.n), rng.randint(0, eg.n)):
                eg = switch_vertex(eg, v)
        sites = [v for v in range(eg.n) if eg.graph.degree(v) >= 2]
        if not sites:
            continue
        v = rng.choice(sites)
        x, y = rng.sample(sorted(eg.graph.adj[v]), 2)
        assert (serialize_embedding(split_path(eg, x, v, y))
                == serialize_embedding(slow_split_path(eg, x, v, y)))


def test_trace_matches_tuple_oracle():
    """The dart-table tracer gives the tuple-state oracle's walks, step for
    step and in the same order: random signed rotation systems (trees,
    pendant and isolated vertices, degree-2 corners, negative edges) and
    switched stacked triangulations with a hub of degree above n/3."""
    rng = random.Random(4242)
    for _ in range(400):
        eg = random_rotation_system(rng, rng.randint(1, 12))
        assert face_steps(eg) == slow_trace_faces(eg)
    for n in (4, 5, 9, 40, 150, 400):
        eg, _ = random_stacked(rng, n, hub_bias=0.5, switch_p=0.5)
        assert face_steps(eg) == slow_trace_faces(eg)
        assert euler_genus(eg) == 0
        assert n < 40 or eg.graph.degree(0) > n / 3
    for name in ("k4_sphere", "k6_projective"):
        eg = _switched(rng, split_growth(load_bundled(name), 60))
        assert face_steps(eg) == slow_trace_faces(eg)


def test_table_counts_match_the_tuple_oracle():
    """Face counts, the Euler genus and the triangulation test read the
    table's orbits; they agree with the tuple-state oracle's walks on random
    signed rotation systems (trees, pendant and isolated vertices, degree-2
    corners, negative edges) and on switched stacked triangulations. A
    disconnected or empty graph has no genus."""
    rng = random.Random(2718)
    cases = [random_rotation_system(rng, rng.randint(1, 12)) for _ in range(400)]
    cases += [random_stacked(rng, n, hub_bias=rng.choice([0.0, 0.5]), switch_p=0.5)[0]
              for n in (4, 5, 6, 9, 17, 40, 150, 400)]
    seen = {"connected": 0, "disconnected": 0, "triangulation": 0, "negative": 0}
    for eg in cases:
        walks = slow_trace_faces(eg)
        assert len(face_vertices(eg)) == len(walks)
        assert is_triangulation(eg) == (eg.m > 0 and all(map(is_triangle_face, walks)))
        if is_connected(eg.graph):
            f = len(walks) if eg.m > 0 else 1
            assert euler_genus(eg) == 2 - eg.n + eg.m - f
        else:
            with pytest.raises(PreconditionError, match="connected"):
                euler_genus(eg)
        seen["connected"] += is_connected(eg.graph)
        seen["disconnected"] += not is_connected(eg.graph)
        seen["triangulation"] += is_triangulation(eg)
        seen["negative"] += bool(eg.negative_edges)
    assert min(seen.values()) >= 8, seen
    with pytest.raises(PreconditionError, match="empty graph"):
        euler_genus(EmbeddedGraph.build(Graph.build(0, []), []))


def _contraction(fn, eg, edge):
    try:
        return serialize_embedding(fn(eg, edge))
    except PreconditionError as exc:
        return f"refused: {exc}"


def test_contract_matches_slow_contraction():
    """The one-pass contraction serializes byte for byte like the rebuild
    through the checked constructors, on every edge, both ways round, of
    seeded switched stacked triangulations and switched grown seeds, and
    on non-edges and non-triangulations; the refusals carry the same
    message. Contractions of the last vertex, where nothing is renumbered,
    are counted, and the last split of larger growths is undone too."""
    rng = random.Random(3141)
    cases = [random_stacked(rng, n, hub_bias=hub, switch_p=0.5)[0]
             for n in (4, 5, 7, 12, 30) for hub in (0.0, 0.5)]
    seeds = [load_bundled("k4_sphere"), load_bundled("k6_projective"), _k3_sphere(),
             parse_embedding((DATA / "projective_irreducible_7.emb").read_text())]
    for seed in seeds:
        cases.append(_switched(rng, split_growth(seed, seed.n + rng.randint(0, 20))))
    cases += [random_rotation_system(rng, rng.randint(3, 8)) for _ in range(20)]
    done = refused = last = 0
    for eg in cases:
        edges = [(u, v) for a, b in eg.graph.sorted_edges() for u, v in ((a, b), (b, a))]
        edges += [(0, 0), (0, eg.n), (-1, 1)]
        for edge in edges:
            got = _contraction(contract_reducible, eg, edge)
            assert got == _contraction(slow_contract_reducible, eg, edge), (eg, edge)
            done += not got.startswith("refused")
            refused += got.startswith("refused")
            last += edge[1] == eg.n - 1 and not got.startswith("refused")
    for seed in seeds[:2]:
        grown = _switched(rng, split_growth(seed, 300))
        for v in grown.rotations[-1]:
            edge = (v, grown.n - 1)
            got = _contraction(contract_reducible, grown, edge)
            assert got == _contraction(slow_contract_reducible, grown, edge), edge
            last += not got.startswith("refused")
    assert done > 300 and refused > 300 and last > 30, (done, refused, last)


def test_parse_fast_path_matches_checked_reader():
    """The name-table reader declines wherever the token-at-a-time reader
    raises, and the parse then raises its message; where the token reader
    accepts, the name-table reader gives the same embedding unless a line
    is not spelled as ``serialize_embedding`` writes it, and the edge-set
    oracle and the parse give it too.
    Seeded signed rotation systems, serialized, then each mutated once."""
    rng = random.Random(1729)
    mutations = respelled = 0
    for _ in range(300):
        eg = random_rotation_system(rng, rng.randint(1, 9))
        lines = serialize_embedding(eg).splitlines()
        v = rng.randrange(eg.n)
        head, _, rest = lines[v + 1].partition(":")
        toks = rest.split()
        kind = rng.randrange(8)
        if kind == 1 and toks:
            toks[rng.randrange(len(toks))] += "-"
        elif kind == 2 and toks:
            del toks[rng.randrange(len(toks))]
        elif kind == 3:
            toks.append(rng.choice([str(v), str(eg.n), "-1", "x", "-", "2--", "1_0", " "]))
        elif kind == 4 and toks:
            toks.append(rng.choice(toks))
        elif kind == 5:
            head = rng.choice(["x", str(v + 1), f" {v} "])
        elif kind == 6 and toks:
            toks[rng.randrange(len(toks))] = str(rng.randrange(eg.n))
        elif kind == 7 and toks:
            tok = toks[rng.randrange(len(toks))].rstrip("-")
            toks = [t.rstrip("-") if t.rstrip("-") == tok else t for t in toks]
        lines[v + 1] = f"{head}: " + " ".join(toks)
        numbered = [(i + 1, ln) for i, ln in enumerate(lines)]
        fast = embedding._read_rotations(eg.n, lines[1:])
        oracle = slow_read_rotations(eg.n, lines[1:])
        try:
            checked = embedding._read_rotations_checked(eg.n, numbered)
        except ParseError as exc:
            assert fast is None and oracle is None
            assert _parsed(parse_embedding, "\n".join(lines)) == str(exc)
            mutations += 1
            continue
        spelled = [ln.rstrip() for ln in lines[1:]] == serialize_embedding(checked).splitlines()[1:]
        assert fast == checked if spelled else fast in (None, checked)
        respelled += not spelled
        assert oracle == checked
        assert parse_embedding("\n".join(lines)) == checked
    assert mutations > 100 and respelled > 5, (mutations, respelled)


def _mutate(rng, text, kind):
    """One seeded fault, or one harmless variation, in an embedding
    document whose every line lists at least one neighbor."""
    lines = text.splitlines()
    n = int(lines[0])
    v = rng.randrange(n)
    head, _, rest = lines[v + 1].partition(":")
    toks = rest.split()
    i = rng.randrange(len(toks))
    if kind == "loop":
        toks.insert(i, str(v))
    elif kind == "duplicate":  # at one end, or at both, which lists the reverse twice too
        u = toks[rng.randrange(len(toks))]
        toks.insert(i, u)
        if rng.random() < 0.5:
            w = int(u.rstrip("-"))
            lines[w + 1] += " " + str(v) + u[len(u.rstrip("-")):]
    elif kind == "missing":
        del toks[i]
    elif kind == "range":
        toks.insert(i, rng.choice([str(n), str(n + 7), "-1"]))
    elif kind == "sign":
        toks[i] = toks[i][:-1] if toks[i].endswith("-") else toks[i] + "-"
    elif kind == "order":
        w = rng.choice([u for u in range(n) if u != v])
        lines[v + 1], lines[w + 1] = lines[w + 1], lines[v + 1]
        return "\n".join(lines) + "\n"
    elif kind == "zeros":
        toks[i] = "00" + toks[i]
    elif kind == "plus":
        toks[i] = "+" + toks[i]
    elif kind == "token":
        toks[i] = rng.choice(["x", "1.0", "1_0", "-", "3--", "0x1", "--1"])
    elif kind == "head":
        head = rng.choice([f" {v} ", f"0{v}", f"+{v}", "x"])
    else:  # comment and blank lines, before the header too
        for _ in range(rng.randint(1, 3)):
            lines.insert(rng.randint(0, len(lines)),
                         rng.choice(["", "   ", "# note", "  # 1: 0", "#"]))
        return "\n".join(lines) + "\n"
    lines[v + 1] = f"{head}: " + " ".join(toks)
    return "\n".join(lines) + "\n"


def _parsed(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return str(exc)


def test_parse_matches_the_edge_set_oracle():
    """Seeded mutations of stacked and grown documents, signed and
    switched: the parse accepts exactly what the reader of whole lines
    through edge sets accepts, gives equal embeddings, and raises the same
    message on every other document."""
    rng = random.Random(3141)
    kinds = ["loop", "duplicate", "missing", "range", "sign", "order", "zeros", "plus",
             "token", "head", "comments"]
    seen = {kind: [0, 0] for kind in kinds}  # accepted, refused
    for trial in range(440):
        if trial % 2:
            eg = random_stacked(rng, rng.randint(4, 60), hub_bias=rng.choice([0.0, 0.5]),
                                switch_p=0.5)[0]
        else:
            seed = _switched(rng, load_bundled(rng.choice(["k4_sphere", "k6_projective"])))
            eg = _switched(rng, split_growth(seed, seed.n + rng.randint(0, 40)))
        kind = kinds[trial % len(kinds)]
        text = _mutate(rng, serialize_embedding(eg), kind)
        want = _parsed(slow_parse_embedding, text)
        assert _parsed(parse_embedding, text) == want, (kind, text)
        seen[kind][isinstance(want, str)] += 1
    for kind in ("zeros", "plus", "comments"):
        assert seen[kind][1] == 0 and seen[kind][0] > 0, (kind, seen)
    for kind in ("loop", "duplicate", "missing", "range", "sign", "order", "token"):
        assert seen[kind][0] == 0 and seen[kind][1] > 0, (kind, seen)
    assert min(seen["head"]) > 0, seen


def _orientable(eg):
    """Whether some switching makes every edge positive: the negative edges
    are exactly those between two sides of each component."""
    side = [None] * eg.n
    for root in range(eg.n):
        if side[root] is None:
            side[root], stack = 0, [root]
            while stack:
                u = stack.pop()
                for w in eg.rotations[u]:
                    if side[w] is None:
                        side[w] = side[u] ^ (eg.sign(u, w) < 0)
                        stack.append(w)
    return all((side[u] != side[w]) == (eg.sign(u, w) < 0)
               for u in range(eg.n) for w in eg.rotations[u])


def test_faces_output_matches_the_tuple_oracle(capsys, tmp_path):
    """faces and faces --json print the tuple-state oracle's walks, one
    line or one list per walk, on seeded signed rotation systems: orientable
    and not, with faces that are not triangles, several components,
    isolated vertices, and no edges at all."""
    rng = random.Random(1618)
    cases = [random_rotation_system(rng, rng.randint(1, 12)) for _ in range(120)]
    cases += [EmbeddedGraph.build(Graph.build(n, []), [()] * n) for n in (1, 3)]
    cases += [_switched(rng, split_growth(load_bundled("k6_projective"), 30)),
              random_stacked(rng, 50, hub_bias=0.5, switch_p=0.5)[0]]
    seen = {"orientable": 0, "non-orientable": 0, "not a triangle": 0, "components": 0,
            "isolated": 0, "no edges": 0}
    path = tmp_path / "emb.emb"
    for eg in cases:
        walks = [face_tail_vertices(f) for f in slow_trace_faces(eg)]
        path.write_text(serialize_embedding(eg))
        text = "".join(" ".join(map(str, w)) + "\n" for w in walks)
        assert main(["faces", str(path)]) == 0
        assert capsys.readouterr().out == text
        assert main(["--json", "faces", str(path)]) == 0
        assert capsys.readouterr().out == json.dumps([list(w) for w in walks]) + "\n"
        seen["orientable" if _orientable(eg) else "non-orientable"] += 1
        seen["not a triangle"] += any(len(w) != 3 for w in walks)
        seen["components"] += len(connected_components(eg.graph)) > 1
        seen["isolated"] += () in eg.rotations
        seen["no edges"] += eg.m == 0
    assert min(seen.values()) >= 2, seen


def _triangles(g):
    return [(a, b, c) for a, b in g.sorted_edges() for c in sorted(g.adj[a] & g.adj[b])
            if c > b]


def test_split_triangle_accepts_exactly_the_facial_triangles():
    """split_triangle's local check against the oracle's face list: every
    triangle of the graph, separating ones included, and random triples
    that are not triangles. An accepted split replaces the face by three
    new ones."""
    rng = random.Random(1618)
    embeddings = [_k3_sphere()]
    for _ in range(40):
        embeddings.append(random_stacked(rng, rng.randint(4, 30), hub_bias=0.5,
                                         switch_p=rng.choice([0.0, 0.5]))[0])
        seed = load_bundled(rng.choice(["k4_sphere", "k6_projective"]))
        embeddings.append(_switched(rng, split_growth(seed, seed.n + rng.randint(0, 12))))
        embeddings.append(random_rotation_system(rng, rng.randint(3, 8)))
    accepted = 0
    for eg in embeddings:
        oracle = slow_trace_faces(eg)
        facial = {frozenset(face_tail_vertices(f)) for f in oracle if is_triangle_face(f)}
        triangles = _triangles(eg.graph)
        others = [tuple(rng.sample(range(eg.n), 3)) for _ in range(10)]
        for tri in triangles + [t for t in others if tuple(sorted(t)) not in triangles]:
            if frozenset(tri) not in facial:
                with pytest.raises(PreconditionError, match="is not a facial triangle"):
                    split_triangle(eg, tri)
                continue
            accepted += 1
            out = split_triangle(eg, tri)
            if not all(map(is_triangle_face, oracle)):
                continue
            before = sorted(tuple(sorted(face_tail_vertices(f))) for f in oracle)
            before.remove(tuple(sorted(tri)))
            a, b, c = sorted(tri)
            w = eg.n
            expect = sorted(before + [(a, b, w), (a, c, w), (b, c, w)])
            assert sorted(tuple(sorted(face_tail_vertices(f)))
                          for f in slow_trace_faces(out)) == expect
    assert accepted > 1000


def test_contract_with_nonfacial_triangles_around():
    # triangular bipyramid: the equator triangle (0,1,2) is not a face, and
    # every spoke edge lies in exactly two triangles whose faces match
    faces = [(0, 1, 3), (0, 3, 2), (1, 2, 3), (0, 1, 4), (0, 4, 2), (1, 2, 4)]
    eg = slow_embedding_from_faces(5, faces)
    assert is_triangulation(eg) and euler_genus(eg) == 0
    reds = reducible_edges(eg)
    assert (0, 3) in reds and (0, 1) not in reds  # equator edges sit in 3 triangles
    for e in reds:
        out = contract_reducible(eg, e)
        assert is_triangulation(out) and euler_genus(out) == 0
    with pytest.raises(PreconditionError, match="triangles"):
        contract_reducible(eg, (0, 1))


def test_build_refusals():
    p3 = Graph.build(3, [(0, 1), (1, 2)])
    with pytest.raises(PreconditionError, match="one rotation per vertex"):
        EmbeddedGraph.build(p3, [(1,), (0, 2)])
    with pytest.raises(PreconditionError, match="rotation at 1 is not a permutation"):
        EmbeddedGraph.build(p3, [(1,), (0,), (1,)])
    with pytest.raises(PreconditionError, match=r"non-edges: \[\(0, 2\)\]"):
        EmbeddedGraph.build(p3, [(1,), (0, 2), (1,)], [(2, 0)])
    assert EmbeddedGraph.build(p3, [(1,), (0, 2), (1,)], [(1, 0)]).negative_edges == {(0, 1)}


def test_min_genus_search():
    g, emb = min_genus_search(complete_graph(4))
    assert g == 0 and euler_genus(emb) == 0
    g, emb = min_genus_search(complete_graph(5))
    assert g == 1 and euler_genus(emb) == 1
    k33 = Graph.build(6, [(i, j) for i in range(3) for j in range(3, 6)])
    g, emb = min_genus_search(k33)
    assert g == 1 and euler_genus(emb) == 1
    with pytest.raises(CapExceeded):
        min_genus_search(complete_graph(9))
    with pytest.raises(CapExceeded):
        min_genus_search(Graph.build(8, [(i, j) for i in range(8) for j in range(i + 1, 8)
                                         if i + j > 2]))


def test_min_genus_search_adds_over_components():
    """A disconnected graph's genus is the sum of its components' searches,
    with one witness embedding of the whole graph."""
    k33 = [(i, j) for i in range(3) for j in range(3, 6)]
    k4 = list(complete_graph(4).edges)
    cases = [(Graph.build(8, k33 + [(6, 7)]), 1),
             (Graph.build(8, k4 + [(u + 4, v + 4) for u, v in k4]), 0),
             (Graph.build(4, [(0, 1), (1, 2), (0, 2)]), 0)]
    for g, expected in cases:
        genus, emb = min_genus_search(g)
        parts = [min_genus_search(induced_subgraph(g, c))[0] for c in connected_components(g)]
        assert genus == expected == sum(parts) and len(parts) == 2
        assert emb.graph.edges == g.edges


def test_min_genus_search_tries_is_a_total():
    """K5 needs 10,284 traces and K3 one, so their disjoint union needs
    10,285 in all: one fewer is over the cap."""
    g = Graph.build(8, list(complete_graph(5).edges) + [(5, 6), (6, 7), (5, 7)])
    with pytest.raises(CapExceeded):
        min_genus_search(g, tries=10284)
    assert min_genus_search(g, tries=10285)[0] == 1


def test_fixture_projective_irreducible_7():
    eg = parse_embedding((DATA / "projective_irreducible_7.emb").read_text())
    assert eg.n == 7 and eg.m == 18
    assert euler_genus(eg) == 1
    assert is_triangulation(eg)
    assert reducible_edges(eg) == []
    missing = set((i, j) for i in range(7) for j in range(i + 1, 7)) - set(eg.graph.edges)
    assert missing == {(0, 1), (0, 2), (1, 2)}
    assert [count_cliques(eg.graph, s) for s in (3, 4, 5, 6)] == [22, 13, 3, 0]


def test_invariant_errors_survive_optimization(monkeypatch, capsys, tmp_path):
    """Too many faces give a negative genus, which an explicit check
    catches; the CLI reports it in one line with exit 1."""
    path = tmp_path / "k4.emb"
    path.write_text(serialize_embedding(sphere_irreducible()))
    trace = embedding._trace

    def doubled(eg):
        table = trace(eg)
        return embedding._Table(table.head, table.order, table.ends * 2)

    monkeypatch.setattr(embedding, "_trace", doubled)
    with pytest.raises(InternalInvariantError):
        euler_genus(parse_embedding(path.read_text()))
    assert main(["genus", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


GOLDEN = DATA / "embedding_golden.txt"


def _k3_sphere():
    """K3 on the sphere: two triangular faces, every corner of degree 2."""
    return EmbeddedGraph.build(complete_graph(3), [(1, 2), (0, 2), (0, 1)])


def _switched(rng, eg):
    for v in rng.sample(range(eg.n), rng.randint(1, eg.n)):
        eg = switch_vertex(eg, v)
    return eg


def _walks_text(eg):
    return "".join(" ".join(f"{u}>{v}" for u, v in steps) + "\n" for steps in face_steps(eg))


def golden_text():
    """Growth, face walks and splits, each after a ``# name`` line. Growth
    to each size continues the growth to the previous size, which gives
    the same embedding as growing the seed directly."""
    out = []
    for name in ("k4_sphere", "k6_projective"):
        eg = load_bundled(name)
        for n in (5, 6, 9, 17, 57, 150, 400):
            if n >= eg.n:
                eg = split_growth(eg, n)
                out.append(f"# {name} grown to {n}\n{serialize_embedding(eg)}")
        out.append(f"# {name} grown to 400, walks\n{_walks_text(eg)}")
    eg = split_growth(_k3_sphere(), 12)
    out.append(f"# k3_sphere grown to 12\n{serialize_embedding(eg)}")
    out.append(f"# k3_sphere grown to 12, walks\n{_walks_text(eg)}")
    rng = random.Random(5150)
    seeds = [load_bundled("k4_sphere"), load_bundled("k6_projective"), _k3_sphere(),
             parse_embedding((DATA / "projective_irreducible_7.emb").read_text())]
    for i in range(20):
        seed = _switched(rng, rng.choice(seeds))
        eg = split_growth(seed, seed.n + rng.randint(0, 25))
        out.append(f"# switched {i}, grown to {eg.n}\n{serialize_embedding(eg)}")
        if i % 4 == 0:
            out.append(f"# switched {i}, walks\n{_walks_text(eg)}")
        eg = _switched(rng, eg)
        for _ in range(3):
            face = tuple(sorted(rng.choice(face_vertices(eg))))
            eg = split_triangle(eg, face)
            out.append(f"# switched {i}, split at {face}\n{serialize_embedding(eg)}")
    prism = Graph.build(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                            (0, 3), (1, 4), (2, 5)])
    for name, g in (("K4", complete_graph(4)), ("K5", complete_graph(5)), ("prism", prism)):
        genus, eg = min_genus_search(g)
        out.append(f"# min_genus_search {name}: genus {genus}\n{serialize_embedding(eg)}")
    return "".join(out)


def test_golden_embeddings():
    assert golden_text() == GOLDEN.read_text()


if __name__ == "__main__":
    # rewrites the golden file; only for an intended change of the embeddings
    GOLDEN.write_text(golden_text())

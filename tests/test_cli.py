import json
import random
from pathlib import Path

import pytest

from support import random_stacked, slow_split_growth, slow_split_path
from surfcount import counting, embedding
from surfcount.census import render_table, surface_table
from surfcount.cli import build_parser, main
from surfcount.graph import Graph, complete_graph, path_graph, serialize_graph
from surfcount.surfaces import load_bundled

DATA = Path(__file__).parent / "data"


@pytest.fixture
def k5_file(tmp_path):
    p = tmp_path / "k5.g"
    p.write_text(serialize_graph(complete_graph(5)))
    return str(p)


@pytest.fixture
def p5_file(tmp_path):
    p = tmp_path / "p5.g"
    p.write_text(serialize_graph(path_graph(5)))
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_flap_number_and_snp(capsys, k5_file, p5_file):
    code, out, _ = run(capsys, "flap-number", k5_file)
    assert code == 0 and out.strip() == "0"
    code, out, _ = run(capsys, "flap-number", p5_file)
    assert code == 0 and out.strip() == "3"
    code, out, _ = run(capsys, "snp", k5_file)
    assert code == 0 and out.strip() == "true"


def test_beta_and_domain_error(capsys, k5_file, p5_file):
    code, out, _ = run(capsys, "beta", p5_file)
    assert code == 0 and out.strip() == "3"
    code, out, err = run(capsys, "beta", k5_file)
    assert code == 1 and out == "" and "not a tree" in err


def test_usage_error_exit_2(capsys):
    code = main(["definitely-not-a-command"])
    assert code == 2


@pytest.mark.parametrize("text, message", [
    ("# only a comment\n", "empty graph document"),
    ("3\n", "line 1: expected header 'n m', got '3'"),
    ("three 0\n", "line 1: non-integer header 'three 0'"),
    ("2 -1\n", "line 1: negative counts in header"),
    ("3 1\n0 1 2\n", "line 2: expected 'u v', got '0 1 2'"),
])
def test_graph_parse_refusals(capsys, tmp_path, text, message):
    path = tmp_path / "bad.g"
    path.write_text(text)
    assert run(capsys, "flap-number", str(path)) == (1, "", f"error: {message}\n")


def test_missing_file(capsys):
    assert run(capsys, "flap-number", "/no/such/file.g") == (
        1, "", "error: no such file: /no/such/file.g\n")


def test_unreadable_inputs_are_one_error_line(capsys, tmp_path):
    """A directory, or a file that is not UTF-8 text, given to a graph
    command, an embedding command or ``table --list``, and bounds past the
    largest float each exit 1 with one ``error:`` line."""
    undecodable = tmp_path / "bytes.txt"
    undecodable.write_bytes(b"\xff\xfe")
    argvs = [(*command, str(path)) for path in (tmp_path, undecodable)
             for command in (("count", str(undecodable)), ("genus",),
                             ("table", "--genus", "1", "--list"))]
    argvs += [("bounds", "--genus", "1000000", "--s", "400"),
              ("--json", "bounds", "--genus", "1000000", "--s", "400"),
              ("bounds", "--genus", str(10**400), "--s", "3", "--n", "5")]
    for argv in argvs:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "") and err.startswith("error: "), argv
        assert err.count("\n") == 1, err


def test_count_and_hom(capsys, tmp_path, k5_file):
    p3 = tmp_path / "p3.g"
    p3.write_text(serialize_graph(path_graph(3)))
    code, out, _ = run(capsys, "count", str(p3), k5_file)
    assert code == 0 and out.strip() == "30"
    code, out, _ = run(capsys, "hom", str(p3), k5_file)
    assert code == 0 and out.strip() == "80"  # 5*4*4
    code, out, _ = run(capsys, "--json", "count", str(p3), k5_file)
    assert json.loads(out) == {"count": "30"}
    code, out, err = run(capsys, "count", "--work-cap", "3", str(p3), k5_file)
    assert code == 1 and out == "" and err.count("\n") == 1
    assert "DP steps" in err and "spasm" in err


def test_negative_caps_are_usage_errors(capsys, tmp_path):
    """A negative ``--work-cap`` or ``--cap`` is refused by the parser: exit
    2, nothing on stdout, the flag named on stderr. A cap of 0 parses, and
    the command then stops at it."""
    p3, k4 = tmp_path / "p3.g", tmp_path / "k4.g"
    p3.write_text(serialize_graph(path_graph(3)))
    k4.write_text(serialize_graph(complete_graph(4)))
    for argv in (["count", "--work-cap", "-5", str(p3), str(k4)],
                 ["hom", "--work-cap", "-1", str(p3), str(k4)],
                 ["scaling", "--graph", str(p3), "--generator", "tree-blowup",
                  "--sizes", "4,8", "--work-cap", "-1"],
                 ["flap-number", "--cap", "-1", str(p3)]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        flag = next(arg for arg in argv if arg.endswith("cap"))
        assert f"argument {flag}: a cap must be at least 0, got -" in err
    code, out, err = run(capsys, "flap-number", "--cap", "0", str(p3))
    assert (code, out, err) == (1, "", "error: flap_number cap is 0 vertices, got 3\n")
    code, out, err = run(capsys, "count", "--work-cap", "0", str(p3), str(k4))
    assert code == 1 and out == "" and "after 0 DP steps" in err


def test_count_pattern_larger_than_host(capsys, tmp_path):
    """No injective map exists, so no automorphism of the 3000-vertex
    path is counted and the answer is 0."""
    p = tmp_path / "p3000.g"
    p.write_text(serialize_graph(path_graph(3000)))
    k2 = tmp_path / "k2.g"
    k2.write_text(serialize_graph(complete_graph(2)))
    assert run(capsys, "count", str(p), str(k2)) == (0, "0\n", "")


def test_table_sphere(capsys):
    code, out, _ = run(capsys, "table", "--surface", "sphere")
    assert code == 0
    assert "3n-8" in out and "n-3" in out and "8n-16" in out
    code, json_out, _ = run(capsys, "--json", "table", "--surface", "sphere")
    record = json.loads(json_out)
    assert record["entries"]["3"] == {"a": 3, "b": -8}
    assert record["total"] == {"a": 8, "b": -16}


def test_table_text_and_json_agree(capsys):
    fixture = str(DATA / "projective_irreducible_7.emb")
    code, text, _ = run(capsys, "table", "--surface", "n1", "--list", fixture,
                        "--complete")
    assert code == 0
    code, json_out, _ = run(capsys, "--json", "table", "--surface", "n1",
                            "--list", fixture, "--complete")
    record = json.loads(json_out)
    cells = text.splitlines()[1].split()
    # text row: name, s=0..6 entries, total; compare a couple
    assert cells[4] == "3n+2" and record["entries"]["3"] == {"a": 3, "b": 2}
    assert cells[-1] == "8n+16" and record["total"] == {"a": 8, "b": 16}
    assert record["complete"] is True


def test_custom_surface(capsys):
    """A custom surface takes its genus, name and members from the flags;
    without a name it is called after its genus. It needs both a genus
    and a member file."""
    member = DATA / "projective_irreducible_7.emb"
    table = surface_table("N1b", 1, [embedding.parse_embedding(member.read_text())], False)
    assert run(capsys, "table", "--surface", "custom", "--genus", "1", "--name", "N1b",
               "--list", str(member)) == (0, render_table(table), "")
    code, out, _ = run(capsys, "census", "--surface", "custom", "--genus", "1",
                       "--list", str(member))
    assert code == 0
    assert json.loads(out) == {**table.as_dict(), "surface": "genus1"}
    assert run(capsys, "table", "--surface", "custom", "--list", str(member)) == (
        1, "", "error: custom surface needs --genus\n")
    assert run(capsys, "census", "--surface", "custom", "--genus", "1") == (
        1, "", "error: custom surface needs at least one --list file\n")


def test_census_partial_mode(capsys):
    code, out, _ = run(capsys, "--json", "census", "--surface", "n1")
    record = json.loads(out)
    assert record["complete"] is False
    assert record["entries"]["3"] == {"a": 3, "b": 2}


def test_grow_and_genus_roundtrip(capsys, tmp_path):
    code, out, _ = run(capsys, "grow", "k6-projective", "9")
    assert code == 0
    emb = tmp_path / "grown.emb"
    emb.write_text(out)
    code, out, _ = run(capsys, "genus", str(emb))
    assert code == 0 and out.strip() == "1"
    code, out, _ = run(capsys, "faces", str(emb))
    assert code == 0 and all(len(ln.split()) == 3 for ln in out.splitlines())


def test_grow_20000_and_genus_roundtrip(capsys, tmp_path):
    code, out, _ = run(capsys, "grow", "k4-sphere", "20000")
    assert code == 0
    emb = tmp_path / "grown.emb"
    emb.write_text(out)
    code, out, err = run(capsys, "genus", str(emb))
    assert (code, out, err) == (0, "0\n", "")


def test_census_traces_each_member_once(capsys, monkeypatch):
    """Validation and both excesses share one trace per list member,
    counted at the tracer behind the face cache."""
    calls = []

    def counted(eg):
        calls.append(eg.n)
        return trace(eg)

    trace = embedding._trace
    monkeypatch.setattr(embedding, "_trace", counted)
    code, _, _ = run(capsys, "table", "--surface", "n1", "--list",
                     str(DATA / "projective_irreducible_7.emb"))
    assert code == 0
    assert sorted(calls) == [6, 7]


def test_split_triangle_cli_traces_nothing(capsys, monkeypatch, tmp_path):
    """The facial check reads three steps of two orbits, so splitting a
    face of a 1500-vertex stack traces no embedding."""
    eg, faces = random_stacked(random.Random(1500), 1500, hub_bias=0.5, switch_p=0.5)
    path = tmp_path / "stack.emb"
    path.write_text(embedding.serialize_embedding(eg))
    calls = []

    def counted(eg):
        calls.append(eg.n)
        return trace(eg)

    trace = embedding._trace
    monkeypatch.setattr(embedding, "_trace", counted)
    x, v, y = faces[777]
    code, out, err = run(capsys, "split", str(path), str(x), str(v), str(y), "--triangle")
    assert (code, err, calls) == (0, "", [])
    grown = embedding.parse_embedding(out)
    assert grown.n == 1501 and embedding.euler_genus(grown) == 0
    assert embedding.is_triangulation(grown)


def test_table_paths_build_no_walks(capsys, monkeypatch, tmp_path):
    """genus, faces, contract and split --triangle on a 1500-vertex stack
    read the dart table or the rotations: they construct no Graph, and the
    split builds maps only for the face's three vertices and the new one.
    grow prints what it printed before."""
    eg, faces = random_stacked(random.Random(1501), 1500, hub_bias=0.5, switch_p=0.5)
    path = tmp_path / "stack.emb"
    path.write_text(embedding.serialize_embedding(eg))
    built = []

    def counted(kind, make):
        def wrapped(*args, **kwargs):
            built.append(kind)
            return make(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(Graph, "__init__", counted("graph", Graph.__init__))
    touched = []
    touch = embedding._Splitter.touch
    monkeypatch.setattr(embedding._Splitter, "touch",
                        lambda self, v: touched.append(v) or touch(self, v))
    a, b, c = faces[-1]  # the last vertex, c, has degree 3
    x, v, y = faces[777]
    for argv, want in ((["genus", str(path)], "0\n"),
                       (["faces", str(path)], None),
                       (["contract", str(path), str(a), str(c)], None),
                       (["split", str(path), str(x), str(v), str(y), "--triangle"], None)):
        code, out, err = run(capsys, *argv)
        assert (code, err, built) == (0, "", []), argv
        assert want is None or out == want
        if argv[0] == "faces":
            assert len(out.splitlines()) == 2 * 1500 - 4
    assert sorted(set(touched)) == sorted((x, v, y)) + [1500]
    # growth on the splitter that builds maps on first touch prints what
    # the retracing oracle grows
    for seed, name, n in (("k4-sphere", "k4_sphere", 60), ("k6-projective", "k6_projective", 45)):
        want = embedding.serialize_embedding(slow_split_growth(load_bundled(name), n))
        assert run(capsys, "grow", seed, str(n)) == (0, want, "")


def test_genus_of_the_empty_embedding(capsys, tmp_path):
    """A document with no vertices parses, but has no genus: one error
    line and exit 1."""
    path = tmp_path / "empty.emb"
    path.write_text("0\n")
    code, out, err = run(capsys, "genus", str(path))
    assert (code, out, err) == (1, "", "error: empty graph has no embedding\n")


def test_in_process_calls_do_not_leak(capsys):
    """One parser serves every call in the process: a call with a list
    file and --complete, or a usage error, leaves nothing behind for the
    next call."""
    sphere = render_table(surface_table("S0", 0, [load_bundled("k4_sphere")], True))
    member = str(DATA / "projective_irreducible_7.emb")
    code, out, _ = run(capsys, "table", "--surface", "n1", "--list", member, "--complete")
    assert code == 0 and out != sphere
    assert run(capsys, "table", "--surface", "sphere") == (0, sphere, "")
    code, out, err = run(capsys, "table", "--surface", "torus", "--complete")
    assert code == 2 and out == "" and "invalid choice" in err
    assert run(capsys, "table", "--surface", "sphere") == (0, sphere, "")
    assert run(capsys, "--json", "table", "--surface", "sphere")[0] == 0
    assert run(capsys, "table", "--surface", "sphere") == (0, sphere, "")
    assert build_parser() is build_parser()


def test_construct(capsys, tmp_path):
    p3 = tmp_path / "p3.g"
    p3.write_text(serialize_graph(path_graph(3)))
    code, out, _ = run(capsys, "construct", "tree-blowup", str(p3), "10")
    assert code == 0
    header = out.splitlines()[0].split()
    assert int(header[0]) <= 10
    code, out, _ = run(capsys, "construct", "paste", str(p3), "12")
    assert code == 0


def test_bounds_output(capsys):
    code, out, _ = run(capsys, "bounds", "--genus", "1", "--s", "5")
    assert code == 0
    kv = dict(ln.split("=") for ln in out.strip().splitlines())
    assert float(kv["upper"]) == 60.0 ** 5
    code, out, _ = run(capsys, "--json", "bounds", "--genus", "1", "--s", "3", "--n", "100")
    record = json.loads(out)
    assert abs(record["lower"] - (300 + 6 ** 0.5)) < 1e-9


def test_inequality(capsys, k5_file):
    """The records print their fields in declaration order as key=value
    lines, or as one JSON object with sorted keys."""
    goodman = ("inequality", "goodman", k5_file)
    assert run(capsys, *goodman) == (0, "lhs=300\nrhs=300\nholds=true\n", "")
    assert run(capsys, "--json", *goodman) == (
        0, '{"holds": true, "lhs": 300, "rhs": 300}\n', "")
    triangle = ("inequality", "genus-triangle", k5_file, "--genus", "1")
    assert run(capsys, *triangle) == (
        0, "lhs=10\nrhs=4\nholds=true\nhom_lhs=60\nhom_rhs=24\n", "")
    assert run(capsys, "--json", *triangle) == (
        0, '{"holds": true, "hom_lhs": 60, "hom_rhs": 24, "lhs": 10, "rhs": 4}\n', "")


def test_census_records_are_pinned(capsys):
    """The census record of each bundled surface, byte for byte."""
    assert run(capsys, "--json", "census", "--surface", "n1") == (0, (
        '{"complete": false, "entries": {"0": {"a": 0, "b": 1}, "1": {"a": 1, "b": 0}, '
        '"2": {"a": 3, "b": -3}, "3": {"a": 3, "b": 2}, "4": {"a": 1, "b": 9}, '
        '"5": {"a": 0, "b": 6}, "6": {"a": 0, "b": 1}}, "genus": 1, "n_min": 6, '
        '"surface": "N1", "thresholds": [0, 1, 6, 6, 6, 6, 6], '
        '"total": {"a": 8, "b": 16}}\n'), "")
    assert run(capsys, "--json", "table", "--surface", "sphere") == (0, (
        '{"complete": true, "entries": {"0": {"a": 0, "b": 1}, "1": {"a": 1, "b": 0}, '
        '"2": {"a": 3, "b": -6}, "3": {"a": 3, "b": -8}, "4": {"a": 1, "b": -3}}, '
        '"genus": 0, "n_min": 4, "surface": "S0", "thresholds": [0, 1, 4, 4, 4], '
        '"total": {"a": 8, "b": -16}}\n'), "")


def test_genus_triangle_refuses_lone_triangle(capsys, tmp_path):
    """A lone triangle, an isolated vertex and a single edge are outside the
    genus triangle bound's derivation: one error line and exit 1."""
    for name, g in [("k3", complete_graph(3)), ("k1", complete_graph(1)),
                    ("k2_and_k1", Graph.build(3, [(0, 1)]))]:
        p = tmp_path / f"{name}.g"
        p.write_text(serialize_graph(g))
        code, out, err = run(capsys, "inequality", "genus-triangle", str(p), "--genus", "0")
        assert code == 1 and out == "" and err.count("\n") == 1, name
        assert "lone triangle" in err


def test_contract_split_cli(capsys, tmp_path):
    code, grown, _ = run(capsys, "grow", "k4-sphere", "5")
    emb = tmp_path / "g.emb"
    emb.write_text(grown)
    code, out, _ = run(capsys, "contract", str(emb), "0", "4")
    assert code == 0
    back = tmp_path / "back.emb"
    back.write_text(out)
    code, out2, _ = run(capsys, "split", str(back), "1", "0", "2", "--triangle")
    assert code == 0


def test_split_path_cli(capsys, tmp_path):
    """Without --triangle, split is the path form x v y."""
    eg = embedding.parse_embedding(run(capsys, "grow", "k6-projective", "9")[1])
    path = tmp_path / "g.emb"
    path.write_text(embedding.serialize_embedding(eg))
    x, y = eg.rotations[0][:2]
    want = embedding.serialize_embedding(slow_split_path(eg, x, 0, y))
    assert run(capsys, "split", str(path), str(x), "0", str(y)) == (0, want, "")


def test_scaling_cli(capsys, tmp_path):
    p3 = tmp_path / "p3.g"
    p3.write_text(serialize_graph(path_graph(3)))
    code, out, _ = run(capsys, "scaling", "--graph", str(p3),
                       "--generator", "tree-blowup", "--sizes", "20,40,80")
    assert code == 0
    kv = dict(ln.split("=") for ln in out.strip().splitlines())
    assert 1.5 <= float(kv["slope"]) <= 2.5


def test_scaling_split_growth_json(capsys, tmp_path):
    """split-growth grows its hosts from a seed file, and --json prints the
    whole report as one record."""
    seed = tmp_path / "seed.emb"
    seed.write_text(embedding.serialize_embedding(load_bundled("k6_projective")))
    k3 = tmp_path / "k3.g"
    k3.write_text(serialize_graph(complete_graph(3)))
    code, out, err = run(capsys, "--json", "scaling", "--graph", str(k3), "--generator",
                         "split-growth", "--seed", str(seed), "--sizes", "10,20,40")
    assert code == 0, err
    rep = counting.scaling_exponent(
        complete_graph(3), [10, 20, 40],
        lambda n: slow_split_growth(load_bundled("k6_projective"), n).graph)
    assert out == json.dumps(rep.as_dict(), sort_keys=True) + "\n"
    assert json.loads(out)["host_orders"] == [10, 20, 40]


def test_scaling_cli_past_planarity_cap(capsys, tmp_path):
    """Blowup hosts of several hundred vertices are built and counted."""
    p3 = tmp_path / "p3.g"
    p3.write_text(serialize_graph(path_graph(3)))
    code, out, err = run(capsys, "scaling", "--graph", str(p3),
                         "--generator", "tree-blowup", "--sizes", "200,400,800")
    assert code == 0, err
    kv = dict(ln.split("=") for ln in out.strip().splitlines())
    assert kv["hosts"] == "197,397,797"
    assert abs(float(kv["slope"]) - 2) <= 0.3


def test_scaling_cli_large_blowups(capsys, p5_file):
    """P5 blowups up to 3200 vertices are counted exactly."""
    code, out, err = run(capsys, "scaling", "--graph", p5_file, "--generator", "tree-blowup",
                         "--sizes", "400,800,1600,3200")
    assert code == 0, err
    kv = dict(ln.split("=") for ln in out.strip().splitlines())
    assert kv["counts"] == "8906821,74087905,597476421,4826129505"


def test_deterministic_output(capsys, p5_file):
    runs = {run(capsys, "spqrk", p5_file)[1] for _ in range(3)}
    assert len(runs) == 1


def test_spqrk_deep_path(capsys, tmp_path):
    """A 600-vertex path nests 599 pieces deep; the tree still comes out
    whole, one line per node, with nothing on stderr."""
    p = tmp_path / "p600.g"
    p.write_text(serialize_graph(path_graph(600)))
    code, out, err = run(capsys, "spqrk", str(p))
    assert code == 0 and err == ""
    assert len(out.splitlines()) == 1197


def test_scaling_bad_sizes_is_usage_error(capsys, tmp_path):
    k2 = tmp_path / "k2.g"
    k2.write_text(serialize_graph(complete_graph(2)))
    code, out, err = run(capsys, "scaling", "--graph", str(k2),
                         "--generator", "tree-blowup", "--sizes", "10,x,30")
    assert code == 2 and out == ""
    assert "--sizes" in err and "Traceback" not in err


def test_flap_family_cli(capsys, tmp_path, p5_file):
    code, out, err = run(capsys, "flap-number", "--family", p5_file)
    assert code == 0 and err == ""
    assert out.splitlines() == ["3", "X=[0,3] S=[4]", "X=[1] S=[0]", "X=[1,3] S=[2]"]
    big = tmp_path / "e17.g"
    big.write_text("17 0\n")
    code, out, err = run(capsys, "flap-number", "--family", str(big))
    assert code == 1 and out == ""
    assert err == "error: flap_number cap is 16 vertices, got 17\n"


def test_scaling_equal_host_orders_is_domain_error(capsys, tmp_path):
    """Pasting P3 at 12, 13 and 14 gives three 9-vertex hosts, so the
    log-log slope has no spread to fit."""
    p3 = tmp_path / "p3.g"
    p3.write_text(serialize_graph(path_graph(3)))
    code, out, err = run(capsys, "scaling", "--graph", str(p3),
                         "--generator", "paste", "--sizes", "12,13,14")
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "9,9,9" in err

"""Command-line interface.

Subcommands bind the library operations into reproducible experiments.
Data goes to stdout, diagnostics to stderr; exit status 0 on success, 1
on domain errors (one line naming the violated precondition), 2 on usage
errors. All output is deterministic for fixed inputs and flags.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict

from . import census as census_mod
from . import constructions, counting, embedding, flaps, graph as graph_mod, spqrk
from .errors import SurfcountError
from .surfaces import load_bundled


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path) as f:
            return f.read()
    except FileNotFoundError:
        raise SurfcountError(f"no such file: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise SurfcountError(f"cannot read {path}: {exc}") from None


def _load_graph(path: str) -> graph_mod.Graph:
    return graph_mod.parse_graph(_read(path))


def _load_embedding(path: str) -> embedding.EmbeddedGraph:
    return embedding.parse_embedding(_read(path))


def _emit_kv(pairs: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(pairs, sort_keys=True))
    else:
        for k, v in pairs.items():
            if isinstance(v, bool):
                v = "true" if v else "false"
            print(f"{k}={v}")


def _surface_list(args) -> tuple[str, int, list[embedding.EmbeddedGraph], bool]:
    extra = [_load_embedding(p) for p in (args.list or [])]
    if args.surface == "sphere":
        # the bundled tetrahedron alone is the complete sphere list
        members = [load_bundled("k4_sphere")] + extra
        return "S0", 0, members, (not extra) or args.complete
    if args.surface == "n1":
        members = [load_bundled("k6_projective")] + extra
        return "N1", 1, members, args.complete
    if args.genus is None:
        raise SurfcountError("custom surface needs --genus")
    if not extra:
        raise SurfcountError("custom surface needs at least one --list file")
    return args.name or f"genus{args.genus}", args.genus, extra, args.complete


def _size_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


def _cap(text: str) -> int:
    """A cap's value: an integer of at least 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"a cap must be at least 0, got {value}")
    return value


def _add_surface_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--surface", choices=["sphere", "n1", "custom"], default="custom")
    p.add_argument("--genus", type=int, default=None)
    p.add_argument("--name", default=None)
    p.add_argument("--list", nargs="*", default=[],
                   help="irreducible triangulation files (embedding format)")
    p.add_argument("--complete", action="store_true",
                   help="assert the list is the complete irreducible list")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The whole parser, built on the first call and shared by every later
    one in the process; parsing leaves no state on it."""
    ap = argparse.ArgumentParser(prog="surfcount")
    ap.add_argument("--json", action="store_true", help="machine-readable output")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("flap-number", help="flap number of a graph")
    p.add_argument("graph")
    p.add_argument("--cap", type=_cap, default=flaps.DEFAULT_FLAP_SIZE_CAP)
    p.add_argument("--family", action="store_true",
                   help="also print a maximum independent flap family")

    p = sub.add_parser("snp", help="strongly-non-planar test")
    p.add_argument("graph")

    p = sub.add_parser("beta", help="low-degree stable set number of a tree")
    p.add_argument("graph")

    p = sub.add_parser("spqrk", help="decomposition tree of a connected graph")
    p.add_argument("graph")

    p = sub.add_parser("count", help="copies of H in G")
    p.add_argument("pattern")
    p.add_argument("host")
    p.add_argument("--work-cap", type=_cap, default=counting.DEFAULT_WORK_CAP)

    p = sub.add_parser("hom", help="homomorphisms from H to G")
    p.add_argument("pattern")
    p.add_argument("host")
    p.add_argument("--injective", action="store_true")
    p.add_argument("--work-cap", type=_cap, default=counting.DEFAULT_WORK_CAP)

    p = sub.add_parser("census", help="full census record for a surface")
    _add_surface_flags(p)

    p = sub.add_parser("table", help="census table row")
    _add_surface_flags(p)

    p = sub.add_parser("grow", help="split-grow a triangulation to n vertices")
    p.add_argument("seed", help="embedding file, or 'k4-sphere' / 'k6-projective'")
    p.add_argument("n", type=int)

    p = sub.add_parser("construct", help="lower-bound host constructions")
    p.add_argument("kind", choices=["paste", "tree-blowup"])
    p.add_argument("graph")
    p.add_argument("n", type=int)

    p = sub.add_parser("bounds", help="explicit bounds for clique counts at genus g")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--n", type=int, default=None)

    p = sub.add_parser("inequality", help="homomorphism inequality checks")
    p.add_argument("kind", choices=["goodman", "genus-triangle"])
    p.add_argument("graph")
    p.add_argument("--genus", type=int, default=0)

    p = sub.add_parser("scaling", help="log-log scaling slope of copy counts")
    p.add_argument("--graph", required=True)
    p.add_argument("--generator", choices=["tree-blowup", "paste", "split-growth"],
                   required=True)
    p.add_argument("--sizes", type=_size_list, required=True,
                   help="comma-separated, increasing")
    p.add_argument("--seed", default="k4-sphere",
                   help="seed embedding for split-growth")
    p.add_argument("--work-cap", type=_cap, default=counting.DEFAULT_WORK_CAP)

    p = sub.add_parser("genus", help="Euler genus of an embedding")
    p.add_argument("embedding")

    p = sub.add_parser("faces", help="facial walks of an embedding")
    p.add_argument("embedding")

    p = sub.add_parser("contract", help="contract a reducible edge")
    p.add_argument("embedding")
    p.add_argument("u", type=int)
    p.add_argument("v", type=int)

    p = sub.add_parser("split", help="split at x v y (path form), or a facial triangle")
    p.add_argument("embedding")
    p.add_argument("x", type=int)
    p.add_argument("v", type=int)
    p.add_argument("y", type=int)
    p.add_argument("--triangle", action="store_true",
                   help="treat x v y as a facial triangle to stellate")

    return ap


def _seed_embedding(name: str) -> embedding.EmbeddedGraph:
    if name == "k4-sphere":
        return load_bundled("k4_sphere")
    if name == "k6-projective":
        return load_bundled("k6_projective")
    return _load_embedding(name)


def _run(args) -> None:
    cmd = args.command
    if cmd == "flap-number":
        g = _load_graph(args.graph)
        if args.family:
            family, number = flaps.flap_family_and_number(g, size_cap=args.cap)
            print(number)
            for sep in family:
                print(sep.serialize())
        else:
            print(flaps.flap_number(g, size_cap=args.cap))
    elif cmd == "snp":
        value = flaps.is_strongly_non_planar(_load_graph(args.graph))
        print(json.dumps(value) if args.json else ("true" if value else "false"))
    elif cmd == "beta":
        print(flaps.tree_beta(_load_graph(args.graph)))
    elif cmd == "spqrk":
        tree = spqrk.spqrk_build(_load_graph(args.graph))
        sys.stdout.write(spqrk.serialize_spqrk(tree))
    elif cmd == "count":
        c = counting.count_copies(_load_graph(args.pattern), _load_graph(args.host),
                                  work_cap=args.work_cap)
        print(json.dumps({"count": str(c)}) if args.json else c)
    elif cmd == "hom":
        fn = counting.count_injective_hom if args.injective else counting.count_hom
        c = fn(_load_graph(args.pattern), _load_graph(args.host), work_cap=args.work_cap)
        print(json.dumps({"count": str(c)}) if args.json else c)
    elif cmd in ("census", "table"):
        name, genus, members, complete = _surface_list(args)
        table = census_mod.surface_table(name, genus, members, complete)
        if cmd == "census" or args.json:
            print(json.dumps(table.as_dict(), sort_keys=True))
        else:
            sys.stdout.write(census_mod.render_table(table))
    elif cmd == "grow":
        eg = constructions.split_growth(_seed_embedding(args.seed), args.n)
        sys.stdout.write(embedding.serialize_embedding(eg))
    elif cmd == "construct":
        g = _load_graph(args.graph)
        out = (constructions.lower_bound_graph(g, args.n) if args.kind == "paste"
               else constructions.tree_blowup(g, args.n))
        sys.stdout.write(graph_mod.serialize_graph(out))
    elif cmd == "bounds":
        b = census_mod.bounds(args.genus, args.s, args.n)
        _emit_kv({"genus": args.genus, "s": args.s,
                  **({"n": args.n} if args.n is not None else {}),
                  "lower": b.lower, "upper": b.upper}, args.json)
    elif cmd == "inequality":
        g = _load_graph(args.graph)
        rep = (counting.check_goodman(g) if args.kind == "goodman"
               else counting.check_genus_triangle_bound(g, args.genus))
        _emit_kv(asdict(rep), args.json)
    elif cmd == "scaling":
        h = _load_graph(args.graph)
        if args.generator == "tree-blowup":
            gen = lambda n: constructions.tree_blowup(h, n)
        elif args.generator == "paste":
            gen = lambda n: constructions.lower_bound_graph(h, n)
        else:
            seed = _seed_embedding(args.seed)
            gen = lambda n: constructions.split_growth(seed, n).graph
        rep = counting.scaling_exponent(h, args.sizes, gen, work_cap=args.work_cap)
        if args.json:
            print(json.dumps(rep.as_dict(), sort_keys=True))
        else:
            _emit_kv({"sizes": ",".join(map(str, rep.sizes)),
                      "hosts": ",".join(map(str, rep.host_orders)),
                      "counts": ",".join(map(str, rep.counts)),
                      "slope": f"{rep.slope:.4f}"}, False)
    elif cmd == "genus":
        print(embedding.euler_genus(_load_embedding(args.embedding)))
    elif cmd == "faces":
        faces = embedding.face_vertices(_load_embedding(args.embedding))
        if args.json:
            print(json.dumps(faces))
        else:
            sys.stdout.write("".join([" ".join(map(str, vs)) + "\n" for vs in faces]))
    elif cmd == "contract":
        eg = embedding.contract_reducible(_load_embedding(args.embedding),
                                          (args.u, args.v))
        sys.stdout.write(embedding.serialize_embedding(eg))
    elif cmd == "split":
        eg = _load_embedding(args.embedding)
        if args.triangle:
            out = embedding.split_triangle(eg, (args.x, args.v, args.y))
        else:
            out = embedding.split_path(eg, args.x, args.v, args.y)
        sys.stdout.write(embedding.serialize_embedding(out))
    else:  # pragma: no cover
        raise SurfcountError(f"unknown command {cmd}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _run(args)
    except SurfcountError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:  # pragma: no cover
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

"""Checks on the source tree itself."""

import ast
import importlib.util
import inspect
from collections import Counter
from pathlib import Path

import surfcount
from surfcount.embedding import serialize_embedding

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def test_no_assert_statements_in_src():
    """``python -O`` strips ``assert``, so no check in the package may be
    one: each must raise an error of its own."""
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    found = [f"{path.relative_to(SRC)}:{node.lineno}"
             for path in modules
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def _self_calls(tree: ast.AST, prefix: str):
    """Dotted names of the functions under ``tree`` that call themselves by
    name; a nested function is named after the functions around it."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = f"{prefix}.{node.name}"
            if any(isinstance(c, ast.Call) and isinstance(c.func, ast.Name)
                   and c.func.id == node.name for c in ast.walk(node)):
                yield name
            yield from _self_calls(node, name)
        elif isinstance(node, ast.ClassDef):
            yield from _self_calls(node, f"{prefix}.{node.name}")


def test_no_function_calls_itself():
    """Recursion depth must not grow with input size, so no function in
    the package calls itself: each search keeps an explicit stack."""
    found = [name for path in sorted(SRC.rglob("*.py"))
             for name in _self_calls(ast.parse(path.read_text(), str(path)), path.stem)]
    assert found == []


def test_no_unused_imports_in_src():
    """Every name a package module imports is used in it, so a deletion
    takes its imports along. ``__init__.py`` re-exports and is skipped."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(
                    node, "module", None) != "__future__":
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{path.relative_to(SRC)}:{line} {name}"
                  for name, line in sorted(imported.items()) if name not in used]
    assert found == []


def test_no_cross_call_caches():
    """No result is carried from one call to the next: the package names
    ``functools.cache`` or ``lru_cache`` nowhere, except to decorate
    ``cli.build_parser``, whose parser depends on no input. Memos that
    live on one graph object (``cached_property``) are allowed."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        allowed = {id(n) for node in ast.walk(tree)
                   if isinstance(node, ast.FunctionDef)
                   and (path.stem, node.name) == ("cli", "build_parser")
                   for d in node.decorator_list for n in ast.walk(d)}
        for node in ast.walk(tree):
            names = ([a.name for a in node.names] if isinstance(node, ast.ImportFrom)
                     else [node.id] if isinstance(node, ast.Name)
                     else [node.attr] if isinstance(node, ast.Attribute) else [])
            if {"cache", "lru_cache"} & set(names) and id(node) not in allowed:
                found.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert found == []


def test_every_exported_function_has_a_caller():
    """Each function in ``surfcount.__all__`` is named, as a name or an
    attribute, outside ``tests/``: in a package module other than
    ``__init__.py``, in a demo or in a tool. An export that only the tests
    need is not exported."""
    paths = [p for p in SRC.rglob("*.py") if p.name != "__init__.py"]
    paths += [*(ROOT / "demos").glob("*.py"), *(ROOT / "tools").glob("*.py")]
    named = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    exported = [name for name in surfcount.__all__
                if inspect.isfunction(getattr(surfcount, name))]
    assert exported
    assert [name for name in exported if name not in named] == []


def test_every_private_function_has_a_caller_in_src():
    """Each module-level ``_name`` function in the package is named, as a
    name or an attribute, somewhere in ``src/`` outside its own
    definition. A helper that only the tests still use is not kept."""
    trees = [ast.parse(path.read_text(), str(path)) for path in sorted(SRC.rglob("*.py"))]

    def named(node):
        return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                       if isinstance(n, (ast.Name, ast.Attribute)))

    everywhere = sum(map(named, trees), Counter())
    private = [node for tree in trees for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and node.name.startswith("_") and not node.name.startswith("__")]
    assert private
    assert [f.name for f in private if everywhere[f.name] == named(f)[f.name]] == []


def test_derive_tool_rebuilds_its_data_file():
    """The derivation tool still finds the committed 7-vertex projective
    triangulation, byte for byte."""
    path = ROOT / "tools" / "derive_n1_triangulation.py"
    spec = importlib.util.spec_from_file_location("derive_n1_triangulation", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    found = tool.derive()
    assert found is not None
    assert (serialize_embedding(found)
            == (ROOT / "tests" / "data" / "projective_irreducible_7.emb").read_text())

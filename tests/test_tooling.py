"""Checks on the source tree itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


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

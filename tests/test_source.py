"""Checks on the library source itself."""

import ast
from pathlib import Path

PACKAGE_DIR = Path(__file__).resolve().parent.parent / "src" / "gpolyvlp"
SOURCES = sorted(PACKAGE_DIR.glob("*.py"))


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so an invariant written as one
    # silently stops being checked; invariants raise InternalInvariantError.
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and found == []

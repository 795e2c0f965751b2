"""Checks on the library source itself."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).parent.parent / "src" / "tnlab").glob("*.py"))


def test_library_has_no_assert_statements():
    # `python -O` strips asserts, so invariants must raise real exceptions
    found = {}
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        if lines:
            found[path.name] = lines
    assert SOURCES, "no library sources found"
    assert found == {}, f"assert statements (file: lines): {found}"

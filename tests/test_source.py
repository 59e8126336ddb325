"""Source-level rules for the stackcoh package."""

import ast
from pathlib import Path

import stackcoh


def test_no_assert_statements():
    # invariants are exceptions: an assert vanishes under python -O
    paths = sorted(Path(stackcoh.__file__).parent.glob("*.py"))
    assert paths
    found = [f"{path.name}:{node.lineno}"
             for path in paths
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []

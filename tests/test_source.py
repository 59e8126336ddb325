"""Source-level rules for the stackcoh package."""

import ast
from pathlib import Path

import stackcoh


def _nodes():
    paths = sorted(Path(stackcoh.__file__).parent.glob("*.py"))
    assert paths
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            yield path.name, node


def test_no_assert_statements():
    # invariants are exceptions: an assert vanishes under python -O
    found = [f"{name}:{node.lineno}" for name, node in _nodes()
             if isinstance(node, ast.Assert)]
    assert found == []


def _elimination_arithmetic(node) -> bool:
    if isinstance(node, ast.ImportFrom) and node.module == "math":
        return any(alias.name == "gcd" for alias in node.names)
    if isinstance(node, ast.Attribute):
        return node.attr == "gcd" and \
            isinstance(node.value, ast.Name) and node.value.id == "math"
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
        and node.func.id == "pow" and len(node.args) == 3


def test_one_elimination_kernel():
    # gcd renormalisation and modular inverses belong to exactalg's one
    # prepare/eliminate pair; a second copy elsewhere would show up here
    found = sorted({name for name, node in _nodes()
                    if _elimination_arithmetic(node)})
    assert found == ["exactalg.py"]

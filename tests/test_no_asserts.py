"""The library checks with statements that raise: ``assert`` vanishes under ``python -O``."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ratinterp"


def _asserts(tree: ast.AST) -> list[int]:
    """Line of each assert statement."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


def test_finder_sees_nested_asserts():
    source = (
        "assert a\n"
        "def f():\n    for r in rows:\n        assert r, 'msg'\n"
        "raise AssertionError('kept: a raise is not an assert')\n"
    )
    assert _asserts(ast.parse(source)) == [1, 4]


def test_no_assert_statements_in_the_library():
    offences = [
        f"{path.name}:{line}: assert statement"
        for path in sorted(SRC.glob("*.py"))
        for line in _asserts(ast.parse(path.read_text(), str(path)))
    ]
    assert not offences

"""Every function the package exports has a caller inside the library, or a stated reason
to be public without one: no code in ``src/`` that only tests call."""

import ast
from pathlib import Path

import ratinterp

SRC = Path(__file__).resolve().parents[1] / "src" / "ratinterp"

# library answers that a user calls on what the library returned, and a certificate that
# waits for a certify step to call it on every answer
NO_CALLER = {
    "check_interpolates": "the check a user runs on any rational function against the data",
    "evaluate_parametrization": "the family member for a user's own multipliers p and q",
    "yy_form": "the trace-row coordinates of a user's interpolant",
    "cross_product_certificate": "the mu-basis certificate, until a certify step calls it",
}


def _functions(tree: ast.Module) -> set[str]:
    return {node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}


def _references(tree: ast.AST) -> set[str]:
    """Every name the tree reads or imports; a definition is not a reference."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names


def test_every_exported_function_has_a_library_caller_or_a_reason():
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    exported = set().union(*map(_functions, trees.values())) & set(ratinterp.__all__)
    called = set().union(*(_references(tree) for name, tree in trees.items() if name != "__init__.py"))
    assert sorted(exported - called - NO_CALLER.keys()) == []
    # a listed name that gains a caller, or leaves the package, leaves the table too
    assert sorted(NO_CALLER.keys() & called) == [] and NO_CALLER.keys() <= exported


def test_a_definition_is_not_a_reference():
    tree = ast.parse("def answer(x):\n    return helper(x)\n")
    assert _functions(tree) == {"answer"} and _references(tree) == {"helper", "x"}

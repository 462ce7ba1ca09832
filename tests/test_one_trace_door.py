"""The solvers reach the trace of an instance only through ``InterpolationData.trace``,
and only ``eea`` knows the layout of its rows."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ratinterp"

# eea defines the EEA and ``half_trace``, which the door and mubasis call; the
# CLI prints the trace of any problem, and the package re-exports the name
ALLOWED = {"eea.py", "cli.py", "__init__.py"}
SOLVERS = ("deltasolver.py", "kappasolver.py")


def _names(tree: ast.AST):
    """(identifier, line) of every name, attribute, import and definition in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            for name in {node.name.rpartition(".")[2], node.asname}:
                yield name, node.lineno
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno


def _offences(identifiers, paths):
    for path in paths:
        for name, line in _names(ast.parse(path.read_text(), str(path))):
            if name in identifiers:
                yield f"{path.name}:{line}: {name}"


def test_name_finder_sees_every_spelling():
    source = (
        "from .eea import extended_euclid\n"
        "import ratinterp.eea.extended_euclid as run\n"
        "eea.extended_euclid(f, g)\n"
        "extended_euclid(f, g)\n"
        "def _trace(data): pass\n"
    )
    lines = [line for name, line in _names(ast.parse(source)) if name in ("extended_euclid", "_trace")]
    assert sorted(set(lines)) == [1, 2, 3, 4, 5]


def test_only_the_door_and_its_neighbours_run_the_eea():
    paths = [p for p in sorted(SRC.glob("*.py")) if p.name not in ALLOWED]
    assert not list(_offences({"extended_euclid"}, paths))


def test_solvers_build_no_trace_of_their_own():
    paths = [SRC / name for name in SOLVERS]
    assert not list(_offences({"extended_euclid", "hermite_polynomial", "nodal_poly", "_trace"}, paths))


def test_only_eea_reads_the_row_layout():
    # every other module reads a trace through r(i), s(i), t(i) and q(i)
    paths = [p for p in sorted(SRC.glob("*.py")) if p.name != "eea.py"]
    offences = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Attribute) and node.attr == "rows"
    ]
    assert not offences

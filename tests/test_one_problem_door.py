"""The CLI reads and checks each problem once: ``main`` reads it through ``_read_problem`` before
dispatch, and the kind of problem a subcommand takes is named in its parser entry."""

import ast
from pathlib import Path

from ratinterp import InterpolationData, PlaneParametrization
from ratinterp.cli import build_parser

SRC = Path(__file__).resolve().parents[1] / "src" / "ratinterp"
CLI = ast.parse((SRC / "cli.py").read_text())
FUNCTIONS = {node.name: node for node in ast.walk(CLI) if isinstance(node, ast.FunctionDef)}


def _callers(name, paths):
    """(module, enclosing top-level function) of every call of ``name`` in the modules."""
    for path in paths:
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == name:
                    yield path.name, getattr(top, "name", None)


def test_main_is_the_one_reader_of_problems():
    assert list(_callers("_read_problem", sorted(SRC.glob("*.py")))) == [("cli.py", "main")]


def test_read_problem_does_not_test_the_type_of_what_it_built():
    calls = [node for node in ast.walk(FUNCTIONS["_read_problem"])
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"]
    assert [ast.unparse(call.args[0]) for call in calls] == ["obj"]


def test_no_handler_checks_the_kind_the_parser_names():
    assert "_interpolation" not in FUNCTIONS
    for name in ("_cmd_delta", "_cmd_kappa", "_cmd_hermite_d", "_cmd_mu_basis"):
        names = {node.id for node in ast.walk(FUNCTIONS[name]) if isinstance(node, ast.Name)}
        assert not names & {"isinstance", "_expect", "InterpolationData", "PlaneParametrization"}, name


def test_each_parser_entry_names_the_kind_it_takes():
    """eea and oracle name none: eea takes either kind, and oracle picks by its mode."""
    subcommands = build_parser().subcommands
    assert {name: sub.get_default("kind") for name, sub in subcommands.items()} == {
        "eea": None, "delta": InterpolationData, "kappa": InterpolationData, "hermite-d": InterpolationData,
        "mu-basis": PlaneParametrization, "oracle": None,
    }
    # a default of the entry, not an option: no argument can set it
    assert not [action for sub in subcommands.values() for action in sub._actions if action.dest == "kind"]

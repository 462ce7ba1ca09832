"""No code in ``src/`` that only tests call: every module-level function, and every method
and property (not dunders) of every class in ``src/ratinterp/``, has a caller inside the
library, or is a library answer named in ``NO_CALLER`` with its reason.

A function counts as called when a module other than ``__init__.py`` names it: reads it,
reads it as an attribute, or imports it.  A method or property counts as called only when
such a module reads it as an attribute (``obj.name``); a parameter or local variable that
shares its name does not.  The table keys methods as ``Class.name``."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ratinterp"

# library answers that a user calls or reads on what the library returned, the writer of
# the CLI's problem format, and certificates that wait for a certify step to call them on
# every answer
NO_CALLER = {
    "check_interpolates": "the check a user runs on any rational function against the data",
    "evaluate_parametrization": "the family member for a user's own multipliers p and q",
    "yy_form": "the trace-row coordinates of a user's interpolant",
    "cross_product_certificate": "the mu-basis certificate, until a certify step calls it",
    "EEATrace.check_invariants": "the trace certificate, until a certify step calls it",
    "InterpolationData.to_json_dict": "writes the CLI's problem format; the CI workflow builds its inputs with it",
    "KappaReport.is_admissible": "the answer a user reads off a kappa report for one kappa",
    "DeltaSolutionReport.excluded_lambdas": "the excluded multipliers a user reads off a delta report",
    "Poly.coeff": "one coefficient as a Fraction; the benchmark's checks read it",
}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(tree: ast.Module) -> tuple[set[str], set[str]]:
    """(module-level function names, ``Class.name`` of each non-dunder method or property)."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    functions = {node.name for node in tree.body if isinstance(node, defs)}
    methods = {f"{node.name}.{item.name}" for node in tree.body if isinstance(node, ast.ClassDef)
               for item in node.body if isinstance(item, defs) and not _is_dunder(item.name)}
    return functions, methods


def _references(tree: ast.AST) -> tuple[set[str], set[str]]:
    """(every name the tree reads, binds or imports, every name it reads as an attribute).

    A definition is not a reference, nor is a parameter.
    """
    names, attributes = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names, attributes


def _uncalled(trees: dict[str, ast.Module]) -> tuple[set[str], set[str], set[str]]:
    """(names without a library caller, every defined name, names with a library caller)."""
    functions, methods = set(), set()
    names, attributes = set(), set()
    for name, tree in trees.items():
        f, m = _definitions(tree)
        functions |= f
        methods |= m
        if name != "__init__.py":
            n, a = _references(tree)
            names |= n
            attributes |= a
    called = (functions & (names | attributes)) | {m for m in methods if m.partition(".")[2] in attributes}
    defined = functions | methods
    return defined - called, defined, called


def test_every_function_and_method_has_a_library_caller_or_a_reason():
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    uncalled, defined, called = _uncalled(trees)
    assert sorted(uncalled - NO_CALLER.keys()) == []
    # a listed name that gains a caller, or leaves the package, leaves the table too
    assert sorted(NO_CALLER.keys() & called) == [] and NO_CALLER.keys() <= defined
    assert all(reason.strip() for reason in NO_CALLER.values())


def _uncalled_in(**sources: str) -> set[str]:
    return _uncalled({name: ast.parse(text) for name, text in sources.items()})[0]


def test_a_definition_is_not_a_reference():
    tree = ast.parse("def answer(x):\n    return helper(x)\n")
    assert _definitions(tree) == ({"answer"}, set())
    assert _references(tree) == ({"helper", "x"}, set())
    assert _uncalled_in(a="def answer(x):\n    return helper(x)\n", b="def helper(x):\n    return x\n") == {"answer"}


def test_a_dunder_is_skipped():
    source = "class P:\n    def __pow__(self, k):\n        pass\n    def size(self):\n        pass\n"
    assert _definitions(ast.parse(source)) == (set(), {"P.size"})
    assert _uncalled_in(a=source) == {"P.size"}


def test_a_method_read_only_as_an_attribute_counts_as_called():
    library = "class P:\n    @property\n    def lead(self):\n        pass\n    def scale(self):\n        pass\n"
    caller = "top = P().lead + scale\n"
    assert _uncalled_in(a=library, b=caller) == {"P.scale"}


def test_a_parameter_or_local_with_a_methods_name_is_not_a_call():
    library = "class P:\n    def degree(self):\n        pass\n    def coeff(self):\n        pass\n"
    caller = "def size(coeff, p):\n    degree = len(p)\n    return degree + coeff\nsize(1, [])\n"
    assert _uncalled_in(a=library, b=caller) == {"P.degree", "P.coeff"}


def test_only_the_package_init_is_not_a_caller():
    library = "def answer():\n    pass\n"
    assert _uncalled({"__init__.py": ast.parse("from .a import answer\n"), "a.py": ast.parse(library)})[0] \
        == {"answer"}

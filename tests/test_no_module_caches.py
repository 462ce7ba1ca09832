"""The library keeps no process-wide caches: what an instance needs, it owns."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ratinterp"

# the argparse tree depends on nothing but the code, so one per process is right
ALLOWED = {("cli.py", "_parser")}


def _cache_decorators(tree: ast.AST):
    """(function name, line) of each function decorated with functools.cache or lru_cache."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for decorator in node.decorator_list:
            target = decorator.func if isinstance(decorator, ast.Call) else decorator
            name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
            if name in ("cache", "lru_cache"):
                yield node.name, decorator.lineno


def test_decorator_finder_sees_every_spelling():
    source = (
        "@lru_cache(maxsize=1)\ndef a(): pass\n"
        "@functools.lru_cache\ndef b(): pass\n"
        "@functools.cache\ndef c(): pass\n"
        "@cache\ndef d(): pass\n"
        "@functools.cached_property\ndef e(): pass\n"
    )
    assert [name for name, _ in _cache_decorators(ast.parse(source))] == ["a", "b", "c", "d"]


def test_no_module_caches_in_the_library():
    offences = []
    for path in sorted(SRC.glob("*.py")):
        for name, line in _cache_decorators(ast.parse(path.read_text(), str(path))):
            if (path.name, name) not in ALLOWED:
                offences.append(f"{path.name}:{line}: {name} is cached process-wide")
    assert not offences

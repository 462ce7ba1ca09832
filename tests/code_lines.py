"""Count the code lines of Python sources: per module, then the total.

    python tests/code_lines.py src/ratinterp

A line counts when it holds a token other than a comment, a newline, an
indent or a dedent, and is not inside the docstring of a module, class or
function.  A token that spans lines, such as a triple-quoted string that is
not a docstring, counts on every line it spans.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

# the end marker sits on the line after the last one
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, SCOPES) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of one module's source."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    counts = {}
    for root in map(Path, argv):
        for path in sorted(root.rglob("*.py")) if root.is_dir() else [root]:
            counts[str(path)] = code_lines(path.read_text())
    width = max(map(len, counts), default=0)
    for name, count in counts.items():
        print(f"{name:<{width}}  {count:>6,}")
    print(f"{'total':<{width}}  {sum(counts.values()):>6,}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

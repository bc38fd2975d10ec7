"""Count the code lines of Python files: docstrings, comments and blank
lines excluded.

    python3 tools/codelines.py PATH [PATH ...]

Each PATH is a ``.py`` file or a directory, searched recursively for
them.  Prints one line per file, "<count> <path>", in path order, then
"<total> total".

A line counts when a token other than a comment or a line break lies
on it; a token that spans lines (a triple-quoted string) puts each of
its lines on the count.  Docstrings are the exception: the string that
opens a module, class or function body is left out, all its lines.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIPPED = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}
BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every docstring in ``tree``."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, BODIES) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of the module ``source``."""
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def python_files(paths: list[str]) -> list[Path]:
    found: set[Path] = set()
    for path in map(Path, paths):
        found.update(path.rglob("*.py") if path.is_dir() else [path])
    return sorted(found)


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    total = 0
    for path in python_files(argv):
        count = code_lines(path.read_text())
        total += count
        print(count, path)
    print(total, "total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

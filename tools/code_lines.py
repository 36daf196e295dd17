"""Count the code lines of each module of `src/cwskit`.

A code line is a line that holds a token of code: blank lines, comment
lines and the lines of docstrings (the string that opens a module, class
or function body) do not count.  Standard library only.

Run from anywhere:

    python tools/code_lines.py            # src/cwskit of this checkout
    python tools/code_lines.py PATH       # the modules of another package
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cwskit"
NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The lines of every module, class and function docstring."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of one module's source."""
    skip = docstring_lines(ast.parse(source))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else PACKAGE
    counts = {p.name: code_lines(p.read_text()) for p in sorted(package.glob("*.py"))}
    width = max(map(len, counts), default=5)
    for name, count in counts.items():
        print(f"{name:<{width}} {count:>5}")
    print(f"{'total':<{width}} {sum(counts.values()):>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

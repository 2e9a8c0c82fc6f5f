"""Count the lines of every module of src/lipgraph: total, and code only.

A code line holds at least one token that is not part of a comment or of a
docstring (the string that opens a module, class or function body); blank
lines count only in the total.  Run from anywhere:

    python3 tools/count_lines.py
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lipgraph"
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers spanned by the docstrings of the module and of every class and function in it."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(total lines, code lines) of one module's source."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIPPED:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - docstring_lines(ast.parse(source)))


def main() -> None:
    totals = [0, 0]
    print(f"{'module':<16}{'lines':>7}{'code':>7}")
    for path in sorted(PACKAGE.glob("*.py")):
        lines, code = count(path.read_text(encoding="utf-8"))
        totals[0] += lines
        totals[1] += code
        print(f"{path.name:<16}{lines:>7}{code:>7}")
    print(f"{'total':<16}{totals[0]:>7}{totals[1]:>7}")


if __name__ == "__main__":
    main()

"""Count the lines and the code lines of a Python source tree.

A code line holds at least one token of a statement: it is not blank, not
only a comment, and not part of a docstring (a string literal standing
alone as the first statement of a module, class or function).  Usage:

    python tools/src_lines.py [DIR]

DIR defaults to the package, src/vadiff.  Prints one row per .py file,
then the total, each as total lines and code lines.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
         tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(total lines, code lines) of one Python source text."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIP:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - _docstring_lines(ast.parse(source)))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "vadiff"
    total = [0, 0]
    for path in sorted(root.rglob("*.py")):
        lines, code = count(path.read_text(encoding="utf-8"))
        total[0] += lines
        total[1] += code
        print(f"{lines:6d} {code:6d}  {path.relative_to(root)}")
    print(f"{total[0]:6d} {total[1]:6d}  total (lines, code lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

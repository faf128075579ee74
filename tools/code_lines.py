"""Print the code lines of each `deskicl` module and their total.

A line counts when it holds a token other than a comment, so blank lines
and comment-only lines do not. Docstrings do not count either: a string
that stands alone as an expression statement is excluded, all its lines.
A token that spans lines, such as a triple-quoted string inside an
expression, counts on every line it covers.

    python3 tools/code_lines.py              # src/deskicl of this checkout
    python3 tools/code_lines.py path/to/pkg  # another package directory
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER,
    tokenize.ENCODING,
}


def code_lines(source: str) -> int:
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str):
            lines.difference_update(range(node.lineno, node.end_lineno + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "deskicl"
    total = 0
    for path in sorted(package.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{path.name:16} {count:5d}")
    print(f"{'total':16} {total:5d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Print the code lines of each `deskicl` module and their total.

A line counts when it holds a token other than a comment, so blank lines
and comment-only lines do not. Docstrings do not count either: a string
that stands alone as an expression statement is excluded, all its lines.
A token that spans lines, such as a triple-quoted string inside an
expression, counts on every line it covers.

    python3 tools/code_lines.py              # src/deskicl of this checkout
    python3 tools/code_lines.py path/to/pkg  # another package directory
    python3 tools/code_lines.py --rev HEAD~1 # beside each count, the count at a git revision and the difference

Module names are padded to the longest, and to no fewer than 16 characters.
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
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


def sources_at(package: Path, rev: str) -> dict[str, str]:
    """The package's modules at git revision `rev`, by file name."""

    def git(*args: str) -> str:
        return subprocess.run(["git", "-C", str(package), *args], check=True, capture_output=True, text=True).stdout

    names = git("ls-tree", "--name-only", rev, "--", ".").split()
    return {name: git("show", f"{rev}:./{name}") for name in names if name.endswith(".py")}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Print the code lines of each module of a package and their total.")
    parser.add_argument("package", nargs="?", type=Path, default=Path(__file__).resolve().parent.parent / "src" / "deskicl")
    parser.add_argument("--rev", help="also print each module's count at this git revision, and the difference")
    args = parser.parse_args(argv)
    counts = {path.name: code_lines(path.read_text()) for path in sorted(args.package.glob("*.py"))}
    if args.rev is None:
        width = max([16, *map(len, counts)])
        for name, count in counts.items():
            print(f"{name:{width}} {count:5d}")
        print(f"{'total':{width}} {sum(counts.values()):5d}")
        return 0
    try:
        before = {name: code_lines(source) for name, source in sources_at(args.package, args.rev).items()}
    except subprocess.CalledProcessError as exc:
        print(f"code_lines: git failed: {exc.stderr.strip()}", file=sys.stderr)
        return 1
    rev = args.rev[:10]
    names = sorted(counts.keys() | before.keys())
    width = max([16, *map(len, names)])
    print(f"{'':{width}} {rev:>10} {'now':>6} {'change':>6}")
    rows = [(name, before.get(name, 0), counts.get(name, 0)) for name in names]
    rows.append(("total", sum(before.values()), sum(counts.values())))
    for name, old, new in rows:
        print(f"{name:{width}} {old:10d} {new:6d} {new - old:+6d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

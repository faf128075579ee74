"""tools/code_lines.py: the line rule that the simplicity counts cite, and
its comparison against a git revision."""

from __future__ import annotations

import importlib.util
import subprocess
from pathlib import Path

_spec = importlib.util.spec_from_file_location("code_lines", Path(__file__).resolve().parent.parent / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SAMPLE = '''"""A module docstring
over two lines."""

import os  # a trailing comment keeps its line

# a comment-only line


def f(x):
    """A function docstring."""
    return os.path.join(x, """a string
spanning
three lines""")
'''


def test_code_lines_counts_neither_docstrings_nor_comments_but_every_line_of_a_string_in_code():
    # counted: the import, the def, and the return's call over its three lines
    assert code_lines.code_lines(SAMPLE) == 5


def test_code_lines_rev_prints_both_counts_and_the_change(tmp_path, capsys):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "a.py").write_text("x = 1\ny = 2\n")
    (package / "gone.py").write_text("z = 3\n")

    def git(*args):
        subprocess.run(["git", "-C", str(tmp_path), "-c", "user.name=t", "-c", "user.email=t@t", *args], check=True, capture_output=True)

    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "base")
    (package / "a.py").write_text("x = 1\n")
    (package / "gone.py").unlink()
    (package / "new.py").write_text('"""Only a docstring."""\nw = [\n    4,\n]\n')
    assert code_lines.main([str(package), "--rev", "HEAD"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [
        ["HEAD", "now", "change"],
        ["a.py", "2", "1", "-1"],
        ["gone.py", "1", "0", "-1"],
        ["new.py", "0", "3", "+3"],
        ["total", "3", "4", "+1"],
    ]
    assert code_lines.main([str(package), "--rev", "no-such-rev"]) == 1


def test_code_lines_pads_names_to_the_longest_and_no_fewer_than_16(tmp_path, capsys):
    """Every count ends in one column however long a module's name, with or
    without --rev; a package whose names are all short keeps 16-character
    names."""
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "a.py").write_text("x = 1\n")
    assert code_lines.main([str(package)]) == 0
    assert capsys.readouterr().out == f"{'a.py':16}     1\n{'total':16}     1\n"

    long_name = "a_module_named_past_sixteen.py"
    (package / long_name).write_text("x = 1\ny = 2\n")
    assert code_lines.main([str(package)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == f"{long_name}     2" and {len(line) for line in lines} == {len(long_name) + 6}

    for args in (["init", "-q"], ["-c", "user.name=t", "-c", "user.email=t@t", "commit", "-q", "--allow-empty", "-m", "empty"]):
        subprocess.run(["git", "-C", str(tmp_path), *args], check=True, capture_output=True)
    assert code_lines.main([str(package), "--rev", "HEAD"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[2] == f"{long_name}          0      2     +2" and {len(line) for line in lines} == {len(long_name) + 25}

"""tools/digests.py: each workload's correctness and digests, and their
comparison against a git revision."""

from __future__ import annotations

import importlib.util
import json
import subprocess
from pathlib import Path

_spec = importlib.util.spec_from_file_location("digests", Path(__file__).resolve().parent.parent / "tools" / "digests.py")
digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(digests)

# a stand-in for perfbench/run.py: the output digest is the workload's line of made.txt,
# and the workload named in fail.txt, if any, fails one operation
STUB_RUN = '''import argparse, json
from pathlib import Path
parser = argparse.ArgumentParser()
for flag in ("--workload", "--seed", "--seconds", "--trace"):
    parser.add_argument(flag, required=True)
args = parser.parse_args()
assert (args.seed, args.seconds, args.trace) == ("1", "2", "0")
made = dict(line.split() for line in Path("made.txt").read_text().splitlines())
fail = Path("fail.txt").read_text().split() if Path("fail.txt").exists() else []
print("perfbench", args.workload)
print(json.dumps({"environment": {}, "detail": {"input_digest": "in-" + args.workload, "output_digest": made[args.workload]}}))
print(json.dumps({"correct": True, "attempted": 3, "failed": int(args.workload in fail), "metrics": {}}))
'''


def _repo(tmp_path: Path) -> Path:
    root = tmp_path / "repo"
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(STUB_RUN)
    (root / "BENCHMARK.json").write_text(json.dumps({"workloads": [{"name": "alpha"}, {"name": "beta"}]}))
    (root / "made.txt").write_text("alpha a1\nbeta b1\n")

    def git(*args):
        subprocess.run(["git", "-C", str(root), "-c", "user.name=t", "-c", "user.email=t@t", *args], check=True, capture_output=True)

    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "base")
    return root


def test_digests_prints_each_workloads_run_and_digests(tmp_path, capsys):
    root = _repo(tmp_path)
    assert digests.main([str(root)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "alpha  correct True  failed 0",
        "  input  in-alpha",
        "  output a1",
        "beta  correct True  failed 0",
        "  input  in-beta",
        "  output b1",
    ]
    (root / "fail.txt").write_text("beta\n")
    assert digests.main([str(root)]) == 1
    assert "beta  correct True  failed 1" in capsys.readouterr().out


def test_digests_rev_marks_each_digest_and_adds_no_worktree(tmp_path, capsys):
    root = _repo(tmp_path)
    assert digests.main([str(root), "--rev", "HEAD"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1:3] == ["  input  in-alpha  same", "  output a1  same"]
    (root / "made.txt").write_text("alpha a1\nbeta b2\n")
    assert digests.main([str(root), "--rev", "HEAD"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[2] == "  output a1  same" and out[5] == "  output b2  DIFFERS from HEAD's b1"
    worktrees = subprocess.run(["git", "-C", str(root), "worktree", "list"], check=True, capture_output=True, text=True).stdout
    assert len(worktrees.splitlines()) == 1
    assert not (root / ".git" / "worktrees").exists()
    assert digests.main([str(root), "--rev", "no-such-rev"]) == 1
    assert "git failed" in capsys.readouterr().err


def test_digests_names_a_run_that_does_not_finish(tmp_path, capsys):
    root = _repo(tmp_path)
    (root / "made.txt").write_text("alpha a1\n")  # beta's run raises KeyError
    assert digests.main([str(root)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"digests: beta at {root}: exit status 1: ") and "KeyError" in err

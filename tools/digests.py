"""Print whether each benchmark workload ran correctly, and its input and
output digests, at seed 1.

Each workload that BENCHMARK.json names runs once as

    perfbench/run.py --workload W --seed 1 --seconds 2 --trace 0

in a subprocess, from the root of the checkout. The digests say what a
workload was given and what it made, so two trees whose digests agree ran
the same work to the same bytes.

    python3 tools/digests.py               # this checkout
    python3 tools/digests.py path/to/repo  # another checkout
    python3 tools/digests.py --rev HEAD~1  # also at a git revision, extracted by `git archive`
                                           # into a temporary directory: each digest is `same` or `DIFFERS`

Exits 1 if a run is not correct, fails an operation or does not finish, or
a digest differs from the revision's.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

RUN_ARGS = ("--seed", "1", "--seconds", "2", "--trace", "0")
DIGESTS = ("input_digest", "output_digest")


def run_workload(root: Path, workload: str) -> dict:
    """`correct`, `failed` and the digests of one run at `root`; a run that
    exits nonzero or prints no result raises RuntimeError."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, *RUN_ARGS], cwd=root, capture_output=True, text=True
    )
    lines = proc.stdout.splitlines()
    try:
        if proc.returncode != 0:
            raise ValueError(f"exit status {proc.returncode}")
        result, detail = json.loads(lines[-1]), json.loads(lines[-2])["detail"]
        return {"correct": result["correct"], "failed": result["failed"], **{key: detail[key] for key in DIGESTS}}
    except (ValueError, IndexError, KeyError, TypeError) as exc:
        raise RuntimeError(f"{workload} at {root}: {exc}: {proc.stderr.strip()[-500:]}") from None


def runs_at(root: Path, rev: str, workloads: list[str]) -> dict[str, dict]:
    """Each workload's `run_workload` at git revision `rev` of the repo at
    `root`, in a temporary directory that `git archive` fills; nothing is
    written into the repo."""
    with tempfile.TemporaryDirectory() as tmp:
        archive, tree = Path(tmp) / "tree.tar", Path(tmp) / "tree"
        subprocess.run(["git", "-C", str(root), "archive", "-o", str(archive), rev], check=True, capture_output=True, text=True)
        with tarfile.open(archive) as tar:
            tar.extractall(tree, filter="data")
        return {workload: run_workload(tree, workload) for workload in workloads}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Print each benchmark workload's correctness and digests at seed 1.")
    parser.add_argument("root", nargs="?", type=Path, default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--rev", help="also run at this git revision, and mark each digest same or DIFFERS")
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in json.loads((args.root / "BENCHMARK.json").read_text())["workloads"]]
    try:
        now = {workload: run_workload(args.root, workload) for workload in workloads}
        before = None if args.rev is None else runs_at(args.root, args.rev, workloads)
    except subprocess.CalledProcessError as exc:
        print(f"digests: git failed: {exc.stderr.strip()}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"digests: {exc}", file=sys.stderr)
        return 1
    ok = True
    for workload, run in now.items():
        ok &= run["correct"] is True and run["failed"] == 0
        print(f"{workload}  correct {run['correct']}  failed {run['failed']}")
        for key in DIGESTS:
            mark = ""
            if before is not None:
                old = before[workload][key]
                mark = "  same" if old == run[key] else f"  DIFFERS from {args.rev}'s {old}"
                ok &= old == run[key]
            print(f"  {key.partition('_')[0]:6} {run[key]}{mark}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

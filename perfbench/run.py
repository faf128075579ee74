"""Run one deskicl benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train_long --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the package is imported from
`src/`. With `--trace 0` the result carries the end-to-end metrics, with
`--trace 1` the per-layer metrics of a traced run. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; the lines before it describe the run and its environment.

BLAS and OpenMP are pinned to one thread before numpy is imported, so the
numbers and the determinism checks hold for that setting only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
PINNED_THREADS = "1"
ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("train_long", "eval_shared", "eval_unshared", "gen_data")


class ThreadPinError(RuntimeError):
    """numpy was imported before the BLAS thread count was pinned."""


def pin_threads() -> None:
    if "numpy" in sys.modules:
        for var in THREAD_VARS:
            if os.environ.get(var) != PINNED_THREADS:
                raise ThreadPinError(
                    f"numpy was imported with {var}={os.environ.get(var)!r}; the benchmark needs {PINNED_THREADS} "
                    "and must set it before numpy is loaded"
                )
    for var in THREAD_VARS:
        os.environ[var] = PINNED_THREADS


def git_revision(root: Path) -> str:
    """HEAD's commit read from .git, or 'unknown' outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_revision": git_revision(ROOT),
        "seed": seed,
    }


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes (seconds, not representative)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_threads()
    src = ROOT / "src"
    if not (src / "deskicl" / "__init__.py").is_file():
        print(f"perfbench: no deskicl sources under {src}; run from the root of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    detail = result.detail
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} rounds={detail['rounds']} work unit: {detail['work_unit']}")
    for name, blob in detail["metrics"].items():
        print(f"  {name:<32} {blob['value']:>14.6g} {blob['unit']}")
    for problem in detail["problems"]:
        print(f"  PROBLEM: {problem}")
    print(json.dumps({"environment": environment(args.seed), "detail": detail}))
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

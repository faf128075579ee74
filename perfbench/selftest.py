"""Tests of the benchmark itself, at smoke-test sizes.

    python3 -m pytest -q perfbench/selftest.py

Each run starts `perfbench/run.py --tiny` in a fresh process, as the
benchmark is meant to be run.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TIMEOUT_S = 300


def bench(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S,
    )


def parse(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    """(result line, detail) of a finished run."""
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])


_runs: dict[tuple[str, int, int], tuple[dict, dict]] = {}


def cached(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    key = (workload, seed, trace)
    if key not in _runs:
        _runs[key] = parse(bench(workload, seed, trace))
    return _runs[key]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_reported_with_its_unit(workload, trace):
    result, extra = cached(workload, 1, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, extra["detail"]["problems"]
    assert result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    reported = {name: blob["unit"] for name, blob in result["metrics"].items()}
    assert reported == declared
    for name, blob in result["metrics"].items():
        assert isinstance(blob["value"], (int, float)), name
    if not trace:
        assert all(blob["value"] > 0 for blob in result["metrics"].values())
    else:
        assert result["metrics"]["trace.missing_spans"]["value"] == 0
        assert result["metrics"]["trace.uncovered_share"]["value"] <= 0.10
    env = extra["environment"]
    assert env["threads"] == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    assert env["seed"] == 1 and env["nproc"] >= 1 and env["numpy"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_sets_inputs_and_outputs_repeat(workload):
    _, first = cached(workload, 1, 0)
    _, again = parse(bench(workload, 1, 0))
    _, other = parse(bench(workload, 2, 0))
    assert again["detail"]["input_digest"] == first["detail"]["input_digest"]
    assert again["detail"]["output_digest"] == first["detail"]["output_digest"]
    assert other["detail"]["input_digest"] != first["detail"]["input_digest"]


def test_eval_workloads_differ_in_prompt_sharing():
    shared, _ = cached("eval_shared", 1, 1)
    unshared, _ = cached("eval_unshared", 1, 1)
    assert shared["metrics"]["engine.begin.repeat_share"]["value"] == pytest.approx(0.75)
    assert unshared["metrics"]["engine.begin.repeat_share"]["value"] == 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("gen_data", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_numpy_loaded_under_other_threads_is_a_named_error():
    code = (
        "import os, sys; os.environ['OPENBLAS_NUM_THREADS'] = '2'; import numpy; "
        f"sys.path.insert(0, {str(HERE)!r}); import run; run.pin_threads()"
    )
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=TIMEOUT_S)
    assert proc.returncode != 0
    assert "ThreadPinError" in proc.stderr


@pytest.fixture
def modules():
    """The benchmark's modules, imported into this process."""
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    try:
        import tracer
        import workloads

        yield tracer, workloads
    finally:
        del sys.path[:2]


def test_missing_target_is_reported_not_raised(modules):
    tracer, _ = modules
    patches = tracer.Patches()
    assert not patches.replace("engine.gone", "engine", "no_such_function", lambda fn: fn)
    assert not patches.replace("engine.Gone.method", "engine", "NoSuchClass.method", lambda fn: fn)
    assert patches.missing == ["engine.gone", "engine.Gone.method"]
    patches.restore()


def test_gradient_check_catches_a_wrong_backward_rule(modules, tmp_path):
    tracer, workloads = modules
    from deskicl import tensor

    inputs = workloads.setup_train(1, tmp_path, tiny=True)
    assert workloads.check_train(inputs)[0] == []

    def wrong_silu(silu):
        def wrapper(a):
            out = silu(a)
            entry = tensor._active_tape.entries[-1] if tensor._active_tape else None
            if entry is not None:
                rule = entry.backward
                entry.backward = lambda g: rule(1.05 * g)
            return out

        return wrapper

    patches = tracer.Patches()
    patches.replace("tensor.silu", "tensor", "silu", wrong_silu)
    try:
        problems, _ = workloads.check_train(inputs)
    finally:
        patches.restore()
    assert len(problems) == 1 and "central differences" in problems[0]


def test_decode_check_catches_a_wrong_kv_decode(modules, tmp_path):
    tracer, workloads = modules
    inputs = workloads.setup_eval(1, tmp_path, True, 1, all_test_tasks=False)
    assert workloads.check_eval(inputs)[0] == []

    def off_by_one_percent(kv_decode):
        def wrapper(*args, **kwargs):
            hidden, cache = kv_decode(*args, **kwargs)
            return 1.01 * hidden, cache

        return wrapper

    patches = tracer.Patches()
    patches.replace("engine.kv_decode", "engine", "kv_decode", off_by_one_percent)
    try:
        problems, _ = workloads.check_eval(inputs)
    finally:
        patches.restore()
    assert len(problems) == 1 and "uncached trunk" in problems[0]

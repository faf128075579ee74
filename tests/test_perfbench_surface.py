"""The package surface that the benchmark's workloads drive exists.

`perfbench/workloads.py` calls `harness.X` and `engine.X` and imports names
from `deskicl` modules; a refactor that renames or drops one of them would
only show as a failed traced benchmark run. This walks the workloads file's
syntax tree and resolves every such name, and every keyword it passes to
them, against the package instead. The episode attributes that the
workloads and the tracer read by name are resolved against a recorded
episode the same way.
"""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

import numpy as np

from deskicl import harness
from deskicl.model import ModelConfig
from deskicl.sim import TaskSpec

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
TRACER = WORKLOADS.with_name("tracer.py")
MODULES = ("harness", "engine")


def _surface() -> tuple[dict[str, object], list[tuple[str, str]], list[str]]:
    """(name -> resolved object, (name, keyword) pairs of calls, unresolved names)."""
    tree = ast.parse(WORKLOADS.read_text())
    names: dict[str, str] = {}  # name as written -> "module:attr"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in MODULES:
            names[f"{node.value.id}.{node.attr}"] = f"deskicl.{node.value.id}:{node.attr}"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "deskicl":
            for alias in node.names:
                names[alias.asname or alias.name] = f"{node.module}:{alias.name}"
    resolved, unresolved = {}, []
    for written, target in names.items():
        module, _, attr = target.partition(":")
        owner = importlib.import_module(module)
        if hasattr(owner, attr):
            resolved[written] = getattr(owner, attr)
        else:
            unresolved.append(f"{written} ({module}.{attr})")
    keywords = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            written = ast.unparse(node.func)
            if written in resolved:
                keywords.extend((written, kw.arg) for kw in node.keywords if kw.arg is not None)
    return resolved, keywords, unresolved


def test_every_package_name_perfbench_uses_resolves():
    resolved, _, unresolved = _surface()
    assert not unresolved, unresolved
    assert {"harness.cmd_eval", "harness.cmd_gen_data", "engine.train", "EvalSection"} <= resolved.keys()


def test_every_keyword_perfbench_passes_is_a_parameter():
    resolved, keywords, _ = _surface()
    assert ("harness.cmd_eval", "train_seed") in keywords
    unknown = []
    for written, keyword in keywords:
        params = inspect.signature(resolved[written]).parameters
        takes_any = any(p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values())
        if keyword not in params and not takes_any:
            unknown.append(f"{written}({keyword}=)")
    assert not unknown, unknown


def test_eval_records_serialise_for_the_eval_digest():
    # eval_round digests `[r.to_dict() for r in records]`
    record = harness.EvalRecord("ours", 0, "poke_c0", "p0", 1, 0, 1.0, 3, 3, "none")
    assert record.to_dict()["variant"] == "ours"


def _name_tuples(path: Path, function: str) -> list[tuple[str, ...]]:
    """Every tuple of string literals in the body of `function` in `path`."""
    (node,) = [n for n in ast.walk(ast.parse(path.read_text())) if isinstance(n, ast.FunctionDef) and n.name == function]
    return [
        tuple(e.value for e in t.elts)
        for t in ast.walk(node)
        if isinstance(t, ast.Tuple) and t.elts and all(isinstance(e, ast.Constant) and isinstance(e.value, str) for e in t.elts)
    ]


def test_every_episode_attribute_perfbench_reads_is_an_array_of_a_recorded_episode():
    """The round-trip check would crash a gen_data run on a lost name, and
    the tracer's `getattr(demo, name, None)` would skip it without a word."""
    episode = harness.record_episode(ModelConfig(), TaskSpec("poke", 0), 1, 0, seed=0)
    read = {(WORKLOADS, "_round_trip_failures"), (WORKLOADS, "_episodes_digest"), (TRACER, "_before_begin")}
    for path, function in sorted(read):
        (names,) = _name_tuples(path, function)
        assert "traces" in names, (path.name, function)
        for name in names:
            assert isinstance(getattr(episode, name, None), np.ndarray), (path.name, function, name)

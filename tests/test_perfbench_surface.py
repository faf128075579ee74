"""The package surface that the benchmark's workloads drive exists.

`perfbench/workloads.py` calls `harness.X` and `engine.X` and imports names
from `deskicl` modules; a refactor that renames or drops one of them would
only show as a failed traced benchmark run. This walks the workloads file's
syntax tree and resolves every such name, and every keyword it passes to
them, against the package instead.
"""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

from deskicl import harness

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
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

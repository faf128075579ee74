"""The benchmark's traced functions exist in the package.

`perfbench/tracer.py` wraps each `(module, attr)` of its `SPAN_TARGETS` to
time it; a renamed or deleted target would only be reported as a missing
span in a traced benchmark run. This checks every target here instead.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _span_targets() -> dict[str, tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracer  # its dataclasses look their module up there
    spec.loader.exec_module(tracer)
    return tracer.SPAN_TARGETS


def test_every_perfbench_span_target_is_a_callable_of_the_package():
    targets = _span_targets()
    assert targets
    unresolved = []
    for span, (module, attr) in targets.items():
        owner = importlib.import_module(f"deskicl.{module}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            unresolved.append(f"{span}: deskicl.{module}.{attr}")
    assert not unresolved, unresolved

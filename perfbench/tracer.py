"""In-memory span tracing of deskicl's layers, applied from outside the package.

Each target is a public function (or a method, written `Class.method`) of a
deskicl module. Installing a target replaces the function object under every
name a deskicl module holds it by, so a call is seen whether the caller looks
it up as `tn.matmul`, `engine.sim_step` or `harness.rollout`. Every call then
records one span (name, start, end, parent index). Layer self time is a span's
duration minus the time its child spans cover.

A target that no longer exists in the package is reported as missing; the
run goes on without that span.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable

TENSOR_OPS = (
    "matmul", "softmax", "rms_norm", "silu", "mul", "add", "sub", "scale",
    "transpose", "reshape", "concat", "narrow", "gather_rows",
)

# span name -> (module, attribute); the span name is "<module>.<function>"
# except where the function's public name is ambiguous (AdamW.step).
SPAN_TARGETS: dict[str, tuple[str, str]] = {
    **{f"tensor.{op}": ("tensor", op) for op in TENSOR_OPS},
    "tensor.backward": ("tensor", "backward"),
    **{
        f"model.{fn}": ("model", fn)
        for fn in (
            "encode_state_batch", "encode_reasoning_batch", "encode_action_batch",
            "interleave_tokens", "transformer_hidden", "prediction_heads", "combined_loss",
        )
    },
    "optim.clip_grad_norm": ("optim", "clip_grad_norm"),
    "optim.adamw_step": ("optim", "AdamW.step"),
    "engine.kv_decode": ("engine", "kv_decode"),
    "engine.begin": ("engine", "TransformerPolicy.begin"),
    "engine.propose": ("engine", "TransformerPolicy.propose"),
    "engine.commit": ("engine", "TransformerPolicy.commit"),
    "engine.temporal_ensemble": ("engine", "temporal_ensemble"),
    "engine.rollout": ("engine", "rollout"),
    **{f"sim.{fn}": ("sim", fn) for fn in ("render", "step", "reset", "expert_rollout")},
    "traces.augment_dataset": ("traces", "augment_dataset"),
    **{f"harness.{fn}": ("harness", fn) for fn in ("record_episode", "generate_task_episodes", "classify_failure")},
    **{f"data.{fn}": ("data", fn) for fn in ("save_episodes", "load_episodes", "build_sequence")},
    "checkpoint.save_checkpoint": ("checkpoint", "save_checkpoint"),
    "checkpoint.load_checkpoint": ("checkpoint", "load_checkpoint"),
}

ASIDE = "perfbench.aside"  # spans of the benchmark's own work, reported under no layer

# counters recorded at span boundaries, each with the span that feeds it
COUNTERS = (
    "tensor.tape.entries",
    "tensor.softmax.bytes",
    "model.transformer_hidden.tokens",
    "engine.kv_decode.tokens",
    "engine.begin.tokens",
    "engine.rollout.steps",
    "data.save_episodes.bytes",
    "data.build_sequence.tokens",
)


def _span_metrics(span: str) -> list[tuple[str, str, str]]:
    """(metric, unit, source span) per metric of a span; a tensor op's
    backward rules are timed under "<op>.bwd"."""
    if span.startswith("tensor.") and span != "tensor.backward":
        return [(f"{span}.calls", "count", span), (f"{span}.fwd_ms", "ms", span), (f"{span}.bwd_ms", "ms", f"{span}.bwd")]
    return [(f"{span}.calls", "count", span), (f"{span}.ms", "ms", span)]


def per_layer_metric_names() -> list[tuple[str, str]]:
    """(metric name, unit) for every per-layer metric, in report order."""
    names = [(metric, unit) for span in SPAN_TARGETS for metric, unit, _ in _span_metrics(span)]
    names += [(c, "bytes" if c.endswith(".bytes") else "count") for c in COUNTERS]
    names += [
        ("engine.begin.repeat_share", "share"),
        ("trace.uncovered_share", "share"),
        ("trace.overhead_share", "share"),
        ("trace.missing_spans", "count"),
    ]
    return names


def _package_modules(package: str) -> list[Any]:
    return [m for name, m in list(sys.modules.items()) if m is not None and (name == package or name.startswith(package + "."))]


def _resolve(package: str, module: str, attr: str):
    """(owner object, attribute name, current value) or None when absent."""
    try:
        mod = importlib.import_module(f"{package}.{module}")
    except ImportError:
        return None
    owner: Any = mod
    *path, last = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = owner.__dict__.get(last) if isinstance(owner, type) else getattr(owner, last, None)
    if not callable(value):
        return None
    return owner, last, value


class Patches:
    """Replacements made under every name a package holds a function by;
    `restore` puts the originals back."""

    def __init__(self, package: str = "deskicl"):
        self.package = package
        self._undo: list[tuple[Any, str, Any]] = []
        self.missing: list[str] = []

    def replace(self, label: str, module: str, attr: str, make_wrapper: Callable[[Callable], Callable]) -> bool:
        found = _resolve(self.package, module, attr)
        if found is None:
            self.missing.append(label)
            return False
        owner, name, original = found
        wrapper = make_wrapper(original)
        if isinstance(owner, type):
            self._set(owner, name, wrapper)
            return True
        for mod in _package_modules(self.package):
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)
        return True

    def _set(self, owner: Any, name: str, value: Any) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def restore(self) -> None:
        for owner, name, value in reversed(self._undo):
            setattr(owner, name, value)
        self._undo.clear()


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a top-level span


@dataclass
class Tracer:
    """Records spans and counters for the installed targets."""

    spans: list[Span] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    _stack: list[int] = field(default_factory=list)
    _seen_prompts: set[str] = field(default_factory=set)
    _repeat_tokens: float = 0.0

    def clear(self) -> None:
        self.spans.clear()
        self.counters.clear()
        self._stack.clear()
        self._seen_prompts.clear()
        self._repeat_tokens = 0.0

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def call(self, name: str, fn: Callable, args, kwargs):
        index = len(self.spans)
        span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1)
        self.spans.append(span)
        self._stack.append(index)
        span.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def traced(self, name: str, after: Callable | None = None, before: Callable | None = None):
        """Wrapper factory: a span per call, plus optional counter hooks.
        The hooks run in spans of their own (ASIDE), so that the caller's
        layer is not charged for them."""

        def make(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if before is not None:
                    self.call(ASIDE, before, (self, args, kwargs), {})
                out = self.call(name, fn, args, kwargs)
                if after is not None:
                    self.call(ASIDE, after, (self, args, kwargs, out), {})
                return out

            return wrapper

        return make

    def install(self, patches: Patches) -> None:
        for name, (module, attr) in SPAN_TARGETS.items():
            before, after = _HOOKS.get(name, (None, None))
            patches.replace(name, module, attr, self.traced(name, after=after, before=before))

    def summarize(self, wall: float) -> dict[str, float]:
        """Per-layer metrics for one traced round of `wall` seconds."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                covered[span.parent] += span.end - span.start
        calls: dict[str, int] = {}
        self_ms: dict[str, float] = {}
        top_level = 0.0
        aside = 0.0  # the benchmark's own work, at any depth
        for span, child in zip(self.spans, covered):
            duration = span.end - span.start
            calls[span.name] = calls.get(span.name, 0) + 1
            self_ms[span.name] = self_ms.get(span.name, 0.0) + 1000.0 * (duration - child)
            if span.parent < 0:
                top_level += duration
            if span.name == ASIDE and (span.parent < 0 or self.spans[span.parent].name != ASIDE):
                aside += duration
        out: dict[str, float] = {}
        for span in SPAN_TARGETS:
            for metric, unit, source in _span_metrics(span):
                out[metric] = calls.get(source, 0) if unit == "count" else self_ms.get(source, 0.0)
        for name in COUNTERS:
            out[name] = self.counters.get(name, 0.0)
        begin_tokens = self.counters.get("engine.begin.tokens", 0.0)
        out["engine.begin.repeat_share"] = self._repeat_tokens / begin_tokens if begin_tokens else 0.0
        # Time outside every top-level span, over the round's time less the
        # benchmark's own work. The uncovered time is the same whether an
        # ASIDE span counts as covered or is taken out of the round, so only
        # the denominator leaves it out.
        program = wall - aside
        out["trace.uncovered_share"] = max(0.0, wall - top_level) / program if program > 0 else 0.0
        return out


# ---------------------------------------------------------------------------
# counter hooks: (before, after) callables per span
# ---------------------------------------------------------------------------


def _rows(x) -> int:
    shape = getattr(x, "shape", None)
    return int(shape[0]) if shape else 0


def _after_softmax(tracer: Tracer, args, kwargs, out) -> None:
    tracer.count("tensor.softmax.bytes", out.data.nbytes)


def _before_backward(tracer: Tracer, args, kwargs) -> None:
    """Wrap every tape entry's backward rule in a span named after its op."""
    tape = getattr(args[0], "_tape", None) if args else None
    entries = getattr(tape, "entries", None)
    if entries is None:
        return
    tracer.count("tensor.tape.entries", len(entries))
    for entry in entries:
        rule = entry.backward
        op = rule.__qualname__.split(".", 1)[0]
        entry.backward = _as_unary(tracer, f"tensor.{op}.bwd", rule)


def _as_unary(tracer: Tracer, name: str, rule: Callable) -> Callable:
    return lambda g: tracer.call(name, rule, (g,), {})


def _after_transformer_hidden(tracer: Tracer, args, kwargs, out) -> None:
    tracer.count("model.transformer_hidden.tokens", _rows(out))


def _after_kv_decode(tracer: Tracer, args, kwargs, out) -> None:
    hidden = out[0] if isinstance(out, tuple) else out
    tracer.count("engine.kv_decode.tokens", _rows(hidden))


def _before_begin(tracer: Tracer, args, kwargs) -> None:
    demos = args[1] if len(args) > 1 else kwargs.get("prompt_demos", [])
    tokens = 3 * sum(len(d) for d in demos)
    digest = hashlib.sha256()
    for demo in demos:
        for name in ("third", "wrist", "proprio", "actions", "traces"):
            arr = getattr(demo, name, None)
            if arr is not None:
                digest.update(arr.tobytes())
    key = digest.hexdigest()
    if key in tracer._seen_prompts:
        tracer._repeat_tokens += tokens
    tracer._seen_prompts.add(key)
    tracer.count("engine.begin.tokens", tokens)


def _after_rollout(tracer: Tracer, args, kwargs, out) -> None:
    tracer.count("engine.rollout.steps", getattr(out, "steps_used", 0))


def _after_save_episodes(tracer: Tracer, args, kwargs, out) -> None:
    path = args[0] if args else kwargs.get("path")
    tracer.count("data.save_episodes.bytes", os.path.getsize(path))


def _after_build_sequence(tracer: Tracer, args, kwargs, out) -> None:
    tracer.count("data.build_sequence.tokens", 3 * out.n_steps)


_HOOKS: dict[str, tuple[Callable | None, Callable | None]] = {
    "tensor.softmax": (None, _after_softmax),
    "tensor.backward": (_before_backward, None),
    "model.transformer_hidden": (None, _after_transformer_hidden),
    "engine.kv_decode": (None, _after_kv_decode),
    "engine.begin": (_before_begin, None),
    "engine.rollout": (None, _after_rollout),
    "data.save_episodes": (None, _after_save_episodes),
    "data.build_sequence": (None, _after_build_sequence),
}

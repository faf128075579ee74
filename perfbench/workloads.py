"""The deskicl benchmark workloads and the loop that measures them.

Each workload has a set-up, which builds its inputs from the workload seed,
and a round, which calls stable public entry points of deskicl on those
inputs and reports the work done. All rounds of one run repeat identical
work, so their output digests must agree.

    train_long     engine.train                                work unit: tokens
    eval_shared    harness.cmd_eval, 4 rollouts per prompt     env steps
    eval_unshared  harness.cmd_eval, 1 rollout per prompt      env steps
    gen_data       harness.cmd_gen_data + load_train_episodes  expert env steps

Rounds and set-ups are timed by clock.Clock, in seconds at the unloaded
speed of the reference machine.

Because every round is compared only with rounds of the same run, each
workload also checks its numerics once per run against an independent
computation: train_long its gradients against central differences,
the eval workloads the KV-cached decode against the uncached trunk.

With tracing on, the first half of the run is untraced (the reference for
the tracing overhead) and the second half records layer spans (tracer.py).
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import gc
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from deskicl import engine, harness
from deskicl.harness import DataSection, EvalSection, HarnessConfig
from deskicl.model import PolicyModel

from clock import EVAL_MIX, GEN_MIX, TRAIN_MIX, Clock, marking
from tracer import ASIDE, Patches, Tracer, per_layer_metric_names

SETUP_REPEATS = 3
MIN_ROUNDS = 2
MAX_UNCOVERED_SHARE = 0.10
NUMERIC_TOLERANCE = 1e-3  # relative error allowed by the numerics checks
TRAIN_SEED = 0  # the checkpoint name cmd_eval looks up

# sizes: (full run, --tiny smoke run)
TRAIN_DEMOS_PER_TASK = (6, 4)
TRAIN_STEPS_PER_ROUND = (6, 2)  # the unreclaimed graphs of a round must fit in memory
TRAIN_EPISODE_STEPS = 70  # 4 episodes: about 800 tokens per step
EVAL_SHARED_ROLLOUTS = 4
EVAL_MAX_STEPS_FACTOR = (1.0, 0.5)  # rollouts run as long as the prompt demo
GEN_DEMOS_PER_TASK = (12, 2)


@dataclass
class RoundResult:
    seconds: float  # scaled seconds inside the entry points (see Clock)
    work: float  # work units done in the round
    attempted: int
    failed: int
    digest: str  # digest of the round's outputs
    detail: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    unit: str  # the unit work_per_s counts
    setup: Callable[[int, Path, bool], Any]
    run_round: Callable[[Any, "Clock"], RoundResult]
    summarize: Callable[[list[RoundResult]], dict[str, tuple[float, str]]]
    mix: dict[str, float]  # calibration mix of a round
    setup_mix: dict[str, float]
    # once per run, untimed: (problems, detail) of a numerics check
    check: Callable[[Any], tuple[list[str], dict]] = lambda inputs: ([], {})


def _sha256(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _episodes_digest(episodes) -> str:
    h = hashlib.sha256()
    for ep in episodes:
        h.update(ep.task_label.encode())
        for name in ("third", "wrist", "proprio", "actions", "traces"):
            h.update(np.ascontiguousarray(getattr(ep, name)).tobytes())
    return h.hexdigest()


def _median_rate(rounds: list[RoundResult]) -> float:
    return statistics.median(r.work / r.seconds for r in rounds)


def tail_percentile(samples: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, or None for ten samples or fewer."""
    ordered = sorted(samples)
    rank = len(ordered) - 10
    if rank < 1:
        return None
    return 100.0 * rank / len(ordered), ordered[rank - 1]


# ---------------------------------------------------------------------------
# train_long
# ---------------------------------------------------------------------------


@dataclass
class TrainInputs:
    episodes: list
    model_config: Any
    init_seed: int
    train_config: engine.TrainConfig
    input_digest: str


def setup_train(seed: int, workdir: Path, tiny: bool) -> TrainInputs:
    """Pick-place training tasks generated in memory, 3 prompt demos per step.

    Of twice the demos needed per task, the ones nearest TRAIN_EPISODE_STEPS
    long are kept. That pins the sequence length (about 800 tokens) across
    seeds: step time and each step's graph grow with the square of it.
    """
    config = HarnessConfig()
    split = harness.stratified_split(config)
    tasks = [harness.task_by_label(config, label) for label in split.train_tasks]
    tasks = [t for t in tasks if t.kind == "pick_place"][: 1 if tiny else None]
    base_seed = harness.derive_seed(seed, "perfbench", "train-data")
    demos = TRAIN_DEMOS_PER_TASK[tiny]
    episodes = []
    for task in tasks:
        candidates = harness.generate_task_episodes(config, task, 2 * demos, base_seed)
        nearest = sorted(range(len(candidates)), key=lambda i: (abs(len(candidates[i]) - TRAIN_EPISODE_STEPS), i))
        episodes += [candidates[i] for i in sorted(nearest[:demos])]
    train_config = engine.TrainConfig(
        steps=TRAIN_STEPS_PER_ROUND[tiny],
        seed=harness.derive_seed(seed, "perfbench", "train"),
        lr=config.train.lr,
        weight_decay=config.train.weight_decay,
        grad_clip=config.train.grad_clip,
        n_prompt_choices=(3,),
        checkpoint_interval=1,
    )
    return TrainInputs(
        episodes=episodes,
        model_config=harness.variant_model_config(config, "ours"),
        init_seed=harness.derive_seed(seed, "perfbench", "init"),
        train_config=train_config,
        input_digest=_episodes_digest(episodes),
    )


def train_round(inputs: TrainInputs, clock: Clock) -> RoundResult:
    """engine.train for a fixed number of steps on a fresh model.

    Each step's autodiff graph is a reference cycle (tensors point at their
    tape and the tape at them), so only Python's cyclic collector frees it,
    and within a round it rarely runs: every step allocates fresh memory.
    That is the program's behaviour and is measured as such; the round is
    kept short so that the graphs it piles up stay near 2 GB, and the
    objects they leave behind are counted after the round.
    """
    model = PolicyModel.init(inputs.model_config, seed=inputs.init_seed)
    tokens: list[int] = []
    step_ms: list[float] = []

    def count_tokens(make_sequence):
        @functools.wraps(make_sequence)
        def wrapper(*args, **kwargs):
            seq = make_sequence(*args, **kwargs)
            tokens.append(3 * seq.n_steps)
            return seq

        return wrapper

    def hook(step, _model):
        before = clock.scaled
        clock.tick(force=True)
        step_ms.append(1000.0 * (clock.scaled - before))

    patches = Patches()
    patches.replace("data.build_sequence", "data", "build_sequence", count_tokens)
    history = None
    try:
        clock.start()
        try:
            history = engine.train(model, inputs.episodes, inputs.train_config, checkpoint_hook=hook)
        except Exception:
            traceback.print_exc()
        seconds = clock.split()
    finally:
        patches.restore()
    steps = inputs.train_config.steps
    losses = [(r.loss, r.l_action, r.l_reason) for r in history or []]
    finite = all(math.isfinite(x) for row in losses for x in row)
    return RoundResult(
        seconds=seconds,
        work=float(sum(tokens[: len(step_ms)])),
        attempted=steps,
        failed=steps - len(losses) if finite else steps,
        digest=_sha256(repr(losses).encode()),
        detail={"step_ms": step_ms, "losses": [row[0] for row in losses]},
    )


def summarize_train(rounds: list[RoundResult]) -> dict[str, tuple[float, str]]:
    step_ms = [ms for r in rounds for ms in r.detail["step_ms"]]
    losses = rounds[0].detail["losses"]
    out = {
        "train_tokens_per_s": (_median_rate(rounds), "tokens/s"),
        "train_step_ms.p50": (statistics.median(step_ms), "ms"),
        "train_step_ms.samples": (len(step_ms), "count"),
    }
    tail = tail_percentile(step_ms)
    if tail is not None:
        out["train_step_ms.tail"] = (tail[1], "ms")
        out["train_step_ms.tail_percentile"] = (tail[0], "%")
    if losses:
        out["train_loss_last"] = (statistics.mean(losses[-max(1, len(losses) // 4):]), "loss")
    return out


# grads probed by check_train: one entry (the largest gradient) of each;
# "blocks.-1" is the last block
FD_PARAMS = (
    "blocks.0.attn.wq.w", "blocks.0.attn.wk.w", "blocks.0.attn.wv.w", "blocks.0.attn.wo.w",
    "blocks.0.ffn.w_gate.w", "blocks.-1.attn_norm.g", "third_patch.fc1.w", "action_head.w",
)


def check_train(inputs: TrainInputs) -> tuple[list[str], dict]:
    """Autodiff gradients of one training sequence against central
    differences of the same loss at float64, for a few parameters.

    Wrong gradients can still give finite losses that repeat exactly from
    round to round; this check is what catches them.
    """
    try:
        from deskicl.data import build_sequence
        from deskicl.model import sequence_loss
        from deskicl.tensor import Tape, backward
    except ImportError as exc:
        return [], {"skipped": str(exc)}
    model = PolicyModel.init(inputs.model_config, seed=inputs.init_seed)
    label = inputs.episodes[0].task_label
    subset = [ep for ep in inputs.episodes if ep.task_label == label]
    rng = np.random.default_rng(inputs.train_config.seed)
    seq = build_sequence(subset, 1, rng, chunk_h=model.config.chunk_h)
    with Tape():
        loss, *_ = sequence_loss(model, seq)
        backward(loss)
    twin = model.astype(np.float64)

    def central(flat: np.ndarray, j: int, step: float) -> float:
        orig = flat[j]
        flat[j] = orig + step
        hi = float(sequence_loss(twin, seq)[0].data)
        flat[j] = orig - step
        lo = float(sequence_loss(twin, seq)[0].data)
        flat[j] = orig
        return (hi - lo) / (2 * step)

    errors = {}
    for name in FD_PARAMS:
        name = name.replace("-1", str(model.config.n_layers - 1))
        grad = model.params[name].grad.reshape(-1)
        flat = twin.params[name].data.reshape(-1)
        j = int(np.argmax(np.abs(grad)))
        scale = max(float(np.abs(grad[j])), 1e-8)
        errors[name] = math.inf
        for step in (1e-3, 1e-5, 1e-7):  # a step can straddle a kink of the L1 loss; a smaller one rarely does
            fd = central(flat, j, step)
            errors[name] = min(errors[name], abs(float(grad[j]) - fd) / max(scale, abs(fd)))
            if errors[name] < NUMERIC_TOLERANCE / 100:
                break
    worst = max(errors, key=errors.get)
    detail = {"tokens": 3 * seq.n_steps, "grad_rel_error_max": errors[worst]}
    if errors[worst] >= NUMERIC_TOLERANCE:
        return [f"gradient of {worst} differs from central differences by {errors[worst]:.2e} (relative)"], detail
    return [], detail


# ---------------------------------------------------------------------------
# eval_shared / eval_unshared
# ---------------------------------------------------------------------------


@dataclass
class EvalInputs:
    config: HarnessConfig
    out_dir: Path
    planned: int
    input_digest: str
    model: PolicyModel
    check_seed: int


def setup_eval(seed: int, workdir: Path, tiny: bool, rollouts: int, all_test_tasks: bool) -> EvalInputs:
    """An untrained checkpoint and the split cmd_eval reads.

    The policy is untrained so every rollout runs to max_steps: the amount of
    work then does not depend on the policy's numerics.
    """
    eval_section = EvalSection(
        rollouts_per_config=rollouts,
        max_steps_factor=EVAL_MAX_STEPS_FACTOR[tiny],
        seed=harness.derive_seed(seed, "perfbench", "eval"),
    )
    config = HarnessConfig(eval=eval_section)
    split = harness.stratified_split(config)
    test = list(split.test_tasks)
    if tiny or not all_test_tasks:
        # one task of each kind keeps both prompt lengths in the mix
        kinds = ("poke",) if tiny else ("poke", "pick_place")
        test = [next(label for label in test if harness.task_by_label(config, label).kind == kind) for kind in kinds]
    out_dir = workdir / "eval"
    out_dir.mkdir(parents=True, exist_ok=True)
    split_text = json.dumps({"train": list(split.train_tasks), "test": test, "seed": split.seed}, indent=2) + "\n"
    (out_dir / "split.json").write_text(split_text)
    model = PolicyModel.init(harness.variant_model_config(config, "ours"), seed=harness.derive_seed(seed, "perfbench", "init"))
    ckpt = harness.checkpoint_path(out_dir, "ours", TRAIN_SEED)
    ckpt.parent.mkdir(parents=True, exist_ok=True)
    model.save(ckpt, extra_header={"variant": "ours", "train_seed": str(TRAIN_SEED), "train_step": "0"})
    tasks = [harness.task_by_label(config, label) for label in test]
    planned = sum(len(harness.prompt_configs(t)) for t in tasks) * rollouts
    digest = _sha256(ckpt.read_bytes(), split_text.encode(), harness.format_config(config).encode())
    return EvalInputs(
        config=config, out_dir=out_dir, planned=planned, input_digest=digest,
        model=model, check_seed=harness.derive_seed(seed, "perfbench", "eval-check"),
    )


CHECK_PROMPT_TOKENS = 108  # an eval prompt's length
CHECK_DECODE_TOKENS = 9  # then three env steps, one token at a time


def check_eval(inputs: EvalInputs) -> tuple[list[str], dict]:
    """The KV-cached decode against the uncached trunk: a prompt prefilled
    in one call, then single tokens, must give the hidden states of one
    forward over the whole sequence."""
    try:
        from deskicl.engine import KVCache, kv_decode
        from deskicl.model import transformer_hidden
        from deskicl.tensor import Tensor
    except ImportError as exc:
        return [], {"skipped": str(exc)}
    model = inputs.model
    n = CHECK_PROMPT_TOKENS + CHECK_DECODE_TOKENS
    tokens = np.random.default_rng(inputs.check_seed).normal(size=(n, model.config.d_model)).astype(np.float32)
    full = transformer_hidden(model, Tensor(tokens)).data
    cache = KVCache(model.config)
    pieces = [kv_decode(cache, model, tokens[:CHECK_PROMPT_TOKENS])[0]]
    pieces += [kv_decode(cache, model, tokens[t:t + 1])[0] for t in range(CHECK_PROMPT_TOKENS, n)]
    error = float(np.abs(np.concatenate(pieces) - full).max() / max(float(np.abs(full).max()), 1e-8))
    detail = {"tokens": n, "decode_rel_error_max": error}
    if error >= NUMERIC_TOLERANCE:
        return [f"KV-cached decode differs from the uncached trunk by {error:.2e} (relative)"], detail
    return [], detail


def eval_round(inputs: EvalInputs, clock: Clock) -> RoundResult:
    records = []
    with marking(clock, ("sim", "step")):
        clock.start()
        try:
            with contextlib.redirect_stdout(sys.stderr):
                records = harness.cmd_eval(inputs.config, inputs.out_dir, ["ours"], train_seed=TRAIN_SEED)
        except Exception:
            traceback.print_exc()
        seconds = clock.split()
    blob = json.dumps([r.to_dict() for r in records], sort_keys=True).encode()
    return RoundResult(
        seconds=seconds,
        work=float(sum(r.steps_used for r in records)),
        attempted=inputs.planned,
        failed=inputs.planned - len(records),
        digest=_sha256(blob),
    )


def summarize_eval(rounds: list[RoundResult]) -> dict[str, tuple[float, str]]:
    return {"env_steps_per_s": (_median_rate(rounds), "steps/s")}


# ---------------------------------------------------------------------------
# gen_data
# ---------------------------------------------------------------------------


@dataclass
class GenInputs:
    config: HarnessConfig
    out_dir: Path
    planned: int
    input_digest: str
    round_trip_checked: bool = False


def setup_gen(seed: int, workdir: Path, tiny: bool) -> GenInputs:
    """Config for all tasks at a reduced demos_per_task, plus a warm-up: one
    task's demos through the expert, the renderer and the trace augmentation."""
    data = DataSection(demos_per_task=GEN_DEMOS_PER_TASK[tiny], gen_seed=harness.derive_seed(seed, "perfbench", "gen"))
    if tiny:
        data = dataclasses.replace(data, n_poke_tasks=2, n_pick_place_tasks=2)
    config = HarnessConfig(data=data)
    tasks = harness.task_list(config)
    harness.generate_task_episodes(config, tasks[-1], data.demos_per_task, harness.derive_seed(data.gen_seed, "warm-up"))
    return GenInputs(
        config=config,
        out_dir=workdir / "gen",
        planned=len(tasks) * data.demos_per_task,
        input_digest=_sha256(harness.format_config(config).encode()),
    )


def _round_trip_failures(inputs: GenInputs, loaded) -> int:
    """Episodes of the first train task that do not load back bit-exactly as
    a fresh generation of that task produces them."""
    config = inputs.config
    label = harness.load_split(inputs.out_dir).train_tasks[0]
    task = harness.task_by_label(config, label)
    fresh = harness.generate_task_episodes(config, task, config.data.demos_per_task, config.data.gen_seed)
    stored = [ep for ep in loaded if ep.task_label == label]
    if len(stored) != len(fresh):
        return len(fresh)
    names = ("third", "wrist", "proprio", "actions", "traces")
    return sum(
        not all(getattr(a, n).dtype == getattr(b, n).dtype and np.array_equal(getattr(a, n), getattr(b, n)) for n in names)
        for a, b in zip(fresh, stored)
    )


def gen_round(inputs: GenInputs, clock: Clock) -> RoundResult:
    """cmd_gen_data then load_train_episodes. Episodes, their steps (the
    work unit) and their bytes are counted at each data.save_episodes call,
    so the count does not depend on the episode file format."""
    shutil.rmtree(inputs.out_dir, ignore_errors=True)
    saved = {"episodes": 0, "steps": 0, "bytes": 0}

    def count_saved(save):
        @functools.wraps(save)
        def wrapper(path, trajectories, *args, **kwargs):
            out = save(path, trajectories, *args, **kwargs)
            saved["episodes"] += len(trajectories)
            saved["steps"] += sum(len(ep) for ep in trajectories)
            saved["bytes"] += os.path.getsize(path)
            return out

        return wrapper

    loaded = []
    patches = Patches()
    if not patches.replace("data.save_episodes", "data", "save_episodes", count_saved):
        print("perfbench: data.save_episodes is gone; saved episodes cannot be counted", file=sys.stderr)
    try:
        with marking(clock, ("sim", "step"), ("data", "load_episodes")):
            clock.start()
            gen_s = 0.0
            try:
                with contextlib.redirect_stdout(sys.stderr):
                    harness.cmd_gen_data(inputs.config, inputs.out_dir)
                    gen_s = clock.split()
                    loaded = harness.load_train_episodes(inputs.out_dir)
            except Exception:
                traceback.print_exc()
            seconds = clock.split()
    finally:
        patches.restore()

    h = hashlib.sha256()
    for path in sorted(harness.episodes_dir(inputs.out_dir).glob("*")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    failed = max(inputs.planned - saved["episodes"], 0)
    if loaded and not inputs.round_trip_checked:
        failed += _round_trip_failures(inputs, loaded)
        inputs.round_trip_checked = True
    return RoundResult(
        seconds=seconds,
        work=float(saved["steps"]),
        attempted=inputs.planned,
        failed=failed,
        digest=h.hexdigest() + f"/{saved['episodes']}/{saved['steps']}",
        detail={"gen_s": gen_s, "load_s": seconds - gen_s, "loaded": len(loaded), **saved},
    )


def summarize_gen(rounds: list[RoundResult]) -> dict[str, tuple[float, str]]:
    first = rounds[0]
    return {
        "gen_episodes_per_s": (statistics.median(r.detail["episodes"] / r.detail["gen_s"] for r in rounds), "episodes/s"),
        "load_episodes_per_s": (statistics.median(r.detail["loaded"] / r.detail["load_s"] for r in rounds), "episodes/s"),
        "bytes_per_episode": (first.detail["bytes"] / max(first.detail["episodes"], 1), "bytes"),
    }


WORKLOADS = {
    "train_long": Workload("tokens", setup_train, train_round, summarize_train, TRAIN_MIX, GEN_MIX, check_train),
    "eval_shared": Workload(
        "env steps",
        lambda seed, workdir, tiny: setup_eval(seed, workdir, tiny, EVAL_SHARED_ROLLOUTS, all_test_tasks=False),
        eval_round, summarize_eval, EVAL_MIX, EVAL_MIX, check_eval,
    ),
    "eval_unshared": Workload(
        "env steps",
        lambda seed, workdir, tiny: setup_eval(seed, workdir, tiny, 1, all_test_tasks=True),
        eval_round, summarize_eval, EVAL_MIX, EVAL_MIX, check_eval,
    ),
    "gen_data": Workload("saved episode steps", setup_gen, gen_round, summarize_gen, GEN_MIX, GEN_MIX),
}


# ---------------------------------------------------------------------------
# the measuring loop
# ---------------------------------------------------------------------------


@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    detail: dict


def _timed_setup(workload: Workload, seed: int, workdir: Path, tiny: bool) -> tuple[Any, float]:
    clock = Clock(workload.setup_mix)
    with marking(clock, ("sim", "step")):
        clock.start()
        inputs = workload.setup(seed, workdir, tiny)
    return inputs, clock.split()


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool, workdir: Path) -> RunResult:
    workload = WORKLOADS[name]
    setup_s = []
    for _ in range(SETUP_REPEATS):
        inputs, took = _timed_setup(workload, seed, workdir, tiny)
        setup_s.append(took)

    problems, numerics = workload.check(inputs)

    plain: list[RoundResult] = []
    traced: list[RoundResult] = []
    layers: list[dict[str, float]] = []
    raw_rates: list[float] = []  # work per unscaled second, to check the calibration against
    tracer = Tracer()
    patches = Patches()
    start = time.perf_counter()
    try:
        while True:
            tracing = trace and len(plain) >= 1 and time.perf_counter() - start >= seconds / 2
            if tracing and not traced:
                tracer.install(patches)
            gc.collect()
            tracer.clear()
            round_start = time.perf_counter()
            if tracing:
                clock = Clock(workload.mix, lambda fn: tracer.call(ASIDE, fn, (), {}))
            else:
                clock = Clock(workload.mix)
            result = workload.run_round(inputs, clock)
            took = time.perf_counter() - round_start
            if tracing:
                traced.append(result)
                scale = clock.scaled / clock.raw  # layer times in the same units as round times
                layer = tracer.summarize(clock.ended - clock.began)
                layers.append({k: v * scale if k.endswith("ms") else v for k, v in layer.items()})
            else:
                plain.append(result)
                raw_rates.append(result.work / clock.raw)
            done = len(plain) + len(traced) >= MIN_ROUNDS and (traced or not trace)
            if done and time.perf_counter() - start + took / 2 >= seconds:
                break
    finally:
        patches.restore()

    rounds = plain + traced
    if len({r.digest for r in rounds}) != 1:
        problems.append("outputs differ between identical rounds")
    if any(r.failed for r in rounds):
        problems.append("operations failed")
    if not all(r.work > 0 for r in rounds):
        problems.append(f"no {workload.unit} counted")

    end_to_end = {
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "work_per_s": (_median_rate(plain), "1/s"),
    }
    detail = {
        "workload": name,
        "work_unit": workload.unit,
        "rounds": len(plain),
        "traced_rounds": len(traced),
        "round_s": [r.seconds for r in rounds],
        "setup_s": setup_s,
        "input_digest": inputs.input_digest,
        "output_digest": rounds[0].digest,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in {**end_to_end, **workload.summarize(plain)}.items()},
        "unscaled_work_per_s": statistics.median(raw_rates),
        "numerics": numerics,
    }

    metrics = end_to_end
    if trace:
        units = dict(per_layer_metric_names())
        # identical rounds give identical counts; times and shares take the median round
        per_layer = {
            key: layers[0][key] if units[key] in ("count", "bytes") else statistics.median(layer[key] for layer in layers)
            for key in layers[0]
        }
        per_layer["trace.overhead_share"] = statistics.median(r.seconds for r in traced) / statistics.median(r.seconds for r in plain) - 1.0
        per_layer["trace.missing_spans"] = len(patches.missing)
        detail["missing_spans"] = patches.missing
        uncovered = max(layer["trace.uncovered_share"] for layer in layers)
        if uncovered > MAX_UNCOVERED_SHARE:
            problems.append(f"trace.uncovered_share {uncovered:.3f} above {MAX_UNCOVERED_SHARE}")
        metrics = {k: (per_layer[k], unit) for k, unit in units.items()}
    detail["problems"] = problems
    return RunResult(
        correct=not problems,
        attempted=sum(r.attempted for r in rounds),
        failed=sum(r.failed for r in rounds),
        metrics=metrics,
        detail=detail,
    )

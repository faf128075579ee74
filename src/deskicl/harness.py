"""Benchmark harness: config file, dataset generation, training runs,
variant evaluation, interval sweeps, failure classification, and reports.

Every run is driven by a flat `key = value` config file (dotted section
prefixes, '#' comments); the resolved config is written next to each
command's outputs. All randomness is derived from explicit seeds through
`derive_seed`, so regenerating with the same config and seeds reproduces
every file byte for byte.

Output layout under --out:
    config.resolved.txt
    episodes/<task_label>.episodes  one episode file per task (a checkpoint.py container)
    split.json                      train/test task labels
    checkpoints/<variant>_seed<N>.ckpt
    loss_<variant>_seed<N>.csv
    metrics/eval_<variant>_seed<N>.json
    metrics/sweep_<variant>_seed<N>.json
    report.csv, summary.txt
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .data import SplitSpec, Trajectory, load_episodes, save_episodes, split_tasks
from .engine import (
    RolloutOptions,
    RolloutResult,
    TrainConfig,
    ExpertReplayPolicy,
    rollout,
    train,
)
from .model import ModelConfig, PolicyModel
from .sim import (
    SimParams,
    TaskSpec,
    expert_rollout,
    render,
    reset,
    third_camera,
    wrist_camera,
)
from .traces import augment_dataset

FAILURE_CLASSES = ("none", "trace_error", "grasp_failure", "placement_failure", "poke_failure", "overflow")

# variant name -> (prompt_reasoning, target_reasoning)
VARIANTS = {
    "ours": (True, True),
    "to": (False, True),
    "icrt": (False, False),
}


class HarnessError(RuntimeError):
    pass


def derive_seed(*parts) -> int:
    """Stable 63-bit seed from a mixed tuple of ints and strings."""
    entropy = []
    for part in parts:
        if isinstance(part, str):
            entropy.extend(part.encode("utf-8"))
        else:
            entropy.append(int(part) & 0xFFFFFFFF)
    return int(np.random.SeedSequence(entropy).generate_state(1, dtype=np.uint64)[0] >> 1)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DataSection:
    n_poke_tasks: int = 8
    n_pick_place_tasks: int = 8
    demos_per_task: int = 50
    expert_noise: float = 0.005
    test_fraction: float = 0.375
    split_seed: int = 0
    difficulty_levels: int = 5
    gen_seed: int = 0


@dataclass(frozen=True)
class TrainSection:
    steps: int = 5000
    seed: int = 0
    lr: float = 3e-4
    weight_decay: float = 0.01
    grad_clip: float = 1.0
    log_interval: int = 50
    checkpoint_interval: int = 0


@dataclass(frozen=True)
class EvalSection:
    rollouts_per_config: int = 10
    max_steps_factor: float = 3.0
    ensemble_decay: float = 0.1
    seed: int = 0
    reasoning_interval: int = 1
    prompt_noise: float = 0.0


@dataclass(frozen=True)
class HarnessConfig:
    env: SimParams = field(default_factory=SimParams)
    model: ModelConfig = field(default_factory=ModelConfig)
    data: DataSection = field(default_factory=DataSection)
    train: TrainSection = field(default_factory=TrainSection)
    eval: EvalSection = field(default_factory=EvalSection)

    def __post_init__(self):
        if self.model.third_resolution != self.env.third_resolution or self.model.wrist_resolution != self.env.wrist_resolution:
            raise HarnessError("model and environment disagree on camera resolutions")
        if self.data.n_poke_tasks > self.env.n_object_classes or self.data.n_pick_place_tasks > self.env.n_object_classes:
            raise HarnessError("more tasks per kind than object classes")
        if self.eval.rollouts_per_config < 1:
            raise HarnessError(f"eval.rollouts_per_config must be at least 1, got {self.eval.rollouts_per_config}")


_SECTIONS = {"env": SimParams, "model": ModelConfig, "data": DataSection, "train": TrainSection, "eval": EvalSection}


def _parse_value(raw: str, ftype):
    raw = raw.strip()
    if ftype is bool:
        if raw.lower() in ("1", "true", "yes", "on"):
            return True
        if raw.lower() in ("0", "false", "no", "off"):
            return False
        raise HarnessError(f"boolean value expected, got '{raw}'")
    if ftype is int:
        return int(raw)
    if ftype is float:
        return float(raw)
    raise HarnessError(f"unsupported config field type {ftype}")


def parse_config(text: str) -> HarnessConfig:
    """Parse `section.key = value` lines; unknown keys are errors."""
    overrides: dict[str, dict[str, object]] = {name: {} for name in _SECTIONS}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise HarnessError(f"config line {lineno}: expected 'key = value', got '{stripped}'")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if "." not in key:
            raise HarnessError(f"config line {lineno}: key '{key}' needs a section prefix")
        section, _, name = key.partition(".")
        if section not in _SECTIONS:
            raise HarnessError(f"config line {lineno}: unknown section '{section}'")
        cls = _SECTIONS[section]
        if name not in {f.name for f in fields(cls)}:
            raise HarnessError(f"config line {lineno}: unknown key '{key}'")
        overrides[section][name] = _parse_value(raw, type(getattr(cls(), name)))
    kwargs = {}
    for section, cls in _SECTIONS.items():
        kwargs[section] = cls(**overrides[section])
    return HarnessConfig(**kwargs)


def load_config(path) -> HarnessConfig:
    return parse_config(Path(path).read_text())


def format_config(config: HarnessConfig) -> str:
    lines = []
    for section in sorted(_SECTIONS):
        value = getattr(config, section)
        for f in sorted(fields(value), key=lambda f: f.name):
            v = getattr(value, f.name)
            if isinstance(v, tuple):
                continue  # home_pose stays at its default; not exposed as a flat key
            lines.append(f"{section}.{f.name} = {v}")
    return "\n".join(lines) + "\n"


def write_resolved_config(config: HarnessConfig, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.resolved.txt").write_text(format_config(config))


# ---------------------------------------------------------------------------
# tasks, difficulty, episodes
# ---------------------------------------------------------------------------


def task_list(config: HarnessConfig) -> list[TaskSpec]:
    tasks = [TaskSpec("poke", c) for c in range(config.data.n_poke_tasks)]
    n_rec = config.env.n_receptacle_classes
    tasks.extend(
        TaskSpec("pick_place", c, c % n_rec) for c in range(config.data.n_pick_place_tasks)
    )
    return tasks


def task_by_label(config: HarnessConfig, label: str) -> TaskSpec:
    for task in task_list(config):
        if task.label == label:
            return task
    raise HarnessError(f"unknown task label '{label}'")


def difficulty_counts(task: TaskSpec, level: int) -> tuple[int, int]:
    """Distractor (objects, receptacles) for a difficulty level."""
    n_rec = 1 if (task.kind == "pick_place" and level >= 2) else 0
    return level, n_rec


def record_episode(
    env: SimParams,
    task: TaskSpec,
    n_distractor_objects: int,
    n_distractor_receptacles: int,
    seed: int,
    noise: float = 0.0,
) -> Trajectory:
    """One expert episode with both camera renders; raises if the expert fails.

    Each camera's frames come from one `render` call over all of the
    episode's states.
    """
    state = reset(env, task, n_distractor_objects, n_distractor_receptacles, seed)
    rng = np.random.default_rng(derive_seed(seed, "expert-noise")) if noise > 0 else None
    states, actions, score = expert_rollout(env, state, task, noise=noise, rng=rng)
    if score != 1.0:
        raise HarnessError(f"expert failed on {task.label} (seed {seed})")
    return Trajectory(
        task_label=task.label,
        third=render(env, states, third_camera(env)),
        wrist=render(env, states, wrist_camera(env)),
        proprio=np.stack([s.gripper for s in states]).astype(np.float32),
        actions=np.stack([a.deltas for a in actions]).astype(np.float32),
    )


def generate_task_episodes(config: HarnessConfig, task: TaskSpec, n_demos: int, base_seed: int) -> list[Trajectory]:
    """Expert demos cycling through the difficulty levels, trace-augmented.

    A failed noisy episode retries with a fresh derived seed; persistent
    failure is an error naming the task.
    """
    episodes = []
    levels = config.data.difficulty_levels
    for i in range(n_demos):
        n_obj, n_rec = difficulty_counts(task, i % levels)
        last_error: Exception | None = None
        for attempt in range(20):
            seed = derive_seed(base_seed, task.label, i, attempt)
            try:
                episodes.append(record_episode(config.env, task, n_obj, n_rec, seed, noise=config.data.expert_noise))
                break
            except HarnessError as exc:
                last_error = exc
        else:
            raise HarnessError(f"task {task.label}: demo {i} failed 20 attempts: {last_error}")
    return augment_dataset(episodes)


def stratified_split(config: HarnessConfig) -> SplitSpec:
    """Task-disjoint split per task kind, so both kinds appear on both sides."""
    tasks = task_list(config)
    train_labels: list[str] = []
    test_labels: list[str] = []
    for kind in ("poke", "pick_place"):
        labels = [t.label for t in tasks if t.kind == kind]
        if not labels:
            continue
        if len(labels) < 2:
            raise HarnessError(f"need at least two {kind} tasks to split; got {len(labels)}")
        spec = split_tasks(labels, config.data.test_fraction, config.data.split_seed)
        train_labels.extend(spec.train_tasks)
        test_labels.extend(spec.test_tasks)
    return SplitSpec(tuple(sorted(train_labels)), tuple(sorted(test_labels)), config.data.split_seed)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def episodes_dir(out_dir: Path) -> Path:
    return Path(out_dir) / "episodes"


def episode_path(out_dir: Path, label: str) -> Path:
    return episodes_dir(out_dir) / f"{label}.episodes"


def checkpoint_path(out_dir: Path, variant: str, seed: int) -> Path:
    return Path(out_dir) / "checkpoints" / f"{variant}_seed{seed}.ckpt"


def cmd_gen_data(config: HarnessConfig, out_dir) -> SplitSpec:
    out_dir = Path(out_dir)
    write_resolved_config(config, out_dir)
    split = stratified_split(config)
    epdir = episodes_dir(out_dir)
    epdir.mkdir(parents=True, exist_ok=True)
    total = 0
    for task in task_list(config):
        episodes = generate_task_episodes(config, task, config.data.demos_per_task, config.data.gen_seed)
        save_episodes(episode_path(out_dir, task.label), episodes)
        total += len(episodes)
    (out_dir / "split.json").write_text(
        json.dumps({"train": list(split.train_tasks), "test": list(split.test_tasks), "seed": split.seed}, indent=2)
        + "\n"
    )
    print(f"gen-data: {total} episodes across {len(task_list(config))} tasks -> {epdir}")
    return split


def load_split(out_dir) -> SplitSpec:
    path = Path(out_dir) / "split.json"
    if not path.exists():
        raise HarnessError(f"missing split file {path}; run gen-data first")
    blob = json.loads(path.read_text())
    return SplitSpec(tuple(blob["train"]), tuple(blob["test"]), int(blob["seed"]))


def load_train_episodes(out_dir) -> list[Trajectory]:
    split = load_split(out_dir)
    episodes: list[Trajectory] = []
    for label in split.train_tasks:
        episodes.extend(load_episodes(episode_path(out_dir, label)))
    return episodes


def variant_model_config(config: HarnessConfig, variant: str) -> ModelConfig:
    if variant not in VARIANTS:
        raise HarnessError(f"unknown variant '{variant}' (expected one of {sorted(VARIANTS)})")
    prompt_flag, target_flag = VARIANTS[variant]
    return dataclasses.replace(config.model, prompt_reasoning=prompt_flag, target_reasoning=target_flag)


def cmd_train(config: HarnessConfig, variant: str, out_dir, seed: int | None = None) -> Path:
    out_dir = Path(out_dir)
    write_resolved_config(config, out_dir)
    seed = config.train.seed if seed is None else seed
    episodes = load_train_episodes(out_dir)
    model = PolicyModel.init(variant_model_config(config, variant), seed=derive_seed(seed, "init", variant))
    ckpt = checkpoint_path(out_dir, variant, seed)
    ckpt.parent.mkdir(parents=True, exist_ok=True)

    def hook(step, m):
        m.save(ckpt, extra_header={"variant": variant, "train_seed": str(seed), "train_step": str(step)})

    cfg = TrainConfig(
        steps=config.train.steps,
        seed=derive_seed(seed, "train", variant),
        lr=config.train.lr,
        weight_decay=config.train.weight_decay,
        grad_clip=config.train.grad_clip,
        checkpoint_interval=config.train.checkpoint_interval,
    )
    history = train(model, episodes, cfg, checkpoint_hook=hook)
    model.save(ckpt, extra_header={"variant": variant, "train_seed": str(seed), "train_step": str(config.train.steps)})

    log = Path(out_dir) / f"loss_{variant}_seed{seed}.csv"
    interval = max(1, config.train.log_interval)
    rows = ["step,loss,l_action,l_reason"]
    for start in range(0, len(history), interval):
        block = history[start:start + interval]
        rows.append(
            f"{block[-1].step},{np.mean([r.loss for r in block]):.6f},"
            f"{np.mean([r.l_action for r in block]):.6f},{np.mean([r.l_reason for r in block]):.6f}"
        )
    log.write_text("\n".join(rows) + "\n")
    print(f"train: {variant} seed {seed}: {len(history)} steps -> {ckpt}")
    return ckpt


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PromptConfig:
    config_id: str
    n_distractor_objects: int
    n_distractor_receptacles: int


def prompt_configs(task: TaskSpec) -> list[PromptConfig]:
    """Demo types: no distractor, one distractor, and either a distractor
    receptacle (pick-and-place) or two distractor objects (poke)."""
    if task.kind == "pick_place":
        return [PromptConfig("p0", 0, 0), PromptConfig("p1", 1, 0), PromptConfig("pr", 0, 1)]
    return [PromptConfig("p0", 0, 0), PromptConfig("p1", 1, 0), PromptConfig("pr", 2, 0)]


@dataclass
class EvalRecord:
    variant: str
    train_seed: int
    task: str
    prompt_config: str
    reasoning_interval: int
    rollout_index: int
    score: float
    steps_used: int
    n_trace_decodes: int
    failure: str

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, blob: dict) -> "EvalRecord":
        return cls(**blob)


def classify_failure(result: RolloutResult, env: SimParams, task: TaskSpec) -> str:
    """Deterministic failure taxonomy for a finished rollout.

    Overflowed rollouts are their own class. Otherwise the last predicted
    trace decides: if its endpoint lies nearer to a wrong candidate entity
    than to the correct one (normalized image coordinates, candidates taken
    at the decode step), the failure is a trace error; remaining failures
    are classified by how far execution got.
    """
    if result.score == 1.0:
        return "none"
    if result.overflow:
        return "overflow"
    picked = task.kind == "pick_place" and result.score == 0.5
    if result.predicted_traces:
        step, trace = result.predicted_traces[-1]
        endpoint = np.array([trace[-2], trace[-1]])
        state = result.states[min(step, len(result.states) - 1)]
        if picked:
            correct = [r.position for r in state.receptacles if r.class_id == task.target_receptacle_class]
            wrong = [r.position for r in state.receptacles if r.class_id != task.target_receptacle_class]
        else:
            correct = [o.position for o in state.objects if o.class_id == task.target_object_class]
            wrong = [o.position for o in state.objects if o.class_id != task.target_object_class]
            wrong.extend(r.position for r in state.receptacles)
        if correct and wrong:
            def norm_uv(pos):
                return np.array([pos[0], 1.0 - pos[1]])

            d_correct = min(np.linalg.norm(endpoint - norm_uv(p)) for p in correct)
            d_wrong = min(np.linalg.norm(endpoint - norm_uv(p)) for p in wrong)
            if d_wrong < d_correct:
                return "trace_error"
    if task.kind == "poke":
        return "poke_failure"
    return "placement_failure" if picked else "grasp_failure"


def _eval_rollouts(
    config: HarnessConfig,
    policy_source,
    variant: str,
    train_seed: int,
    tasks: list[TaskSpec],
    intervals: list[int],
    prompt_filter=None,
) -> list[EvalRecord]:
    """Shared evaluation loop over `policy_source(task)`. Scene and prompt
    seeds depend only on (eval seed, task, prompt config, rollout index),
    never on the interval or variant, so rows are comparable across k and
    models."""
    env = config.env
    records: list[EvalRecord] = []
    for task in tasks:
        for pconf in prompt_configs(task):
            if prompt_filter and pconf.config_id not in prompt_filter:
                continue
            demo = record_episode(
                env,
                task,
                pconf.n_distractor_objects,
                pconf.n_distractor_receptacles,
                derive_seed(config.eval.seed, "prompt", task.label, pconf.config_id),
                noise=config.eval.prompt_noise,
            )
            demo = augment_dataset([demo])[0]
            max_steps = int(math.ceil(len(demo) * config.eval.max_steps_factor))
            states = []
            for r in range(config.eval.rollouts_per_config):
                n_obj, n_rec = difficulty_counts(task, r % config.data.difficulty_levels)
                scene_seed = derive_seed(config.eval.seed, "scene", task.label, pconf.config_id, r)
                states.append(reset(env, task, n_obj, n_rec, scene_seed))
            for k in intervals:
                options = RolloutOptions(
                    reasoning_interval=k,
                    max_steps=max_steps,
                    ensemble_decay=config.eval.ensemble_decay,
                )
                results = rollout(policy_source(task), env, states, task, [demo], options)
                for r, result in enumerate(results):
                    records.append(
                        EvalRecord(
                            variant=variant,
                            train_seed=train_seed,
                            task=task.label,
                            prompt_config=pconf.config_id,
                            reasoning_interval=k,
                            rollout_index=r,
                            score=result.score,
                            steps_used=result.steps_used,
                            n_trace_decodes=len(result.predicted_traces),
                            failure=classify_failure(result, env, task),
                        )
                    )
    return records


def eval_interval_for(config: HarnessConfig, variant: str) -> int:
    # the no-reasoning baseline never trains its trace head, so it is
    # always evaluated without trace decodes
    return 0 if variant == "icrt" else config.eval.reasoning_interval


def _load_variant(out_dir: Path, variant: str, train_seed: int) -> PolicyModel:
    ckpt = checkpoint_path(out_dir, variant, train_seed)
    if not ckpt.exists():
        raise HarnessError(f"missing checkpoint for variant '{variant}': {ckpt}")
    model, _ = PolicyModel.load(ckpt)
    return model


def _write_records(out_dir: Path, name: str, records: list[EvalRecord]) -> Path:
    path = out_dir / "metrics" / f"{name}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps([r.to_dict() for r in records], indent=1) + "\n")
    return path


def cmd_eval(config: HarnessConfig, out_dir, variants: list[str], train_seed: int | None = None) -> list[EvalRecord]:
    out_dir = Path(out_dir)
    write_resolved_config(config, out_dir)
    split = load_split(out_dir)
    tasks = [task_by_label(config, label) for label in split.test_tasks]
    train_seed = config.train.seed if train_seed is None else train_seed
    all_records: list[EvalRecord] = []
    for variant in variants:
        if variant == "expert":
            policy_source = lambda task: ExpertReplayPolicy(config.env, task, config.model.chunk_h)
        else:
            model = _load_variant(out_dir, variant, train_seed)
            policy_source = lambda task, m=model: m
        k = eval_interval_for(config, variant)
        records = _eval_rollouts(config, policy_source, variant, train_seed, tasks, [k])
        expected = sum(len(prompt_configs(t)) for t in tasks) * config.eval.rollouts_per_config
        if len(records) != expected:
            raise HarnessError(f"evaluation plan violated: {len(records)} rollouts, expected {expected}")
        path = _write_records(out_dir, f"eval_{variant}_seed{train_seed}", records)
        mean = float(np.mean([r.score for r in records]))
        print(f"eval: {variant} seed {train_seed}: mean score {mean:.3f} over {len(records)} rollouts -> {path}")
        all_records.extend(records)
    return all_records


def cmd_sweep_interval(
    config: HarnessConfig,
    out_dir,
    variant: str,
    intervals: list[int],
    train_seed: int | None = None,
) -> list[EvalRecord]:
    """Evaluate one checkpoint at several reasoning intervals.

    Uses the single-distractor prompt config on every unseen task; scene
    seeds match cmd_eval's, so the k=1 rows reproduce a full-variant eval."""
    out_dir = Path(out_dir)
    write_resolved_config(config, out_dir)
    split = load_split(out_dir)
    tasks = [task_by_label(config, label) for label in split.test_tasks]
    train_seed = config.train.seed if train_seed is None else train_seed
    model = _load_variant(out_dir, variant, train_seed)
    records = _eval_rollouts(config, lambda task: model, variant, train_seed, tasks, intervals, prompt_filter={"p1"})
    path = _write_records(out_dir, f"sweep_{variant}_seed{train_seed}", records)
    print(f"sweep-interval: {variant} seed {train_seed}: k in {intervals} -> {path}")
    return records


# ---------------------------------------------------------------------------
# metrics and reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MetricsRow:
    variant: str
    task: str
    prompt_config: str
    reasoning_interval: int
    mean_score: float
    n: int
    failures: tuple[int, ...]  # counts per FAILURE_CLASSES


def aggregate(records: list[EvalRecord]) -> list[MetricsRow]:
    groups: dict[tuple, list[EvalRecord]] = {}
    for r in records:
        groups.setdefault((r.variant, r.task, r.prompt_config, r.reasoning_interval), []).append(r)
    rows = []
    for key in sorted(groups):
        members = groups[key]
        counts = tuple(sum(1 for m in members if m.failure == cls) for cls in FAILURE_CLASSES)
        rows.append(
            MetricsRow(
                variant=key[0],
                task=key[1],
                prompt_config=key[2],
                reasoning_interval=key[3],
                mean_score=float(np.mean([m.score for m in members])),
                n=len(members),
                failures=counts,
            )
        )
    return rows


def load_metrics(out_dir) -> list[EvalRecord]:
    """Every record of the run's metrics files; a malformed file raises a
    HarnessError that names it."""
    metrics_dir = Path(out_dir) / "metrics"
    keys = {f.name for f in fields(EvalRecord)}
    json_types = {"str": (str,), "int": (int,), "float": (int, float)}
    records: list[EvalRecord] = []
    for path in sorted(metrics_dir.glob("*.json")):
        try:
            blobs = json.loads(path.read_text())
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise HarnessError(f"{path}: invalid JSON ({exc})") from exc
        if not isinstance(blobs, list):
            raise HarnessError(f"{path}: expected a list of eval records, got {type(blobs).__name__}")
        for i, blob in enumerate(blobs):
            if not isinstance(blob, dict):
                raise HarnessError(f"{path}: record {i} is {type(blob).__name__}, not an object")
            if blob.keys() != keys:
                missing, unknown = sorted(keys - blob.keys()), sorted(blob.keys() - keys)
                raise HarnessError(f"{path}: record {i} does not match EvalRecord (missing {missing}, unknown {unknown})")
            for f in fields(EvalRecord):
                value = blob[f.name]
                if isinstance(value, bool) or not isinstance(value, json_types[f.type]):
                    raise HarnessError(f"{path}: record {i} has {f.name} = {value!r}, not {f.type}")
            records.append(EvalRecord.from_dict(blob))
    return records


REPORT_HEADER = ["variant", "task", "prompt_config", "k", "mean_score", "n"] + [f"fail_{c}" for c in FAILURE_CLASSES]


def write_report(records: list[EvalRecord], out_dir) -> tuple[Path, Path]:
    """Emit report.csv (one row per variant/task/prompt/k cell) and a
    human-readable summary. Output depends only on the record set."""
    out_dir = Path(out_dir)
    rows = aggregate(records)
    lines = [",".join(REPORT_HEADER)]
    for row in rows:
        lines.append(
            f"{row.variant},{row.task},{row.prompt_config},{row.reasoning_interval},"
            f"{row.mean_score:.4f},{row.n}," + ",".join(str(c) for c in row.failures)
        )
    csv_path = out_dir / "report.csv"
    csv_path.write_text("\n".join(lines) + "\n")

    summary: list[str] = []
    variants = sorted({r.variant for r in records}, key=_variant_order)
    by_variant = {v: [r for r in records if r.variant == v] for v in variants}
    summary.append("mean score per variant (all unseen tasks, all prompt configs)")
    for v in variants:
        rs = by_variant[v]
        ks = sorted({r.reasoning_interval for r in rs})
        summary.append(f"  {v:8s} k={ks} score {np.mean([r.score for r in rs]):.3f} over {len(rs)} rollouts")
    summary.append("")
    summary.append("per-task means")
    tasks = sorted({r.task for r in records})
    header = "  task".ljust(24) + "".join(v.rjust(10) for v in variants)
    summary.append(header)
    for task in tasks:
        line = f"  {task}".ljust(24)
        for v in variants:
            sel = [r.score for r in by_variant[v] if r.task == task]
            line += (f"{np.mean(sel):.3f}" if sel else "-").rjust(10)
        summary.append(line)
    summary.append("")
    summary.append("failure histogram (failed rollouts only)")
    for v in variants:
        failed = [r for r in by_variant[v] if r.failure != "none"]
        total = max(len(failed), 1)
        parts = []
        for cls in FAILURE_CLASSES[1:]:
            count = sum(1 for r in failed if r.failure == cls)
            if count:
                parts.append(f"{cls} {count}/{len(failed)}")
        summary.append(f"  {v:8s} " + (", ".join(parts) if failed else "no failures"))
    summary_path = out_dir / "summary.txt"
    summary_path.write_text("\n".join(summary) + "\n")
    return csv_path, summary_path


def _variant_order(name: str) -> tuple:
    order = {"ours": 0, "to": 1, "icrt": 2, "expert": 3}
    return (order.get(name, 9), name)


def cmd_report(out_dir) -> tuple[Path, Path]:
    records = load_metrics(out_dir)
    csv_path, summary_path = write_report(records, out_dir)
    print(f"report: {len(records)} rollout records -> {csv_path}, {summary_path}")
    return csv_path, summary_path

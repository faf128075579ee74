"""Benchmark harness: config file, dataset generation, training runs,
variant evaluation, interval sweeps, failure classification, and reports.

Every run is driven by a flat `key = value` config file (dotted section
prefixes, '#' comments). Each value is range-checked as its line is read, so
an error names the line and the key. Each command writes the resolved config
once it has read and checked its inputs, just before its first output file,
so a command that fails early leaves the previous one in place. Gen-data
then deletes the old split file, which it writes again last, so a gen-data
that fails part-way leaves a run that train and eval refuse. All
randomness is derived from explicit seeds through `derive_seed`, so
regenerating with the same config and seeds reproduces every file byte for
byte.

The world has no settings: its physics and geometry are constants in `sim.py`,
beside the scripted expert that assumes them, and its object and receptacle
classes are the palettes' colours. The camera resolutions are the model's own
keys; demos are recorded at them, as the policy observes its scenes, and
train and eval refuse episodes and checkpoints made at other resolutions.
Gen-data's demos are noisy (`sim.EXPERT_NOISE`), eval's prompt demos noiseless.

Output layout under --out:
    config.resolved.txt
    episodes/<task_label>.episodes  one episode file per task (a checkpoint.py container)
    split.json                      train/test task labels
    checkpoints/<variant>_seed<N>.ckpt
    loss_<variant>_seed<N>.csv      one row per training step
    metrics/<source>_<variant>_seed<N>.json
                                    one variant's records from a source in
                                    SOURCES: eval (cmd_eval) or sweep
                                    (cmd_sweep_interval)
    report.csv, summary.txt
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .data import SplitSpec, Trajectory, load_episodes, save_episodes
from .engine import (
    ExpertReplayPolicy,
    RolloutResult,
    TrainConfig,
    TransformerPolicy,
    rollout,
    train,
)
from .model import ModelConfig, PolicyModel
from .settings import bounded, check_fields, parse, write
from .sim import OBJECT_PALETTE, RECEPTACLE_PALETTE, TaskSpec, expert_rollout, observe, reset, third_view_uv

# the metrics-file prefixes, one per command that writes eval records
SOURCES = ("eval", "sweep")

FAILURE_CLASSES = ("none", "trace_error", "grasp_failure", "placement_failure", "poke_failure", "overflow")

# variant name -> the ModelConfig flags it sets
VARIANTS = {
    "ours": {"prompt_reasoning": True, "target_reasoning": True},
    "to": {"prompt_reasoning": False, "target_reasoning": True},
    "icrt": {"prompt_reasoning": False, "target_reasoning": False},
}


class HarnessError(RuntimeError):
    pass


def derive_seed(*parts) -> int:
    """Stable 63-bit seed from a mixed tuple of ints and strings.

    An int part enters mod 2**32, so parts 2**32 apart give the same seed:
    derive_seed(0, "init", "ours") == derive_seed(2**32, "init", "ours").
    """
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
    # the tasks of a kind target one object class each
    n_poke_tasks: int = bounded(8, ge=0, le=len(OBJECT_PALETTE))
    n_pick_place_tasks: int = bounded(8, ge=0, le=len(OBJECT_PALETTE))
    demos_per_task: int = bounded(50, ge=2)
    test_fraction: float = bounded(0.375, gt=0.0, lt=1.0)
    split_seed: int = bounded(0, ge=0)
    # level L places L distractor objects, each of a class other than the target's
    difficulty_levels: int = bounded(5, ge=1, le=len(OBJECT_PALETTE))
    gen_seed: int = bounded(0, ge=0)

    def __post_init__(self):
        check_fields(self)
        # named as `name = value`, for parse_config to qualify with the section
        if self.n_poke_tasks == self.n_pick_place_tasks == 0:
            raise ValueError("n_poke_tasks = 0 and n_pick_place_tasks = 0 leave no task to generate")


@dataclass(frozen=True)
class EvalSection:
    rollouts_per_config: int = bounded(10, ge=1)
    max_steps_factor: float = bounded(3.0, gt=0.0)
    ensemble_decay: float = bounded(0.1, ge=0.0)
    seed: int = bounded(0, ge=0)
    reasoning_interval: int = bounded(1, ge=0)

    __post_init__ = check_fields


@dataclass(frozen=True)
class HarnessConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    data: DataSection = field(default_factory=DataSection)
    train: TrainConfig = field(default_factory=TrainConfig)
    eval: EvalSection = field(default_factory=EvalSection)


_SECTIONS = {"model": ModelConfig, "data": DataSection, "train": TrainConfig, "eval": EvalSection}

# model fields that the variant sets, so a config file must not
_SET_ELSEWHERE = {f"model.{name}": "--variant" for flags in VARIANTS.values() for name in flags}


def parse_config(text: str) -> HarnessConfig:
    """Parse `section.key = value` lines; unknown keys, keys given twice and
    values out of range are errors."""
    overrides: dict[str, dict[str, object]] = {name: {} for name in _SECTIONS}
    set_on: dict[str, int] = {}  # key -> the line that set it
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
        setting = next((f for f in fields(_SECTIONS[section]) if f.name == name), None)
        if setting is None:
            raise HarnessError(f"config line {lineno}: unknown key '{key}'")
        if key in _SET_ELSEWHERE:
            raise HarnessError(f"config line {lineno}: '{key}' is set by {_SET_ELSEWHERE[key]}, not by the config file")
        if key in set_on:
            raise HarnessError(f"config line {lineno}: '{key}' is already set on line {set_on[key]}")
        set_on[key] = lineno
        try:
            overrides[section][name] = parse(raw, setting)
        except ValueError as exc:
            raise HarnessError(f"config line {lineno}: {section}.{exc}") from exc
    sections = {}
    for section, kwargs in overrides.items():
        try:
            sections[section] = _SECTIONS[section](**kwargs)
        except ValueError as exc:
            # a cross-field rule names its fields as `name = value`: give each its section
            names = "|".join(f.name for f in fields(_SECTIONS[section]))
            raise HarnessError(re.sub(rf"\b({names}) = ", rf"{section}.\1 = ", str(exc))) from exc
    return HarnessConfig(**sections)


def load_config(path) -> HarnessConfig:
    return parse_config(Path(path).read_text())


def format_config(config: HarnessConfig) -> str:
    """One sorted `key = value` line per config-file key: what `parse_config`
    reads back to the same config."""
    lines = []
    for section in sorted(_SECTIONS):
        for name, raw in sorted(write(getattr(config, section)).items()):
            if f"{section}.{name}" not in _SET_ELSEWHERE:
                lines.append(f"{section}.{name} = {raw}")
    return "\n".join(lines) + "\n"


def write_resolved_config(config: HarnessConfig, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.resolved.txt").write_text(format_config(config))


# ---------------------------------------------------------------------------
# tasks, difficulty, episodes
# ---------------------------------------------------------------------------


def task_list(config: HarnessConfig) -> list[TaskSpec]:
    tasks = [TaskSpec("poke", c) for c in range(config.data.n_poke_tasks)]
    tasks.extend(
        TaskSpec("pick_place", c, c % len(RECEPTACLE_PALETTE)) for c in range(config.data.n_pick_place_tasks)
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
    model: ModelConfig,
    task: TaskSpec,
    n_distractor_objects: int,
    n_distractor_receptacles: int,
    seed: int,
    noisy: bool = False,
) -> Trajectory:
    """One expert episode, noisy or not: `sim.observe` of the expert's states
    at the model's camera resolutions, which is what the policy sees of its
    scenes, and the expert's actions; its traces are computed from its
    proprio. Raises if the expert fails."""
    state = reset(task, n_distractor_objects, n_distractor_receptacles, seed)
    rng = np.random.default_rng(derive_seed(seed, "expert-noise")) if noisy else None
    states, actions, score = expert_rollout(state, task, rng)
    if score != 1.0:
        raise HarnessError(f"expert failed on {task.label} (seed {seed})")
    third, wrist, proprio = observe(states, model.third_resolution, model.wrist_resolution)
    return Trajectory(task.label, third, wrist, proprio, np.stack([a.deltas for a in actions]).astype(np.float32))


def generate_task_episodes(config: HarnessConfig, task: TaskSpec, n_demos: int, base_seed: int) -> list[Trajectory]:
    """Expert demos cycling through the difficulty levels.

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
                episodes.append(record_episode(config.model, task, n_obj, n_rec, seed, noisy=True))
                break
            except HarnessError as exc:
                last_error = exc
        else:
            raise HarnessError(f"task {task.label}: demo {i} failed 20 attempts: {last_error}")
    return episodes


def stratified_split(config: HarnessConfig) -> SplitSpec:
    """Task-disjoint split per task kind, so both kinds appear on both sides.

    Each kind's labels are sorted and shuffled by a generator seeded with
    `data.split_seed`; the first round(test_fraction * n) of its n labels,
    halves rounded up, go to the test side. A kind whose cut would leave a
    side without its tasks is an error naming the kind and its task count.
    """
    fraction, seed = config.data.test_fraction, config.data.split_seed
    train_labels: list[str] = []
    test_labels: list[str] = []
    for kind in ("poke", "pick_place"):
        labels = sorted(t.label for t in task_list(config) if t.kind == kind)
        if not labels:
            continue
        n_test = math.floor(fraction * len(labels) + 0.5)
        if not 0 < n_test < len(labels):
            raise HarnessError(f"data.test_fraction = {fraction} leaves a side without {kind} tasks: {n_test} of {len(labels)} to test")
        shuffled = [labels[i] for i in np.random.default_rng(seed).permutation(len(labels))]
        test_labels += shuffled[:n_test]
        train_labels += shuffled[n_test:]
    return SplitSpec(tuple(sorted(train_labels)), tuple(sorted(test_labels)), seed)


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
    split = stratified_split(config)
    write_resolved_config(config, out_dir)
    (out_dir / "split.json").unlink(missing_ok=True)  # train and eval refuse the run until every episode file is new
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
    try:
        blob = json.loads(path.read_text())
        train_labels, test_labels, seed = blob["train"], blob["test"], blob["seed"]
    except (json.JSONDecodeError, UnicodeDecodeError, KeyError, TypeError) as exc:
        raise HarnessError(f"{path}: not a split file ({exc!r})") from exc
    labels_ok = all(isinstance(v, list) and all(isinstance(lb, str) for lb in v) for v in (train_labels, test_labels))
    if not labels_ok or type(seed) is not int:
        raise HarnessError(f"{path}: expected 'train' and 'test' lists of task labels and an integer 'seed'")
    try:
        return SplitSpec(tuple(train_labels), tuple(test_labels), seed)
    except ValueError as exc:
        raise HarnessError(f"{path}: {exc}") from exc


def _test_tasks(config: HarnessConfig, out_dir: Path) -> list[TaskSpec]:
    """The config's tasks for the split's test labels, in the split's order;
    a label the config has no task for names the split file."""
    split = load_split(out_dir)
    try:
        return [task_by_label(config, label) for label in split.test_tasks]
    except HarnessError as exc:
        raise HarnessError(f"{out_dir / 'split.json'}: {exc}") from exc


def load_train_episodes(out_dir) -> list[Trajectory]:
    split = load_split(out_dir)
    episodes: list[Trajectory] = []
    for label in split.train_tasks:
        path = episode_path(out_dir, label)
        task_episodes = load_episodes(path)
        if not task_episodes:
            raise HarnessError(f"{path}: holds no episodes of training task {label}; rerun gen-data")
        for i, ep in enumerate(task_episodes):
            if ep.task_label != label:
                raise HarnessError(f"{path}: episode {i} is a demo of {ep.task_label}, not of {label}")
            episodes.append(ep)
    return episodes


def variant_model_config(config: HarnessConfig, variant: str) -> ModelConfig:
    if variant not in VARIANTS:
        raise HarnessError(f"unknown variant '{variant}' (expected one of {sorted(VARIANTS)})")
    return dataclasses.replace(config.model, **VARIANTS[variant])


def cmd_train(config: HarnessConfig, variant: str, out_dir) -> Path:
    out_dir = Path(out_dir)
    seed = config.train.seed
    episodes = load_train_episodes(out_dir)
    model = PolicyModel.init(variant_model_config(config, variant), seed=derive_seed(seed, "init", variant))
    ckpt = checkpoint_path(out_dir, variant, seed)

    def save(step, m):
        # train() checks its inputs before step 0, so the first save follows every check
        write_resolved_config(config, out_dir)
        ckpt.parent.mkdir(parents=True, exist_ok=True)
        m.save(ckpt, extra_header={"variant": variant, "train_seed": str(seed), "train_step": str(step)})

    cfg = dataclasses.replace(config.train, seed=derive_seed(seed, "train", variant))
    history = train(model, episodes, cfg, checkpoint_hook=save)
    save(config.train.steps, model)

    log = Path(out_dir) / f"loss_{variant}_seed{seed}.csv"
    rows = ["step,loss,l_action,l_reason,grad_norm"]
    rows += [f"{r.step},{r.loss:.6f},{r.l_action:.6f},{r.l_reason:.6f},{r.grad_norm:.6f}" for r in history]
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


def classify_failure(result: RolloutResult, task: TaskSpec) -> str:
    """Deterministic failure taxonomy for a finished rollout.

    Overflowed rollouts are their own class. Otherwise the last predicted
    trace decides. A trace ends where its episode ends: at the target object
    for a poke, over the target receptacle for a pick-and-place, picked or
    not. So the candidates are a poke's objects and receptacles, and a
    pick-and-place's receptacles, taken at the decode step; if the trace's
    endpoint lies nearer to a wrong candidate than to the correct one
    (normalized image coordinates), the failure is a trace error. Remaining
    failures are classified by how far execution got.

    A scene with no wrong candidate has no trace error. Eval scenes take
    their distractors from `difficulty_counts`, which adds a receptacle to
    a pick-and-place scene only at level 2 and above, so a pick-and-place
    rollout at level 0 or 1 is never a `trace_error`: a trace that ends on
    a distractor object there counts as a grasp or placement failure.
    """
    if result.score == 1.0:
        return "none"
    if result.overflow:
        return "overflow"
    picked = task.kind == "pick_place" and result.score == 0.5
    if result.predicted_traces:
        step, trace = result.predicted_traces[-1]
        endpoint = np.array([trace[-2], trace[-1]])
        state = result.states[step]
        if task.kind == "pick_place":
            correct = [r.position for r in state.receptacles if r.class_id == task.target_receptacle_class]
            wrong = [r.position for r in state.receptacles if r.class_id != task.target_receptacle_class]
        else:
            correct = [o.position for o in state.objects if o.class_id == task.target_object_class]
            wrong = [o.position for o in state.objects if o.class_id != task.target_object_class]
            wrong.extend(r.position for r in state.receptacles)
        if correct and wrong:
            d_correct = min(np.linalg.norm(endpoint - uv) for uv in third_view_uv(correct))
            d_wrong = min(np.linalg.norm(endpoint - uv) for uv in third_view_uv(wrong))
            if d_wrong < d_correct:
                return "trace_error"
    if task.kind == "poke":
        return "poke_failure"
    return "placement_failure" if picked else "grasp_failure"


def _evaluate(
    config: HarnessConfig,
    out_dir: Path,
    train_seed: int,
    tasks: list[TaskSpec],
    runs: list[tuple[str, int]],
    prompt_ids: set[str] | None = None,
) -> list[EvalRecord]:
    """The one evaluation loop: every `(variant, k)` run on every (task,
    prompt config) cell of `tasks`, or only the prompt configs in `prompt_ids`.

    Runs are paired: each cell records one prompt demo and resets one set of
    scenes, seeded only by (eval seed, task, prompt config, rollout index), and
    every variant and k rolls out on those same scenes. Every checkpoint is
    loaded once, against the config's model with its variant's flags and
    against `train_seed`, and every run's policy is built once, before the
    first rollout, so a missing checkpoint, one of another model or train
    seed, or a k its model cannot serve fails before any work; the expert
    stub is built per task.

    Each run makes one `rollout` call per task, in which every cell of the
    task is one lane group, so each trunk call serves all of the task's
    rollouts; a lane's record equals a rollout of its scene alone. Records
    come in cell order, then run order, then rollout order.
    """
    models = {}
    for variant in dict.fromkeys(v for v, _ in runs if v != "expert"):
        model_config = variant_model_config(config, variant)
        ckpt = checkpoint_path(out_dir, variant, train_seed)
        if not ckpt.exists():
            raise HarnessError(f"missing checkpoint for variant '{variant}': {ckpt}")
        models[variant], header = PolicyModel.load(ckpt, model_config)
        header_seed = header.get("train_seed", "none")
        if header_seed != str(train_seed):
            raise HarnessError(f"{ckpt}: not a checkpoint of train seed {train_seed}: its header has train_seed = {header_seed}")
    policies: dict[tuple[str, int], TransformerPolicy] = {}
    for variant, k in runs:
        if variant != "expert":
            try:
                policies[variant, k] = TransformerPolicy(models[variant], k)
            except ValueError as exc:
                raise HarnessError(f"variant '{variant}' at k = {k}: {exc}") from exc
    records: list[EvalRecord] = []
    for task in tasks:
        cells = [p for p in prompt_configs(task) if prompt_ids is None or p.config_id in prompt_ids]
        groups = []  # each cell's (prompt demos, scenes, max_steps)
        for pconf in cells:
            demo = record_episode(
                config.model,
                task,
                pconf.n_distractor_objects,
                pconf.n_distractor_receptacles,
                derive_seed(config.eval.seed, "prompt", task.label, pconf.config_id),
            )
            max_steps = int(math.ceil(len(demo) * config.eval.max_steps_factor))
            states = []
            for r in range(config.eval.rollouts_per_config):
                n_obj, n_rec = difficulty_counts(task, r % config.data.difficulty_levels)
                scene_seed = derive_seed(config.eval.seed, "scene", task.label, pconf.config_id, r)
                states.append(reset(task, n_obj, n_rec, scene_seed))
            groups.append(([demo], states, max_steps))
        run_results = []  # per run, each cell's results
        for variant, k in runs:
            policy = policies.get((variant, k)) or ExpertReplayPolicy(task, config.model.chunk_h)
            run_results.append(rollout(policy, task, groups, config.eval.ensemble_decay))
        for c, pconf in enumerate(cells):
            for (variant, k), results in zip(runs, run_results):
                for r, result in enumerate(results[c]):
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
                            failure=classify_failure(result, task),
                        )
                    )
    return records


def _evaluate_and_write(
    config: HarnessConfig, out_dir, source: str, train_seed: int, runs: list[tuple[str, int]], prompt_ids: set[str] | None = None
) -> list[EvalRecord]:
    """`_evaluate` the `(variant, k)` runs on the split's unseen tasks, or on
    their prompt configs in `prompt_ids`, each run once however often it is
    given. Writes each variant's records to
    metrics/<source>_<variant>_seed<N>.json, prints one line per file, and
    returns the records grouped by variant, in run order."""
    out_dir = Path(out_dir)
    tasks = _test_tasks(config, out_dir)
    runs = list(dict.fromkeys(runs))
    records = _evaluate(config, out_dir, train_seed, tasks, runs, prompt_ids)
    write_resolved_config(config, out_dir)
    (out_dir / "metrics").mkdir(parents=True, exist_ok=True)
    by_variant = {v: [r for r in records if r.variant == v] for v, _ in runs}
    for variant, rs in by_variant.items():
        path = out_dir / "metrics" / f"{source}_{variant}_seed{train_seed}.json"
        path.write_text(json.dumps([r.to_dict() for r in rs], indent=1) + "\n")
        ks = [k for v, k in runs if v == variant]
        print(f"{source}: {variant} seed {train_seed}: k={ks} mean score {_mean_score(rs):.3f} over {len(rs)} rollouts -> {path}")
    return [r for rs in by_variant.values() for r in rs]


def cmd_eval(config: HarnessConfig, out_dir, variants: list[str], train_seed: int | None = None) -> list[EvalRecord]:
    """Evaluate each variant once on every cell; one metrics file per variant.
    A variant that never learns to predict traces runs without trace decodes."""
    k = config.eval.reasoning_interval
    runs = [(v, 0 if v in VARIANTS and not VARIANTS[v]["target_reasoning"] else k) for v in variants]
    train_seed = config.train.seed if train_seed is None else train_seed
    return _evaluate_and_write(config, out_dir, "eval", train_seed, runs)


def cmd_sweep_interval(config: HarnessConfig, out_dir, variant: str, intervals: list[int]) -> list[EvalRecord]:
    """Evaluate one checkpoint at several reasoning intervals.

    Uses the single-distractor prompt config on every unseen task; scene
    seeds match cmd_eval's, so the k=1 rows reproduce a full-variant eval.
    Each interval is evaluated once, however often it is given."""
    return _evaluate_and_write(config, out_dir, "sweep", config.train.seed, [(variant, k) for k in intervals], prompt_ids={"p1"})


# ---------------------------------------------------------------------------
# metrics and reports
# ---------------------------------------------------------------------------


def load_metrics(out_dir) -> dict[str, list[EvalRecord]]:
    """Every record of the run's metrics files, by source: the records of
    the `<source>_*.json` files for each source in SOURCES. A malformed
    file, one named otherwise, or a record with a failure class or a score
    the report cannot count, raises a HarnessError that names it."""
    metrics_dir = Path(out_dir) / "metrics"
    keys = {f.name for f in fields(EvalRecord)}
    json_types = {"str": (str,), "int": (int,), "float": (int, float)}
    records: dict[str, list[EvalRecord]] = {source: [] for source in SOURCES}
    for path in sorted(metrics_dir.glob("*.json")):
        source = path.name.partition("_")[0]
        if source not in records:
            raise HarnessError(f"{path}: not a metrics file name (expected {' or '.join(f'{s}_*.json' for s in SOURCES)})")
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
            if blob["failure"] not in FAILURE_CLASSES:
                raise HarnessError(f"{path}: record {i} has failure = {blob['failure']!r}, not one of {list(FAILURE_CLASSES)}")
            if not 0.0 <= blob["score"] <= 1.0:
                raise HarnessError(f"{path}: record {i} has score = {blob['score']!r}, not in [0, 1]")
            records[source].append(EvalRecord(**blob))
    return records


REPORT_HEADER = ["source", "variant", "task", "prompt_config", "k", "mean_score", "n"] + [f"fail_{c}" for c in FAILURE_CLASSES]


def _group(records: list[EvalRecord], *names: str) -> dict[tuple, list[EvalRecord]]:
    """Records by the values of the named fields: keys sorted, each group in
    record order."""
    groups: dict[tuple, list[EvalRecord]] = {}
    for r in records:
        groups.setdefault(tuple(getattr(r, name) for name in names), []).append(r)
    return {key: groups[key] for key in sorted(groups)}


def _mean_score(records: list[EvalRecord]) -> float:
    return float(np.mean([r.score for r in records]))


def write_report(records: dict[str, list[EvalRecord]], out_dir) -> tuple[Path, Path]:
    """Emit report.csv (one row per source/variant/task/prompt/k cell) and a
    human-readable summary of the `eval` records alone; a sweep re-runs some
    of the eval's scenes, so pooling the two would count them twice. Every
    table is a grouping of the records, so output depends only on the record
    sets."""
    out_dir = Path(out_dir)
    lines = [",".join(REPORT_HEADER)]
    for source in sorted(records):
        cells = _group(records[source], "variant", "task", "prompt_config", "reasoning_interval")
        for (variant, task, prompt_config, k), rs in cells.items():
            counts = ",".join(str(sum(r.failure == cls for r in rs)) for cls in FAILURE_CLASSES)
            lines.append(f"{source},{variant},{task},{prompt_config},{k},{_mean_score(rs):.4f},{len(rs)},{counts}")
    csv_path = out_dir / "report.csv"
    csv_path.write_text("\n".join(lines) + "\n")

    evals = records.get("eval", [])
    by_variant = sorted(_group(evals, "variant").items(), key=lambda item: _variant_order(item[0][0]))
    by_cell = _group(evals, "task", "variant")
    variants = [v for (v,), _ in by_variant]
    summary = ["mean score per variant (all unseen tasks, all prompt configs)"]
    for (v,), rs in by_variant:
        ks = sorted({r.reasoning_interval for r in rs})
        summary.append(f"  {v:8s} k={ks} score {_mean_score(rs):.3f} over {len(rs)} rollouts")
    summary += ["", "per-task means", "  task".ljust(24) + "".join(v.rjust(10) for v in variants)]
    for task in dict.fromkeys(task for task, _ in by_cell):
        cells = [by_cell.get((task, v)) for v in variants]
        summary.append(f"  {task}".ljust(24) + "".join((f"{_mean_score(rs):.3f}" if rs else "-").rjust(10) for rs in cells))
    summary += ["", "failure histogram (failed rollouts only)"]
    for (v,), rs in by_variant:
        failed = [r.failure for r in rs if r.failure != "none"]
        parts = [f"{cls} {failed.count(cls)}/{len(failed)}" for cls in FAILURE_CLASSES[1:] if cls in failed]
        summary.append(f"  {v:8s} " + (", ".join(parts) if failed else "no failures"))
    summary_path = out_dir / "summary.txt"
    summary_path.write_text("\n".join(summary) + "\n")
    return csv_path, summary_path


def _variant_order(name: str) -> tuple:
    order = [*VARIANTS, "expert"]
    return (order.index(name) if name in order else len(order), name)


def cmd_report(out_dir) -> tuple[Path, Path]:
    records = load_metrics(out_dir)
    if not any(records.values()):
        raise HarnessError(f"no {' or '.join(SOURCES)} records in {Path(out_dir) / 'metrics'}; run eval first")
    csv_path, summary_path = write_report(records, out_dir)
    counts = ", ".join(f"{len(rs)} {source}" for source, rs in records.items())
    print(f"report: {counts} rollout records -> {csv_path}, {summary_path}")
    return csv_path, summary_path

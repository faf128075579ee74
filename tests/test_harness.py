"""Config parsing, dataset generation, eval bookkeeping, failure taxonomy, reports."""

from __future__ import annotations

import json
import math
import re
import shlex
import shutil
import struct
from pathlib import Path

import numpy as np
import pytest

from conftest import write_version_1_container, write_version_2_episode_file, write_version_3_episode_file
from deskicl import harness, sim
from deskicl.checkpoint import load_checkpoint, save_checkpoint
from deskicl.cli import build_parser, main as cli_main
from deskicl.data import load_episodes, save_episodes
from deskicl.engine import ExpertReplayPolicy, RolloutResult, TransformerPolicy, rollout
from deskicl.harness import (
    DataSection,
    EvalRecord,
    HarnessConfig,
    HarnessError,
    classify_failure,
    cmd_eval,
    cmd_gen_data,
    cmd_sweep_interval,
    cmd_train,
    derive_seed,
    difficulty_counts,
    format_config,
    load_metrics,
    parse_config,
    prompt_configs,
    record_episode,
    stratified_split,
    task_list,
    write_report,
)
from deskicl.model import ModelConfig, PolicyModel
from deskicl.sim import OBJECT_PALETTE, RECEPTACLE_PALETTE, SceneEntity, SimError, TaskSpec, make_state, reset

TINY_CONFIG_TEXT = """
# tiny end-to-end configuration
data.n_poke_tasks = 3
data.n_pick_place_tasks = 2
data.demos_per_task = 3
data.test_fraction = 0.4
model.d_model = 48
model.n_layers = 2
model.n_heads = 4
model.chunk_h = 4
train.steps = 10
eval.rollouts_per_config = 2
"""


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """Generated data plus 10-step checkpoints for both headline variants."""
    out = tmp_path_factory.mktemp("tiny_run")
    config = parse_config(TINY_CONFIG_TEXT)
    cmd_gen_data(config, out)
    cmd_train(config, "ours", out)
    cmd_train(config, "icrt", out)
    return config, out


# ---------------------------------------------------------------------------
# config machinery
# ---------------------------------------------------------------------------


def test_parse_format_round_trip():
    config = parse_config(TINY_CONFIG_TEXT)
    assert config.data.n_poke_tasks == 3
    assert config.model.d_model == 48
    reparsed = parse_config(format_config(config))
    assert reparsed == config
    keys = {line.split(" = ")[0] for line in format_config(HarnessConfig()).splitlines()}
    assert not keys & {"train.log_interval", "model.prompt_reasoning", "model.target_reasoning", "train.n_prompt_choices"}


def test_parse_rejects_unknown_keys():
    with pytest.raises(HarnessError, match="unknown key"):
        parse_config("train.stepz = 5\n")
    with pytest.raises(HarnessError, match="unknown section"):
        parse_config("nope.steps = 5\n")
    with pytest.raises(HarnessError, match="key = value"):
        parse_config("just words\n")
    with pytest.raises(HarnessError, match="unknown key"):
        parse_config("train.log_interval = 5\n")
    with pytest.raises(HarnessError, match="not a config-file key"):
        parse_config("train.n_prompt_choices = 3\n")
    # the variant is the only source of its flags
    for key in ("model.prompt_reasoning", "model.target_reasoning"):
        with pytest.raises(HarnessError, match="--variant"):
            parse_config(f"{key} = false\n")
    # the world has no settings: its physics are constants in sim.py, its
    # class counts the palettes' sizes, and the cameras are the model's keys
    for line in ("env.delta_max = 0.1", "env.wrist_window = 0.1", "env.n_object_classes = 12",
                 "env.third_resolution = 32"):
        with pytest.raises(HarnessError, match=r"^config line 2: unknown section 'env'$"):
            parse_config(f"# probe\n{line}\n")


def test_a_key_given_twice_is_an_error(tmp_path, capsys):
    """A second line for a key names both lines, even with the same value,
    and the CLI stops before it writes anything."""
    with pytest.raises(HarnessError, match=r"^config line 2: 'train\.steps' is already set on line 1$"):
        parse_config("train.steps = 5\ntrain.steps = 7\n")
    config_path = tmp_path / "config.txt"
    config_path.write_text("train.steps = 5\n# again\ntrain.steps = 5\n")
    assert cli_main(["gen-data", "--config", str(config_path), "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err == "deskicl gen-data: error: config line 3: 'train.steps' is already set on line 1\n"
    assert not (tmp_path / "run").exists()


def test_config_cross_validation():
    config = parse_config("model.third_resolution = 24\nmodel.wrist_resolution = 12\nmodel.patch_size = 6\n")
    assert (config.model.third_resolution, config.model.wrist_resolution) == (24, 12)
    # a cross-field rule names each of its keys
    with pytest.raises(HarnessError, match=r"^model\.third_resolution = 20 is not a multiple of model\.patch_size = 8$"):
        parse_config("model.third_resolution = 20\n")
    with pytest.raises(HarnessError, match=r"^model\.wrist_resolution = 12 is not a multiple of model\.patch_size = 8$"):
        parse_config("model.wrist_resolution = 12\n")
    with pytest.raises(HarnessError, match=r"^model\.d_model = 30 is not a multiple of model\.n_heads = 4$"):
        parse_config("model.d_model = 30\n")
    with pytest.raises(HarnessError, match="rollouts_per_config"):
        parse_config("eval.rollouts_per_config = 0\n")
    # level L places L distractor objects, each of a class other than the target's
    for levels in (0, 13):
        with pytest.raises(HarnessError, match="difficulty_levels"):
            parse_config(f"data.difficulty_levels = {levels}\n")
    parse_config("data.difficulty_levels = 12\n")
    # gen-data needs at least one task
    with pytest.raises(HarnessError, match=r"^data\.n_poke_tasks = 0 and data\.n_pick_place_tasks = 0 leave no task to generate$"):
        parse_config("data.n_poke_tasks = 0\ndata.n_pick_place_tasks = 0\n")


# the world has no settings: a line of its deleted section stops a run too
NO_ENV = "unknown section 'env'"

# lines that must stop a run at parse time, each with what its error names
CONFIG_PROBES = [
    ("train.steps = -3", "train.steps"),
    ("train.steps = abc", "train.steps"),
    ("train.grad_clip = 0", "train.grad_clip"),
    ("train.lr = -1", "train.lr"),
    ("train.lr = nan", "train.lr"),
    ("train.lr = inf", "train.lr"),
    ("train.checkpoint_interval = -1", "train.checkpoint_interval"),
    ("train.n_prompt_choices = 3", "train.n_prompt_choices"),
    ("eval.max_steps_factor = 0", "eval.max_steps_factor"),
    ("model.d_model = 0", "model.d_model"),
    ("model.n_heads = 0", "model.n_heads"),
    ("model.patch_size = 0", "model.patch_size"),
    ("env.third_resolution = 4", NO_ENV),
    ("env.wrist_resolution = 4", NO_ENV),
    ("env.n_object_classes = 13", NO_ENV),
    ("env.n_receptacle_classes = 7", NO_ENV),
    ("data.demos_per_task = 1", "data.demos_per_task"),
    ("data.split_seed = -1", "data.split_seed"),
    ("data.test_fraction = 1", "data.test_fraction"),
]
# the keys that took over the env section's bounds; listed apart so that
# each case above keeps its place, and with it its test id
TAKEN_OVER_PROBES = [
    ("model.third_resolution = 4", "model.third_resolution"),
    ("model.wrist_resolution = 4", "model.wrist_resolution"),
    ("data.n_poke_tasks = 13", "data.n_poke_tasks"),
    ("data.difficulty_levels = 13", "data.difficulty_levels"),
]
# keys a run does not choose: the expert's noise is sim.EXPERT_NOISE, eval's
# prompt demos are noiseless, and the trunk fixes its FFN width and RoPE base
DELETED_KEY_PROBES = [
    (line, f"unknown key '{line.partition(' = ')[0]}'")
    for line in ("data.expert_noise = 0.01", "eval.prompt_noise = 0.01", "model.d_ff = 96", "model.rope_base = 500.0")
]


@pytest.mark.parametrize(
    "line, named", CONFIG_PROBES + TAKEN_OVER_PROBES, ids=[line for line, _ in CONFIG_PROBES + TAKEN_OVER_PROBES]
)
def test_parse_rejects_values_out_of_range(line, named):
    with pytest.raises(HarnessError, match=rf"^config line 2: {re.escape(named)}(?![\w.])"):
        parse_config(f"# probe\n{line}\n")


@pytest.mark.parametrize("line, named", DELETED_KEY_PROBES, ids=[line for line, _ in DELETED_KEY_PROBES])
def test_parse_rejects_deleted_keys(line, named):
    with pytest.raises(HarnessError, match=rf"^config line 2: {re.escape(named)}$"):
        parse_config(f"# probe\n{line}\n")


@pytest.mark.parametrize(
    "args, config_line, named",
    [(["gen-data"], line, named) for line, named in CONFIG_PROBES]
    + [
        (["sweep-interval", "--intervals", "abc"], "", "--intervals"),
        (["sweep-interval", "--intervals", "1,-1"], "", "--intervals"),
        (["gen-data", "--seed", "-1"], "", "--seed"),
        (["train", "--variant", "ours", "--seed", "-1"], "", "--seed"),
        (["gen-data"], "env.n_receptacle_classes = 1", NO_ENV),
        (
            ["gen-data"],
            "env.n_object_classes = 2\ndata.n_poke_tasks = 2\ndata.n_pick_place_tasks = 0\ndata.difficulty_levels = 2",
            NO_ENV,
        ),
        (["sweep-interval", "--intervals", ","], "", "--intervals"),
        (["gen-data"], "env.third_resolution = 20", NO_ENV),
    ]
    + [(["gen-data"], line, named) for line, named in TAKEN_OVER_PROBES]
    + [
        # each task of a kind targets its own object class
        (["gen-data"], "data.n_pick_place_tasks = 13", "data.n_pick_place_tasks"),
        # a cross-field rule names both fields
        (["gen-data"], "model.third_resolution = 20", "model.third_resolution = 20 is not a multiple of model.patch_size = 8"),
    ]
    + [(["gen-data"], line, named) for line, named in DELETED_KEY_PROBES]
    # a config with no task
    + [(["gen-data"], "data.n_poke_tasks = 0\ndata.n_pick_place_tasks = 0", "data.n_poke_tasks = 0 and data.n_pick_place_tasks = 0")],
)
def test_cli_rejects_bad_settings_before_any_output(tmp_path, capsys, args, config_line, named):
    config_path = tmp_path / "config.txt"
    config_path.write_text(config_line + "\n")
    assert cli_main([*args, "--config", str(config_path), "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err
    assert not (tmp_path / "run").exists()


def test_gen_data_records_at_the_models_cameras(tmp_path):
    config = HarnessConfig(
        model=ModelConfig(third_resolution=24, wrist_resolution=8),
        data=DataSection(n_poke_tasks=2, n_pick_place_tasks=2, demos_per_task=2, test_fraction=0.5),
    )
    assert parse_config(format_config(config)) == config
    cmd_gen_data(config, tmp_path)
    for task in task_list(config):
        for episode in load_episodes(harness.episode_path(tmp_path, task.label)):
            assert episode.third.shape[1:] == (24, 24) and episode.wrist.shape[1:] == (8, 8)


def test_class_counts_bounded_by_palettes():
    """Each task of a kind targets its own object class, and difficulty level
    L places L distractor objects of classes other than the target's."""
    assert len(OBJECT_PALETTE) == 12 and len(RECEPTACLE_PALETTE) == 6
    for name in ("n_poke_tasks", "n_pick_place_tasks", "difficulty_levels"):
        with pytest.raises(HarnessError, match=rf"^config line 2: data\.{name} = 13 is not in \[\d, 12\]$"):
            parse_config(f"# probe\ndata.{name} = 13\n")
    config = parse_config("data.n_poke_tasks = 12\ndata.n_pick_place_tasks = 12\ndata.difficulty_levels = 12\n")
    tasks = task_list(config)
    assert {t.target_receptacle_class for t in tasks if t.kind == "pick_place"} == set(range(len(RECEPTACLE_PALETTE)))
    for task in tasks:
        # every plan of distractors that gen-data and eval place can be reset
        plans = [(p.n_distractor_objects, p.n_distractor_receptacles) for p in prompt_configs(task)]
        for n_obj, n_rec in plans + [difficulty_counts(task, level) for level in range(config.data.difficulty_levels)]:
            reset(task, n_obj, n_rec, seed=0)


def test_every_config_key_round_trips():
    """Every config-file key off its default, so the round trip covers each
    field type of each section."""
    text = """
model.third_resolution = 24
model.wrist_resolution = 12
model.d_model = 64
model.n_layers = 3
model.n_heads = 8
model.patch_size = 4
model.max_context = 512
model.chunk_h = 5
model.lambda_r = 0.25
data.n_poke_tasks = 6
data.n_pick_place_tasks = 7
data.demos_per_task = 20
data.test_fraction = 0.5
data.split_seed = 3
data.difficulty_levels = 4
data.gen_seed = 5
train.steps = 100
train.seed = 6
train.lr = 0.001
train.weight_decay = 0.02
train.grad_clip = 0.5
train.checkpoint_interval = 10
eval.rollouts_per_config = 4
eval.max_steps_factor = 2.5
eval.ensemble_decay = 0.2
eval.seed = 7
eval.reasoning_interval = 8
"""
    config, default = parse_config(text), HarnessConfig()

    def value(c, key):
        section, _, name = key.partition(".")
        return getattr(getattr(c, section), name)

    keys = [line.split(" = ")[0] for line in format_config(default).splitlines()]
    assert keys == [
        "data.demos_per_task", "data.difficulty_levels", "data.gen_seed", "data.n_pick_place_tasks",
        "data.n_poke_tasks", "data.split_seed", "data.test_fraction",
        "eval.ensemble_decay", "eval.max_steps_factor", "eval.reasoning_interval", "eval.rollouts_per_config", "eval.seed",
        "model.chunk_h", "model.d_model", "model.lambda_r", "model.max_context", "model.n_heads",
        "model.n_layers", "model.patch_size", "model.third_resolution", "model.wrist_resolution",
        "train.checkpoint_interval", "train.grad_clip", "train.lr", "train.seed", "train.steps", "train.weight_decay",
    ]
    assert (config.model.third_resolution, config.model.wrist_resolution) == (24, 12)
    assert [key for key in keys if value(config, key) == value(default, key)] == []
    assert parse_config(format_config(config)) == config


def test_derive_seed_stable_and_distinct():
    a = derive_seed(1, "task", 2)
    assert a == derive_seed(1, "task", 2)
    assert a != derive_seed(1, "task", 3)
    assert a != derive_seed(2, "task", 2)


def test_task_list_and_difficulty():
    config = parse_config(TINY_CONFIG_TEXT)
    tasks = task_list(config)
    assert len(tasks) == 5
    assert sum(t.kind == "poke" for t in tasks) == 3
    poke = tasks[0]
    pp = tasks[-1]
    assert difficulty_counts(poke, 4) == (4, 0)
    assert difficulty_counts(pp, 1) == (1, 0)
    assert difficulty_counts(pp, 3) == (3, 1)


def test_prompt_configs_by_kind():
    pp = prompt_configs(TaskSpec("pick_place", 0, 0))
    assert [(p.config_id, p.n_distractor_objects, p.n_distractor_receptacles) for p in pp] == [
        ("p0", 0, 0),
        ("p1", 1, 0),
        ("pr", 0, 1),
    ]
    poke = prompt_configs(TaskSpec("poke", 0))
    assert [(p.config_id, p.n_distractor_objects, p.n_distractor_receptacles) for p in poke] == [
        ("p0", 0, 0),
        ("p1", 1, 0),
        ("pr", 2, 0),
    ]


def test_stratified_split_covers_both_kinds():
    config = parse_config(TINY_CONFIG_TEXT)
    split = stratified_split(config)
    assert len(split.train_tasks) + len(split.test_tasks) == 5
    assert any(label.startswith("poke") for label in split.test_tasks)
    assert any(label.startswith("place") for label in split.test_tasks)


def _poke_split(n_tasks: int, test_fraction: float, split_seed: int):
    """The split of `n_tasks` poke tasks and no pick-and-place tasks."""
    data = DataSection(n_poke_tasks=n_tasks, n_pick_place_tasks=0, test_fraction=test_fraction, split_seed=split_seed)
    return stratified_split(HarnessConfig(data=data))


def test_split_seven_three():
    spec = _poke_split(10, 0.3, split_seed=0)
    assert len(spec.train_tasks) == 7 and len(spec.test_tasks) == 3
    assert set(spec.train_tasks) | set(spec.test_tasks) == {f"poke_c{i}" for i in range(10)}


def test_split_two_labels_half():
    spec = _poke_split(2, 0.5, split_seed=1)
    assert len(spec.train_tasks) == 1 and len(spec.test_tasks) == 1


def test_split_deterministic():
    assert _poke_split(9, 0.33, split_seed=5) == _poke_split(9, 0.33, split_seed=5)
    assert _poke_split(9, 0.33, split_seed=5) != _poke_split(9, 0.33, split_seed=6)


def test_split_rejects_empty_side():
    """A cut that leaves a side without a kind's tasks names the kind, its
    task count and the key; a fraction outside (0, 1) is refused where the
    config is read (test_settings.py, and CONFIG_PROBES here)."""
    with pytest.raises(HarnessError, match=r"^data\.test_fraction = 0\.05 leaves a side without poke tasks: 0 of 4 to test$"):
        _poke_split(4, 0.05, split_seed=0)
    with pytest.raises(HarnessError, match=r"^data\.test_fraction = 0\.5 leaves a side without poke tasks: 1 of 1 to test$"):
        _poke_split(1, 0.5, split_seed=0)


# ---------------------------------------------------------------------------
# gen-data and train
# ---------------------------------------------------------------------------


def test_gen_data_outputs(tiny_run):
    config, out = tiny_run
    files = sorted(harness.episodes_dir(out).glob("*"))
    assert files == sorted(harness.episode_path(out, task.label) for task in task_list(config))
    assert len(files) == 5
    episodes = load_episodes(files[0])
    assert len(episodes) == 3
    assert all(e.traces is not None for e in episodes)
    split = harness.load_split(out)
    train_labels = {e.task_label for lb in split.train_tasks for e in load_episodes(harness.episode_path(out, lb))}
    assert not train_labels & set(split.test_tasks)
    assert (out / "config.resolved.txt").exists()


def test_gen_data_regeneration_byte_identical(tmp_path):
    config = parse_config("data.n_poke_tasks = 2\ndata.n_pick_place_tasks = 0\ndata.demos_per_task = 2\ndata.test_fraction = 0.5\n")
    cmd_gen_data(config, tmp_path / "a")
    cmd_gen_data(config, tmp_path / "b")
    for label in ("poke_c0", "poke_c1"):
        assert harness.episode_path(tmp_path / "a", label).read_bytes() == harness.episode_path(tmp_path / "b", label).read_bytes()
    assert (tmp_path / "a" / "split.json").read_bytes() == (tmp_path / "b" / "split.json").read_bytes()


def test_train_outputs_and_icrt_reasoning_loss_zero(tiny_run):
    config, out = tiny_run
    log = (out / "loss_icrt_seed0.csv").read_text().splitlines()
    assert log[0] == "step,loss,l_action,l_reason,grad_norm"
    assert len(log) == 1 + 10  # one row per step
    for step, line in enumerate(log[1:]):
        cells = line.split(",")
        assert int(cells[0]) == step
        assert float(cells[3]) == 0.0
        assert math.isfinite(float(cells[4])) and float(cells[4]) > 0.0
    ours_log = (out / "loss_ours_seed0.csv").read_text().splitlines()
    assert all(float(line.split(",")[3]) > 0.0 for line in ours_log[1:])


def test_variant_checkpoints_share_init_shapes(tiny_run):
    config, out = tiny_run
    from deskicl.model import PolicyModel

    ours, header_a = PolicyModel.load(harness.checkpoint_path(out, "ours", 0), harness.variant_model_config(config, "ours"))
    icrt, header_b = PolicyModel.load(harness.checkpoint_path(out, "icrt", 0), harness.variant_model_config(config, "icrt"))
    assert header_a["variant"] == "ours" and header_b["variant"] == "icrt"
    assert ours.config.prompt_reasoning and ours.config.target_reasoning
    assert not icrt.config.prompt_reasoning and not icrt.config.target_reasoning
    assert set(ours.params) == set(icrt.params)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_eval_plan_counts_and_expert_stub(tiny_run):
    config, out = tiny_run
    records = cmd_eval(config, out, ["expert"])
    split = harness.load_split(out)
    expected = len(split.test_tasks) * 3 * config.eval.rollouts_per_config
    assert len(records) == expected
    assert all(r.score == 1.0 for r in records)
    assert all(r.failure == "none" for r in records)


def test_eval_records_match_single_lane_rollouts(tiny_run):
    """Each record of a lockstep cell equals a rollout of its own scene alone."""
    config, out = tiny_run
    model, _ = PolicyModel.load(harness.checkpoint_path(out, "ours", 0), harness.variant_model_config(config, "ours"))
    for variant in ("expert", "ours"):
        for rec in cmd_eval(config, out, [variant]):
            task = harness.task_by_label(config, rec.task)
            pconf = next(p for p in prompt_configs(task) if p.config_id == rec.prompt_config)
            prompt_seed = derive_seed(config.eval.seed, "prompt", task.label, pconf.config_id)
            demo = harness.record_episode(
                config.model, task, pconf.n_distractor_objects, pconf.n_distractor_receptacles, prompt_seed,
            )
            n_obj, n_rec = difficulty_counts(task, rec.rollout_index % config.data.difficulty_levels)
            scene_seed = derive_seed(config.eval.seed, "scene", task.label, pconf.config_id, rec.rollout_index)
            state = reset(task, n_obj, n_rec, scene_seed)
            if variant == "expert":
                policy = ExpertReplayPolicy(task, config.model.chunk_h)
            else:
                policy = TransformerPolicy(model, rec.reasoning_interval)
            max_steps = math.ceil(len(demo) * config.eval.max_steps_factor)
            [alone] = rollout(policy, [state], task, [demo], max_steps, config.eval.ensemble_decay)
            assert (rec.score, rec.steps_used, rec.n_trace_decodes, rec.failure) == (
                alone.score, alone.steps_used, len(alone.predicted_traces), classify_failure(alone, task)
            )


def test_eval_trained_checkpoints_and_metrics_files(tiny_run):
    config, out = tiny_run
    records = cmd_eval(config, out, ["ours", "icrt"])
    split = harness.load_split(out)
    per_variant = len(split.test_tasks) * 3 * config.eval.rollouts_per_config
    assert len(records) == 2 * per_variant
    assert all(r.reasoning_interval == 0 for r in records if r.variant == "icrt")
    assert all(r.reasoning_interval == 1 for r in records if r.variant == "ours")
    assert (out / "metrics" / "eval_ours_seed0.json").exists()
    # icrt never decodes traces; ours decodes every step
    for r in records:
        if r.variant == "icrt":
            assert r.n_trace_decodes == 0
        else:
            assert r.n_trace_decodes == r.steps_used or r.score == 1.0


def test_eval_missing_checkpoint_names_variant(tiny_run):
    config, out = tiny_run
    with pytest.raises(HarnessError, match="to"):
        cmd_eval(config, out, ["to"])


def _copy_for_eval(out, run):
    """The split and checkpoints of `out` under `run`: enough to evaluate, no metrics."""
    shutil.copytree(out / "checkpoints", run / "checkpoints")
    shutil.copy(out / "split.json", run)


def test_eval_missing_checkpoint_fails_before_any_rollout(tiny_run, tmp_path):
    config, out = tiny_run
    run = tmp_path / "run"
    _copy_for_eval(out, run)
    assert not harness.checkpoint_path(run, "to", 0).exists()
    with pytest.raises(HarnessError, match="variant 'to'"):
        cmd_eval(config, run, ["ours", "to"])
    assert not (run / "metrics").exists()


def test_eval_variants_share_each_cells_prompt_and_scenes(tiny_run, tmp_path, monkeypatch):
    """One eval over two variants (one of them repeated) writes what two
    single-variant evals write, and records each cell's prompt demo once."""
    config, out = tiny_run
    together, alone = tmp_path / "together", tmp_path / "alone"
    _copy_for_eval(out, together)
    _copy_for_eval(out, alone)
    singles = cmd_eval(config, alone, ["ours"]) + cmd_eval(config, alone, ["icrt"])
    demos = []
    record_episode = harness.record_episode
    monkeypatch.setattr(harness, "record_episode", lambda *args, **kw: demos.append(args[1]) or record_episode(*args, **kw))
    assert cmd_eval(config, together, ["ours", "icrt", "ours"]) == singles
    n_cells = sum(len(prompt_configs(harness.task_by_label(config, lb))) for lb in harness.load_split(out).test_tasks)
    assert len(demos) == n_cells
    for name in ("eval_ours_seed0.json", "eval_icrt_seed0.json"):
        assert (together / "metrics" / name).read_bytes() == (alone / "metrics" / name).read_bytes()
    assert sorted(p.name for p in (together / "metrics").iterdir()) == ["eval_icrt_seed0.json", "eval_ours_seed0.json"]


def test_sweep_interval_rows_and_k1_consistency(tiny_run, tmp_path):
    config, out = tiny_run
    sweep = cmd_sweep_interval(config, out, "ours", [1, 4, 0])
    split = harness.load_split(out)
    csv_path, _ = write_report({"sweep": sweep}, tmp_path)
    rows = _parse_report(csv_path)
    assert len(rows) == 3 * len(split.test_tasks)  # one row per (task, k)
    # trace decode counts match ceil(steps / k)
    for r in sweep:
        if r.reasoning_interval > 0:
            assert r.n_trace_decodes == -(-r.steps_used // r.reasoning_interval)
        else:
            assert r.n_trace_decodes == 0
    # k=1 sweep rollouts equal a full eval on the same seeds
    eval_records = cmd_eval(config, out, ["ours"])
    eval_by_key = {(r.task, r.prompt_config, r.rollout_index): r for r in eval_records}
    matched = 0
    for r in sweep:
        if r.reasoning_interval != 1:
            continue
        mate = eval_by_key[(r.task, "p1", r.rollout_index)]
        assert (r.score, r.steps_used) == (mate.score, mate.steps_used)
        matched += 1
    assert matched == len(split.test_tasks) * config.eval.rollouts_per_config


def test_failed_eval_keeps_the_resolved_config(tiny_run, tmp_path):
    """A command that fails on its inputs leaves the run's resolved config as it was."""
    _, out = tiny_run
    run = tmp_path / "run"
    _copy_for_eval(out, run)
    shutil.copy(out / "config.resolved.txt", run)
    before = (run / "config.resolved.txt").read_bytes()
    config_path = tmp_path / "config.txt"
    config_path.write_text(TINY_CONFIG_TEXT)
    assert not harness.checkpoint_path(run, "to", 0).exists()
    args = ["eval", "--config", str(config_path), "--out", str(run), "--variant", "ours,to", "--rollouts", "5"]
    assert cli_main(args) == 1
    assert (run / "config.resolved.txt").read_bytes() == before
    assert not (run / "metrics").exists()


def test_sweep_interval_refuses_trace_decodes_from_icrt(tiny_run, tmp_path, capsys):
    """icrt never learns to predict traces: a sweep that would decode them
    fails before any rollout and leaves the run as it was; k = 0 still runs."""
    _, out = tiny_run
    run = tmp_path / "run"
    _copy_for_eval(out, run)
    shutil.copy(out / "config.resolved.txt", run)
    before = (run / "config.resolved.txt").read_bytes()
    config_path = tmp_path / "config.txt"
    config_path.write_text(TINY_CONFIG_TEXT)
    args = ["sweep-interval", "--config", str(config_path), "--out", str(run), "--variant", "icrt"]
    assert cli_main([*args, "--intervals", "0,1"]) == 1
    err = capsys.readouterr().err
    assert "variant 'icrt' at k = 1" in err and "target_reasoning is off" in err and "Traceback" not in err
    assert (run / "config.resolved.txt").read_bytes() == before
    assert not (run / "metrics").exists()
    assert cli_main([*args, "--intervals", "0"]) == 0
    records = load_metrics(run)["sweep"]
    assert records and all(r.variant == "icrt" and r.reasoning_interval == 0 and r.n_trace_decodes == 0 for r in records)


def test_sweep_interval_runs_each_interval_once(tiny_run, tmp_path):
    config, out = tiny_run
    run = tmp_path / "run"
    _copy_for_eval(out, run)
    records = cmd_sweep_interval(config, run, "ours", [0, 4, 0])
    n_tasks = len(harness.load_split(out).test_tasks)
    assert len(records) == 2 * n_tasks * config.eval.rollouts_per_config
    keys = [(r.task, r.reasoning_interval, r.rollout_index) for r in records]
    assert len(set(keys)) == len(keys) and {r.reasoning_interval for r in records} == {0, 4}


def test_eval_refuses_a_checkpoint_of_another_variant(tiny_run, tmp_path, capsys):
    """An `ours` checkpoint under the name of `icrt` fails before any
    rollout, naming the checkpoint and the flags it holds against those of
    the variant asked; under the name of a variant that does not exist, it
    fails naming the variant."""
    _, out = tiny_run
    run = tmp_path / "run"
    _copy_for_eval(out, run)
    config_path = tmp_path / "config.txt"
    config_path.write_text(TINY_CONFIG_TEXT)
    expected = {
        "icrt": "{ckpt}: not a checkpoint of the config's model: prompt_reasoning = 1 (config: 0), target_reasoning = 1 (config: 0)",
        "bogus": "unknown variant 'bogus'",
    }
    for variant, message in expected.items():
        ckpt = harness.checkpoint_path(run, variant, 0)
        shutil.copy(harness.checkpoint_path(out, "ours", 0), ckpt)
        assert cli_main(["eval", "--config", str(config_path), "--out", str(run), "--variant", variant]) == 1
        err = capsys.readouterr().err
        assert message.format(ckpt=ckpt) in err
        assert "Traceback" not in err
    assert not (run / "metrics").exists()


def test_eval_and_sweep_name_a_mistyped_variant(tiny_run, tmp_path, capsys):
    """A variant that does not exist, with no checkpoint of its name, is
    named as unknown, not as a missing checkpoint, by eval and sweep-interval."""
    _, out = tiny_run
    run = tmp_path / "run"
    _copy_for_eval(out, run)
    config_path = tmp_path / "config.txt"
    config_path.write_text(TINY_CONFIG_TEXT)
    for command in ("eval", "sweep-interval"):
        assert cli_main([command, "--config", str(config_path), "--out", str(run), "--variant", "foo"]) == 1
        err = capsys.readouterr().err
        assert err == f"deskicl {command}: error: unknown variant 'foo' (expected one of ['icrt', 'ours', 'to'])\n"
        assert "missing checkpoint" not in err
    assert not (run / "metrics").exists()


def test_eval_refuses_a_checkpoint_of_other_cameras(tiny_run, tmp_path, capsys):
    """A checkpoint trained at 32 pixels, evaluated under a 24-pixel config,
    fails before any rollout, naming the checkpoint and both resolutions; so
    does one evaluated under another model width or chunk length. The run's
    resolved config stays as it was."""
    _, out = tiny_run
    run = tmp_path / "run"
    _copy_for_eval(out, run)
    shutil.copy(out / "config.resolved.txt", run)
    before = (run / "config.resolved.txt").read_bytes()
    ckpt = harness.checkpoint_path(run, "ours", 0)
    config_path = tmp_path / "config.txt"
    for line, named in [
        ("model.third_resolution = 24", "third_resolution = 32 (config: 24)"),
        ("model.d_model = 64", "d_model = 48 (config: 64)"),
        ("model.chunk_h = 8", "chunk_h = 4 (config: 8)"),
    ]:
        key = line.partition(" = ")[0]
        kept = [tiny for tiny in TINY_CONFIG_TEXT.splitlines() if not tiny.startswith(f"{key} = ")]
        config_path.write_text("\n".join([*kept, line]) + "\n")
        assert cli_main(["eval", "--config", str(config_path), "--out", str(run), "--variant", "ours"]) == 1
        err = capsys.readouterr().err
        assert err == f"deskicl eval: error: {ckpt}: not a checkpoint of the config's model: {named}\n"
        assert (run / "config.resolved.txt").read_bytes() == before
        assert not (run / "metrics").exists()


def test_eval_refuses_a_checkpoint_missing_a_parameter(tiny_run, tmp_path, capsys):
    """A checkpoint whose arrays do not match its header fails before any
    rollout, naming the file and the parameter, without a traceback."""
    config, out = tiny_run
    run = tmp_path / "run"
    _copy_for_eval(out, run)
    ckpt = harness.checkpoint_path(run, "ours", 0)
    model, header = PolicyModel.load(ckpt, harness.variant_model_config(config, "ours"))
    save_checkpoint(ckpt, {k: p.data for k, p in model.params.items() if k != "trace_mlp.fc1.w"}, header)
    config_path = tmp_path / "config.txt"
    config_path.write_text(TINY_CONFIG_TEXT)
    assert cli_main(["eval", "--config", str(config_path), "--out", str(run), "--variant", "ours"]) == 1
    err = capsys.readouterr().err
    assert f"{ckpt}: missing parameter trace_mlp.fc1.w" in err and "Traceback" not in err
    assert not (run / "metrics").exists()


def test_eval_refuses_a_checkpoint_holding_nan(tiny_run, tmp_path, capsys):
    """A checkpoint with a NaN parameter fails before any rollout, naming the
    file and the parameter, where every rollout used to fail and eval to
    exit 0."""
    config, out = tiny_run
    run = tmp_path / "run"
    _copy_for_eval(out, run)
    ckpt = harness.checkpoint_path(run, "ours", 0)
    arrays, header = load_checkpoint(ckpt)
    arrays["final_norm.g"] = np.full_like(arrays["final_norm.g"], np.nan)
    save_checkpoint(ckpt, arrays, header)
    config_path = tmp_path / "config.txt"
    config_path.write_text(TINY_CONFIG_TEXT)
    assert cli_main(["eval", "--config", str(config_path), "--out", str(run), "--variant", "ours"]) == 1
    err = capsys.readouterr().err
    assert err == f"deskicl eval: error: {ckpt}: parameter final_norm.g holds a value that is not finite\n"
    assert not (run / "metrics").exists()


def test_eval_refuses_a_version_1_checkpoint_of_another_rope_base(tiny_run, tmp_path, capsys):
    """A checkpoint whose header states a RoPE base other than the trunk's
    is a version 1 container, the only one that carried the entry: it fails
    before any rollout, naming the file and its version, without a
    traceback."""
    config, out = tiny_run
    run = tmp_path / "run"
    _copy_for_eval(out, run)
    ckpt = harness.checkpoint_path(run, "ours", 0)
    model, header = PolicyModel.load(ckpt, harness.variant_model_config(config, "ours"))
    write_version_1_container(ckpt, {k: p.data for k, p in model.params.items()}, {**header, "rope_base": "500.0"})
    config_path = tmp_path / "config.txt"
    config_path.write_text(TINY_CONFIG_TEXT)
    assert cli_main(["eval", "--config", str(config_path), "--out", str(run), "--variant", "ours"]) == 1
    err = capsys.readouterr().err
    assert f"{ckpt}: unsupported checkpoint version 1" in err and "Traceback" not in err
    assert not (run / "metrics").exists()


def test_train_refuses_episodes_of_other_cameras(tiny_run, tmp_path, capsys):
    """Episodes recorded at 32 pixels, trained on under a 24-pixel config,
    fail before any output, naming the task and both pixel sizes."""
    _, out = tiny_run
    run = tmp_path / "run"
    shutil.copytree(out / "episodes", run / "episodes")
    shutil.copy(out / "split.json", run)
    shutil.copy(out / "config.resolved.txt", run)
    before = (run / "config.resolved.txt").read_bytes()
    config_path = tmp_path / "config.txt"
    config_path.write_text(TINY_CONFIG_TEXT + "model.third_resolution = 24\n")
    assert cli_main(["train", "--config", str(config_path), "--out", str(run), "--variant", "ours"]) == 1
    err = capsys.readouterr().err
    task = sorted(harness.load_split(run).train_tasks)[0]
    assert err == f"deskicl train: error: task {task}: an episode sees 32/16-pixel cameras, the model 24/16\n"
    assert (run / "config.resolved.txt").read_bytes() == before
    assert sorted(p.name for p in run.iterdir()) == ["config.resolved.txt", "episodes", "split.json"]


def _train_on_rewritten_episodes(tiny_run, tmp_path, capsys, write) -> tuple[Path, str]:
    """`deskicl train` on tiny_run's episode files, each rewritten by
    `write`: the first train task's file and the error it prints. The train
    fails before any output."""
    _, out = tiny_run
    run = tmp_path / "run"
    shutil.copytree(out / "episodes", run / "episodes")
    shutil.copy(out / "split.json", run)
    for path in sorted((run / "episodes").iterdir()):
        write(path, load_episodes(path))
    config_path = tmp_path / "config.txt"
    config_path.write_text(TINY_CONFIG_TEXT)
    assert cli_main(["train", "--config", str(config_path), "--out", str(run), "--variant", "ours"]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert sorted(p.name for p in run.iterdir()) == ["episodes", "split.json"]
    return harness.episode_path(run, harness.load_split(run).train_tasks[0]), err


def test_train_refuses_episode_files_of_version_2(tiny_run, tmp_path, capsys):
    """A dataset written before episode files held palette indices fails
    before any output, naming the file and saying to rerun gen-data."""
    episodes, err = _train_on_rewritten_episodes(tiny_run, tmp_path, capsys, write_version_2_episode_file)
    assert err.startswith(f"deskicl train: error: {episodes}: ") and err.rstrip().endswith("; rerun gen-data")


def test_train_refuses_episode_files_of_version_3(tiny_run, tmp_path, capsys):
    """A dataset written while each episode stored its own palette fails
    before any output, naming the file and its version."""
    episodes, err = _train_on_rewritten_episodes(tiny_run, tmp_path, capsys, write_version_3_episode_file)
    assert err == f"deskicl train: error: {episodes}: episode file version '3', not 5; rerun gen-data\n"


@pytest.mark.parametrize("name, value", [("proprio", np.inf), ("actions", np.nan)])
def test_train_refuses_an_episode_with_a_non_finite_value(tiny_run, tmp_path, capsys, name, value):
    """An episode holding NaN or infinity fails train before any output,
    naming the file, the episode, the field and the step, where it would
    otherwise crash whichever step first sampled it."""

    def write(path, _):
        arrays, header = load_checkpoint(path)  # a Trajectory would refuse the value
        arrays[f"1.{name}"] = arrays[f"1.{name}"].copy()
        arrays[f"1.{name}"][2, 1] = value
        save_checkpoint(path, arrays, header)

    episodes, err = _train_on_rewritten_episodes(tiny_run, tmp_path, capsys, write)
    assert err.startswith(f"deskicl train: error: {episodes}: episode 1: inconsistent arrays: {name} of step 2 are not finite: [")
    assert f", {value}, " in err


def test_train_refuses_an_episode_with_traces_outside_the_unit_range(tiny_run, tmp_path, capsys):
    """Proprio outside [0, 1], which would give traces outside it, fails
    train before any output, naming the file, the episode and the step,
    where the first step that sampled it would train on those traces."""

    def write(path, _):
        arrays, header = load_checkpoint(path)  # a Trajectory would refuse the value
        arrays["1.proprio"] = arrays["1.proprio"].copy()
        arrays["1.proprio"][2, 1] = 1.5
        save_checkpoint(path, arrays, header)

    episodes, err = _train_on_rewritten_episodes(tiny_run, tmp_path, capsys, write)
    assert err.startswith(f"deskicl train: error: {episodes}: episode 1: inconsistent arrays: proprio of step 2 is outside [0, 1]: [")
    assert ", 1.5, " in err


def test_train_refuses_a_task_with_a_single_episode(tiny_run, tmp_path, capsys):
    """The only pick-place train task cut to one episode cannot make a
    sequence: train fails before any output naming the task, where it used
    to leave the task out and train on the poke tasks alone."""
    config, out = tiny_run
    (label,) = [lb for lb in harness.load_split(out).train_tasks if harness.task_by_label(config, lb).kind == "pick_place"]

    def write(path, episodes):
        if path.name == harness.episode_path(out, label).name:
            save_episodes(path, episodes[:1])

    _, err = _train_on_rewritten_episodes(tiny_run, tmp_path, capsys, write)
    assert err == f"deskicl train: error: task {label}: it has one episode, but a sequence needs a prompt demo and a target\n"


def test_train_refuses_an_empty_episode_file_of_a_training_task(tiny_run, tmp_path, capsys):
    """A training task's file holding no episodes fails train before any
    output, naming the file and the task, where train used to run on the
    other tasks alone."""
    label = harness.load_split(tiny_run[1]).train_tasks[0]

    def write(path, _):
        if path.name == f"{label}.episodes":
            save_episodes(path, [])

    episodes, err = _train_on_rewritten_episodes(tiny_run, tmp_path, capsys, write)
    assert err == f"deskicl train: error: {episodes}: holds no episodes of training task {label}; rerun gen-data\n"


def test_gen_data_that_fails_part_way_leaves_no_split(tiny_run, tmp_path, capsys, monkeypatch):
    """A gen-data that fails after it has rewritten some episode files
    deletes the old split, so train refuses the run instead of training on
    new and old files together."""
    config, out = tiny_run
    run = tmp_path / "run"
    for name in ("episodes", "split.json", "config.resolved.txt"):
        (shutil.copytree if (out / name).is_dir() else shutil.copy)(out / name, run / name)
    config_path = tmp_path / "config.txt"
    config_path.write_text(TINY_CONFIG_TEXT.replace("data.demos_per_task = 3", "data.demos_per_task = 4"))
    generate = harness.generate_task_episodes

    def fail_on_the_last_task(gen_config, task, *args):
        if task == task_list(gen_config)[-1]:
            raise HarnessError(f"task {task.label}: failed")
        return generate(gen_config, task, *args)

    monkeypatch.setattr(harness, "generate_task_episodes", fail_on_the_last_task)
    assert cli_main(["gen-data", "--config", str(config_path), "--out", str(run)]) == 1
    assert capsys.readouterr().err == f"deskicl gen-data: error: task {task_list(config)[-1].label}: failed\n"
    assert len(load_episodes(harness.episode_path(run, task_list(config)[0].label))) == 4
    assert not (run / "split.json").exists()
    assert cli_main(["train", "--config", str(config_path), "--out", str(run), "--variant", "ours"]) == 1
    err = capsys.readouterr().err
    assert err == f"deskicl train: error: missing split file {run / 'split.json'}; run gen-data first\n"
    assert not (run / "checkpoints").exists()


def test_eval_without_a_variant_does_no_work(tiny_run, tmp_path, capsys, monkeypatch):
    """`--variant ,` names no variant: eval fails before it records a prompt
    demo or resets a scene, and leaves the run as it was."""
    _, out = tiny_run
    run = tmp_path / "run"
    _copy_for_eval(out, run)
    shutil.copy(out / "config.resolved.txt", run)
    before = (run / "config.resolved.txt").read_bytes()
    config_path = tmp_path / "config.txt"
    config_path.write_text(TINY_CONFIG_TEXT)
    work = []
    for name in ("record_episode", "reset"):
        monkeypatch.setattr(harness, name, lambda *args, _f=getattr(harness, name), **kw: work.append(args) or _f(*args, **kw))
    assert cli_main(["eval", "--config", str(config_path), "--out", str(run), "--variant", ",", "--rollouts", "5"]) == 1
    err = capsys.readouterr().err
    assert "--variant: no variant given" in err and "Traceback" not in err
    assert work == []
    assert (run / "config.resolved.txt").read_bytes() == before
    assert not (run / "metrics").exists()


@pytest.mark.parametrize(
    "command, edit, message",
    [
        ("train", lambda split: {**split, "test": split["test"] + split["train"][:1]}, "split sides overlap: ['{train}']"),
        ("eval", lambda split: {**split, "test": split["test"] + ["nope"]}, "unknown task label 'nope'"),
        ("train", lambda split: {**split, "train": split["train"] + split["train"][:1]}, "the train side repeats ['{train}']"),
        ("eval", lambda split: {**split, "test": split["test"] + split["test"][:1]}, "the test side repeats ['{test}']"),
        ("eval", lambda split: {**split, "test": []}, "the test side names no task"),
        ("train", lambda split: {**split, "train": []}, "the train side names no task"),
    ],
    ids=["overlapping-sides", "unknown-test-label", "repeated-label-train", "repeated-label-eval", "empty-test-side", "empty-train-side"],
)
def test_a_bad_split_file_is_named_in_the_error(tiny_run, tmp_path, capsys, command, edit, message):
    """A split whose sides overlap, whose test side names a task the config
    does not have, or a side that repeats a label or names none, fails with
    the split file's path and no traceback, and writes no metrics."""
    _, out = tiny_run
    run = tmp_path / "run"
    _copy_for_eval(out, run)
    shutil.copytree(out / "episodes", run / "episodes")
    split = json.loads((run / "split.json").read_text())
    (run / "split.json").write_text(json.dumps(edit(split)))
    config_path = tmp_path / "config.txt"
    config_path.write_text(TINY_CONFIG_TEXT)
    assert cli_main([command, "--config", str(config_path), "--out", str(run), "--variant", "ours"]) == 1
    err = capsys.readouterr().err
    assert err == f"deskicl {command}: error: {run / 'split.json'}: {message.format(train=split['train'][0], test=split['test'][0])}\n"
    assert sorted(p.name for p in run.iterdir()) == ["checkpoints", "episodes", "split.json"]


def test_report_keeps_sweep_records_apart_from_eval(tiny_run, tmp_path):
    """A sweep re-runs the eval's p1 scenes at k=1: its rows are their own,
    and the summary counts only the eval's rollouts."""
    config, out = tiny_run
    run = tmp_path / "run"
    _copy_for_eval(out, run)
    evals = cmd_eval(config, run, ["ours"])
    cmd_sweep_interval(config, run, "ours", [1, 3])
    csv_path, summary_path = harness.cmd_report(run)
    rows = _parse_report(csv_path)
    n_tasks = len(harness.load_split(run).test_tasks)
    p1 = [r for r in rows if r["source"] == "eval" and r["prompt_config"] == "p1"]
    assert len(p1) == n_tasks and all(r["n"] == config.eval.rollouts_per_config for r in p1)
    assert sorted((r["k"], r["prompt_config"]) for r in rows if r["source"] == "sweep") == [(1, "p1")] * n_tasks + [(3, "p1")] * n_tasks
    assert sum(r["n"] for r in rows if r["source"] == "eval") == len(evals)
    [line] = [line for line in summary_path.read_text().splitlines() if line.startswith("  ours") and "rollouts" in line]
    assert line.endswith(f"over {len(evals)} rollouts") and "k=[1]" in line


# ---------------------------------------------------------------------------
# failure classification
# ---------------------------------------------------------------------------


def _result(score, states, traces, overflow=False):
    return RolloutResult(states, score, [np.zeros(4)] * 3, traces, overflow)


def _scene(objects, receptacles):
    return make_state([SceneEntity(c, p) for c, p in objects], [SceneEntity(c, p) for c, p in receptacles])


def test_classify_failure_cases():
    poke = TaskSpec("poke", 0)
    pp = TaskSpec("pick_place", 0, 0)
    state = _scene([(0, (0.2, 0.2)), (1, (0.8, 0.8))], [(0, (0.5, 0.8)), (1, (0.8, 0.2))])

    def trace_to(xy, step=0):
        uv = np.array([xy[0], 1.0 - xy[1]], dtype=np.float32)
        return [(step, np.concatenate([np.tile(uv, 4), uv]))]

    assert classify_failure(_result(1.0, [state], []), poke) == "none"
    assert classify_failure(_result(0.0, [state], [], overflow=True), poke) == "overflow"
    # trace pointing at the distractor object
    assert classify_failure(_result(0.0, [state], trace_to((0.8, 0.8))), poke) == "trace_error"
    # trace pointing at the target: execution failure classes by kind/phase
    assert classify_failure(_result(0.0, [state], trace_to((0.2, 0.2))), poke) == "poke_failure"
    # not picked yet: a pick-and-place trace ends over the target receptacle
    assert classify_failure(_result(0.0, [state], trace_to((0.5, 0.8))), pp) == "grasp_failure"
    assert classify_failure(_result(0.0, [state], trace_to((0.8, 0.2))), pp) == "trace_error"
    # picked already: endpoint near wrong receptacle vs correct one
    assert classify_failure(_result(0.5, [state], trace_to((0.8, 0.2))), pp) == "trace_error"
    assert classify_failure(_result(0.5, [state], trace_to((0.5, 0.8))), pp) == "placement_failure"
    # no traces decoded (dropout rollout): phase classes only
    assert classify_failure(_result(0.5, [state], []), pp) == "placement_failure"
    assert classify_failure(_result(0.0, [state], []), poke) == "poke_failure"
    # decoded at step 1: the entities are read from states[1], where the
    # last state has the two objects swapped
    swapped = _scene([(0, (0.8, 0.8)), (1, (0.2, 0.2))], [(0, (0.5, 0.8)), (1, (0.8, 0.2))])
    assert classify_failure(_result(0.0, [swapped, state, swapped], trace_to((0.2, 0.2), step=1)), poke) == "poke_failure"
    assert classify_failure(_result(0.0, [state, swapped, state], trace_to((0.2, 0.2), step=1)), poke) == "trace_error"


@pytest.mark.parametrize("kind", ["poke", "pick_place"])
def test_expert_traces_are_never_trace_errors(kind):
    """The expert's own trace at a step of its episode points where the
    episode ends, so a rollout that decoded it there and then failed is
    classed by how far it got: poke_failure, or grasp_failure before the
    pick and placement_failure after it."""
    config = parse_config(TINY_CONFIG_TEXT).model
    expected = {0.0: "poke_failure"} if kind == "poke" else {0.0: "grasp_failure", 0.5: "placement_failure"}
    for seed in range(6):
        task = TaskSpec(kind, seed % 3, (seed + 1) % 3 if kind == "pick_place" else None)
        n_obj = 1 + seed % 2  # and one distractor receptacle
        states = sim.expert_rollout(reset(task, n_obj, 1, seed), task)[0]
        traces = record_episode(config, task, n_obj, 1, seed).traces
        for score, failure in expected.items():
            steps = [t for t, s in enumerate(states) if sim.success(s, task) == score][:2]
            assert len(steps) == 2
            for t in steps:
                result = RolloutResult(states[: t + 1], score, [np.zeros(4)] * t, [(t, traces[t])])
                assert classify_failure(result, task) == failure, (seed, score, t)


def test_failure_none_iff_success():
    task = TaskSpec("poke", 0)
    state = _scene([(0, (0.3, 0.3))], [])
    for score in (0.0, 0.5):
        assert classify_failure(_result(score, [state], []), task) != "none"
    assert classify_failure(_result(1.0, [state], []), task) == "none"


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def _parse_report(path) -> list[dict]:
    """report.csv rows as dicts with typed numbers; checks the schema."""
    lines = Path(path).read_text().splitlines()
    assert lines, f"{path}: empty report"
    header = lines[0].split(",")
    assert header == harness.REPORT_HEADER, f"{path}: unexpected report schema {header}"
    out = []
    for line in lines[1:]:
        if not line:
            continue
        row = dict(zip(header, line.split(",")))
        row["mean_score"] = float(row["mean_score"])
        row["n"] = int(row["n"])
        row["k"] = int(row["k"])
        for cls in harness.FAILURE_CLASSES:
            row[f"fail_{cls}"] = int(row[f"fail_{cls}"])
        out.append(row)
    return out


def _record(variant="ours", task="poke_c2", pconf="p0", k=1, score=1.0, failure="none", idx=0):
    return EvalRecord(variant, 0, task, pconf, k, idx, score, 20, 20, failure)


def test_report_round_trip(tmp_path):
    records = [
        _record(idx=0),
        _record(idx=1, score=0.0, failure="trace_error"),
        _record(task="place_c2_r2", score=0.5, failure="placement_failure"),
        _record(variant="icrt", k=0, score=0.0, failure="poke_failure"),
    ]
    csv_path, summary_path = write_report({"eval": records}, tmp_path)
    rows = _parse_report(csv_path)
    assert len(rows) == 3
    by_key = {(r["variant"], r["task"], r["prompt_config"]): r for r in rows}
    ours_poke = by_key[("ours", "poke_c2", "p0")]
    assert ours_poke["n"] == 2 and abs(ours_poke["mean_score"] - 0.5) < 1e-9
    assert ours_poke["fail_trace_error"] == 1 and ours_poke["fail_none"] == 1
    assert summary_path.read_text().strip()


PINNED_REPORT_CSV = """\
source,variant,task,prompt_config,k,mean_score,n,fail_none,fail_trace_error,fail_grasp_failure,fail_placement_failure,fail_poke_failure,fail_overflow
eval,expert,place_c1_r1,p1,1,1.0000,1,1,0,0,0,0,0
eval,expert,poke_c2,p0,1,1.0000,1,1,0,0,0,0,0
eval,icrt,poke_c2,p0,0,0.0000,2,0,0,0,0,1,1
eval,icrt,poke_c2,p1,0,1.0000,1,1,0,0,0,0,0
eval,ours,place_c1_r1,p1,1,0.7500,2,1,0,0,1,0,0
eval,ours,place_c1_r1,pr,1,0.0000,1,0,0,1,0,0,0
eval,ours,poke_c2,p0,1,0.6667,3,2,1,0,0,0,0
eval,to,place_c1_r1,p0,8,0.5000,1,0,0,0,1,0,0
eval,to,poke_c2,p0,1,0.0000,1,0,1,0,0,0,0
sweep,ours,place_c1_r1,p1,1,0.5000,1,0,0,0,1,0,0
sweep,ours,poke_c2,p1,1,1.0000,1,1,0,0,0,0,0
sweep,ours,poke_c2,p1,4,0.5000,2,1,0,0,0,1,0
"""

PINNED_SUMMARY = """\
mean score per variant (all unseen tasks, all prompt configs)
  ours     k=[1] score 0.583 over 6 rollouts
  to       k=[1, 8] score 0.250 over 2 rollouts
  icrt     k=[0] score 0.333 over 3 rollouts
  expert   k=[1] score 1.000 over 2 rollouts

per-task means
  task                        ours        to      icrt    expert
  place_c1_r1                0.500     0.500         -     1.000
  poke_c2                    0.667     0.000     0.333     1.000

failure histogram (failed rollouts only)
  ours     trace_error 1/3, grasp_failure 1/3, placement_failure 1/3
  to       trace_error 1/2, placement_failure 1/2
  icrt     poke_failure 1/2, overflow 1/2
  expert   no failures
"""


def test_report_text_is_pinned(tmp_path):
    """report.csv and summary.txt of a fixed record set, to the byte: eval
    and sweep sources, an expert run, several k, a task that `icrt` lacks
    (its `-` cell) and a variant without failures."""
    evals = [
        _record(variant="icrt", k=0, score=0.0, failure="poke_failure"),
        _record(),
        _record(idx=1, score=0.0, failure="trace_error"),
        _record(idx=2),
        _record(task="place_c1_r1", pconf="p1", score=0.5, failure="placement_failure"),
        _record(task="place_c1_r1", pconf="p1", idx=1),
        _record(task="place_c1_r1", pconf="pr", score=0.0, failure="grasp_failure"),
        _record(variant="expert"),
        _record(variant="expert", task="place_c1_r1", pconf="p1"),
        _record(variant="icrt", k=0, idx=1, score=0.0, failure="overflow"),
        _record(variant="icrt", pconf="p1", k=0),
        _record(variant="to", score=0.0, failure="trace_error"),
        _record(variant="to", task="place_c1_r1", k=8, score=0.5, failure="placement_failure"),
    ]
    sweeps = [
        _record(pconf="p1"),
        _record(pconf="p1", k=4, score=0.0, failure="poke_failure"),
        _record(pconf="p1", k=4, idx=1),
        _record(task="place_c1_r1", pconf="p1", score=0.5, failure="placement_failure"),
    ]
    csv_path, summary_path = write_report({"eval": evals, "sweep": sweeps}, tmp_path)
    assert csv_path.read_text() == PINNED_REPORT_CSV
    assert summary_path.read_text() == PINNED_SUMMARY


@pytest.mark.parametrize(
    "name, value, named",
    [
        ("failure", "bogus", "failure = 'bogus', not one of ['none', 'trace_error'"),
        ("score", float("nan"), "score = nan, not in [0, 1]"),
        ("score", -0.5, "score = -0.5, not in [0, 1]"),
    ],
)
def test_load_metrics_refuses_records_the_report_cannot_count(tmp_path, name, value, named):
    """A failure class outside FAILURE_CLASSES or a score outside [0, 1]
    names the file, the record and the field."""
    path = tmp_path / "metrics" / "eval_ours_seed0.json"
    path.parent.mkdir()
    path.write_text(json.dumps([_record().to_dict(), {**_record().to_dict(), name: value}]))
    with pytest.raises(HarnessError, match=f"^{re.escape(f'{path}: record 1 has {named}')}"):
        load_metrics(tmp_path)


def test_report_empty_metrics_header_only(tmp_path):
    csv_path, _ = write_report({"eval": []}, tmp_path)
    content = csv_path.read_text().splitlines()
    assert len(content) == 1
    assert content[0].split(",")[:2] == ["source", "variant"]


def test_report_byte_stable(tmp_path):
    records = [_record(idx=i, score=float(i % 2)) for i in range(6)]
    a, _ = write_report({"eval": records}, tmp_path / "a" if (tmp_path / "a").mkdir() or True else tmp_path)
    b, _ = write_report({"eval": list(reversed(records))}, tmp_path / "b" if (tmp_path / "b").mkdir() or True else tmp_path)
    assert a.read_bytes() == b.read_bytes()


def test_failure_histogram_sums_to_failed_count(tmp_path):
    records = [
        _record(idx=0, score=0.0, failure="trace_error"),
        _record(idx=1, score=0.0, failure="poke_failure"),
        _record(idx=2),
    ]
    csv_path, _ = write_report({"eval": records}, tmp_path)
    row = _parse_report(csv_path)[0]
    failed = row["n"] - row["fail_none"]
    histogram_total = sum(row[f"fail_{c}"] for c in harness.FAILURE_CLASSES if c != "none")
    assert failed == 2 and histogram_total == failed


def test_aggregate_mean_of_means(tmp_path):
    """With equal cells, the mean of report.csv's cell means is the mean
    over all records."""
    records = []
    for task in ("poke_c2", "poke_c4"):
        for idx in range(4):
            records.append(_record(task=task, idx=idx, score=1.0 if task == "poke_c2" else 0.0))
    csv_path, _ = write_report({"eval": records}, tmp_path)
    rows = _parse_report(csv_path)
    overall = np.mean([r.score for r in records])
    per_task = np.mean([row["mean_score"] for row in rows])
    assert abs(overall - per_task) < 1e-12


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


def test_cli_gen_and_report_exit_codes(tmp_path, capsys):
    config_path = tmp_path / "config.txt"
    config_path.write_text("data.n_poke_tasks = 2\ndata.n_pick_place_tasks = 0\ndata.demos_per_task = 2\ndata.test_fraction = 0.5\n")
    out = tmp_path / "run"
    assert cli_main(["gen-data", "--config", str(config_path), "--out", str(out)]) == 0
    assert (out / "split.json").exists()
    # a malformed split file names the file
    split_text = (out / "split.json").read_text()
    for content in (
        '{"train": []}',
        "[1, 2]",
        "{not json",
        '{"train": [], "test": [], "seed": "0"}',
        '{"train": [1], "test": [], "seed": 0}',
    ):
        (out / "split.json").write_text(content)
        assert cli_main(["eval", "--config", str(config_path), "--out", str(out), "--variant", "expert"]) == 1
        assert "split.json" in capsys.readouterr().err
    (out / "split.json").write_text(split_text)
    # eval without checkpoints fails with a diagnostic exit code
    assert cli_main(["eval", "--config", str(config_path), "--out", str(out), "--variant", "ours"]) == 1
    assert "missing checkpoint" in capsys.readouterr().err
    # report on a run without metrics errors cleanly, before writing anything
    assert cli_main(["report", "--out", str(tmp_path / "nope")]) == 1
    assert capsys.readouterr().err == f"deskicl report: error: no eval or sweep records in {tmp_path / 'nope' / 'metrics'}; run eval first\n"
    assert cli_main(["report", "--out", str(out)]) == 1
    assert f"{out / 'metrics'}; run eval first" in capsys.readouterr().err
    assert not (out / "report.csv").exists() and not (out / "summary.txt").exists()
    # a corrupt checkpoint or episode file is a clean error, not a traceback
    ckpt = harness.checkpoint_path(out, "ours", 0)
    ckpt.parent.mkdir(parents=True)
    ckpt.write_bytes(b"not a checkpoint")
    assert cli_main(["eval", "--config", str(config_path), "--out", str(out), "--variant", "ours"]) == 1
    split = json.loads((out / "split.json").read_text())
    episodes = harness.episode_path(out, split["train"][0])
    blob = episodes.read_bytes()
    # cut in half, or with dims of 200000 x 200000 for episode 0's actions: the bytes left are
    # checked before any array is allocated
    dims_at = blob.index(struct.pack("<H", 9) + b"0.actions") + 2 + 9 + 2
    assert struct.unpack("<II", blob[dims_at:dims_at + 8]) == (len(load_episodes(episodes)[0]), 4)
    for corrupt in (blob[: len(blob) // 2], blob[:dims_at] + struct.pack("<II", 200000, 200000) + blob[dims_at + 8:]):
        episodes.write_bytes(corrupt)
        assert cli_main(["train", "--config", str(config_path), "--out", str(out), "--variant", "ours"]) == 1
        err = capsys.readouterr().err
        assert "truncated" in err and "Traceback" not in err
    # a version 1 (JSONL) episode file names the fix
    episodes.write_text('{"magic": "deskicl-episodes", "version": 1}\n{}\n')
    assert cli_main(["train", "--config", str(config_path), "--out", str(out), "--variant", "ours"]) == 1
    assert "rerun gen-data" in capsys.readouterr().err
    # an episode file where a model checkpoint belongs
    harness.checkpoint_path(out, "ours", 0).write_bytes(blob)
    assert cli_main(["eval", "--config", str(config_path), "--out", str(out), "--variant", "ours"]) == 1
    assert f"{harness.checkpoint_path(out, 'ours', 0)}: not a checkpoint of the config's model: d_model = none (config: 128)" in capsys.readouterr().err
    # a malformed metrics file names the file
    bad_metrics = tmp_path / "report_run" / "metrics" / "eval_x.json"
    bad_metrics.parent.mkdir(parents=True)
    good = _record().to_dict()
    for content in (
        '[{"variant": "ours"}]',
        '{"a": 1}',
        "[1]",
        json.dumps([{**good, "extra": 1}]),
        json.dumps([{**good, "score": "high"}]),
        "[{not json",
        json.dumps([good, {**good, "failure": "bogus"}]),
        json.dumps([good, {**good, "score": float("nan")}]),
    ):
        bad_metrics.write_text(content)
        assert cli_main(["report", "--out", str(tmp_path / "report_run")]) == 1
        assert str(bad_metrics) in capsys.readouterr().err
    bad_metrics.write_text(json.dumps([good]))
    assert cli_main(["report", "--out", str(tmp_path / "report_run")]) == 0


def test_readme_commands_parse():
    """Each `python -m deskicl.cli` line of README's "Running it" block is
    a command line the CLI accepts, and the block runs every command."""
    section = (Path(__file__).resolve().parent.parent / "README.md").read_text().split("\n## Running it\n", 1)[1]
    block = section.split("```", 2)[1]
    commands = [shlex.split(line.partition("python -m deskicl.cli")[2]) for line in block.splitlines() if "python -m deskicl.cli" in line]
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)
    assert [argv[0] for argv in commands] == ["gen-data", "train", "eval", "sweep-interval", "report"]


def test_cli_bad_config_exit_code(tmp_path, capsys, monkeypatch):
    bad = tmp_path / "bad.txt"
    bad.write_text("data.unknown_key = 3\n")
    assert cli_main(["gen-data", "--config", str(bad), "--out", str(tmp_path / "x")]) == 1
    for command in ("eval", "sweep-interval"):
        assert cli_main([command, "--out", str(tmp_path / "x"), "--variant", "expert", "--rollouts", "0"]) == 1
        assert "--rollouts: rollouts_per_config = 0 is not in [1, inf)" in capsys.readouterr().err
    # a scene that cannot be placed is a clean error, not a traceback; no
    # config reaches one, since the palette bounds on the data section bound the crowding
    small = tmp_path / "small.txt"
    small.write_text("data.n_poke_tasks = 2\ndata.n_pick_place_tasks = 0\ndata.demos_per_task = 2\n")

    def crowded(*args, **kwargs):
        raise SimError("could not place object class 0 for task poke_c0")

    monkeypatch.setattr(harness, "reset", crowded)
    assert cli_main(["gen-data", "--config", str(small), "--out", str(tmp_path / "y")]) == 1
    err = capsys.readouterr().err
    assert "could not place" in err and "Traceback" not in err


def test_cli_train_refuses_an_episode_file_of_another_task(tiny_run, tmp_path, capsys):
    """A held-out task's demos under a training task's name stop training
    before step 0, naming the file, the episode and both labels."""
    _, out = tiny_run
    run = tmp_path / "run"
    shutil.copytree(out / "episodes", run / "episodes")
    shutil.copy(out / "split.json", run)
    split = harness.load_split(run)
    train_label, test_label = split.train_tasks[0], split.test_tasks[0]
    shutil.copy(harness.episode_path(run, test_label), harness.episode_path(run, train_label))
    config_path = tmp_path / "config.txt"
    config_path.write_text(TINY_CONFIG_TEXT)
    assert cli_main(["train", "--config", str(config_path), "--out", str(run), "--variant", "ours"]) == 1
    err = capsys.readouterr().err
    path = harness.episode_path(run, train_label)
    assert f"{path}: episode 0 is a demo of {test_label}, not of {train_label}" in err and "Traceback" not in err
    assert not (run / "checkpoints").exists()


def test_cli_train_reports_a_diverging_run(tiny_run, tmp_path, capsys):
    """A step size that sends the loss to nan stops training with the
    step's diagnostic as a CLI error, writing no checkpoint and no loss log."""
    _, out = tiny_run
    run = tmp_path / "run"
    shutil.copytree(out / "episodes", run / "episodes")
    shutil.copy(out / "split.json", run)
    config_path = tmp_path / "config.txt"
    config_path.write_text(TINY_CONFIG_TEXT + "train.lr = 1e9\n")
    assert cli_main(["train", "--config", str(config_path), "--out", str(run), "--variant", "ours"]) == 1
    err = capsys.readouterr().err  # the one error line, with no numpy warning on the way to nan
    assert re.fullmatch(r"deskicl train: error: non-finite loss at step 1 \(task \w+, action nan, reasoning nan\); aborting\n", err), err
    assert not (run / "checkpoints").exists() and not list(run.glob("loss_*.csv"))


def test_eval_refuses_a_checkpoint_of_another_train_seed(tiny_run, tmp_path, capsys):
    """A seed-0 checkpoint copied under seed 3's name, or one whose header
    has no train seed, fails eval before any rollout, naming the file, the
    header's seed and the seed asked, where its records used to say seed 3."""
    _, out = tiny_run
    run = tmp_path / "run"
    _copy_for_eval(out, run)
    ckpt = harness.checkpoint_path(run, "icrt", 3)
    shutil.copy(harness.checkpoint_path(out, "icrt", 0), ckpt)
    config_path = tmp_path / "config.txt"
    config_path.write_text(TINY_CONFIG_TEXT)
    args = ["eval", "--config", str(config_path), "--out", str(run), "--variant", "icrt", "--seed", "3"]
    assert cli_main(args) == 1
    assert capsys.readouterr().err == f"deskicl eval: error: {ckpt}: not a checkpoint of train seed 3: its header has train_seed = 0\n"
    arrays, header = load_checkpoint(ckpt)
    save_checkpoint(ckpt, arrays, {k: v for k, v in header.items() if k != "train_seed"})
    assert cli_main(args) == 1
    assert capsys.readouterr().err == f"deskicl eval: error: {ckpt}: not a checkpoint of train seed 3: its header has train_seed = none\n"
    assert not (run / "metrics").exists()


def test_cli_seed_sets_train_seed(tiny_run, tmp_path):
    """`--seed` reaches train and eval through `train.seed` alone."""
    config, out = tiny_run
    run = tmp_path / "run"
    shutil.copytree(out / "episodes", run / "episodes")
    shutil.copy(out / "split.json", run)
    config_path = tmp_path / "config.txt"
    config_path.write_text(TINY_CONFIG_TEXT)
    common = ["--config", str(config_path), "--out", str(run), "--seed", "3", "--variant", "icrt"]
    assert cli_main(["train", *common]) == 0
    _, header = PolicyModel.load(harness.checkpoint_path(run, "icrt", 3), harness.variant_model_config(config, "icrt"))
    assert header["train_seed"] == "3"
    assert (run / "loss_icrt_seed3.csv").exists()
    assert cli_main(["eval", *common]) == 0
    records = json.loads((run / "metrics" / "eval_icrt_seed3.json").read_text())
    assert records and all(r["train_seed"] == 3 for r in records)

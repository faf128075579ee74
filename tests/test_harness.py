"""Config parsing, dataset generation, eval bookkeeping, failure taxonomy, reports."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from deskicl import harness
from deskicl.cli import main as cli_main
from deskicl.data import load_episodes
from deskicl.engine import RolloutResult
from deskicl.harness import (
    EvalRecord,
    HarnessConfig,
    HarnessError,
    aggregate,
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
    parse_report,
    prompt_configs,
    stratified_split,
    task_list,
    write_report,
)
from deskicl.sim import SceneEntity, SimParams, TaskSpec, make_state

TINY_CONFIG_TEXT = """
# tiny end-to-end configuration
data.n_poke_tasks = 3
data.n_pick_place_tasks = 2
data.demos_per_task = 3
data.test_fraction = 0.4
data.expert_noise = 0.0
model.d_model = 48
model.n_layers = 2
model.n_heads = 4
model.chunk_h = 4
train.steps = 10
train.log_interval = 5
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


def test_parse_rejects_unknown_keys():
    with pytest.raises(HarnessError, match="unknown key"):
        parse_config("train.stepz = 5\n")
    with pytest.raises(HarnessError, match="unknown section"):
        parse_config("nope.steps = 5\n")
    with pytest.raises(HarnessError, match="key = value"):
        parse_config("just words\n")


def test_config_cross_validation():
    with pytest.raises(HarnessError, match="resolutions"):
        parse_config("model.third_resolution = 16\n")
    with pytest.raises(HarnessError, match="rollouts_per_config"):
        parse_config("eval.rollouts_per_config = 0\n")


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


# ---------------------------------------------------------------------------
# gen-data and train
# ---------------------------------------------------------------------------


def test_gen_data_outputs(tiny_run):
    config, out = tiny_run
    files = sorted(harness.episodes_dir(out).glob("*.jsonl"))
    assert len(files) == 5
    episodes = load_episodes(files[0])
    assert len(episodes) == 3
    assert all(e.traces is not None for e in episodes)
    split = harness.load_split(out)
    train_labels = {e.task_label for lb in split.train_tasks for e in load_episodes(harness.episodes_dir(out) / f"{lb}.jsonl")}
    assert not train_labels & set(split.test_tasks)
    assert (out / "config.resolved.txt").exists()


def test_gen_data_regeneration_byte_identical(tmp_path):
    config = parse_config("data.n_poke_tasks = 2\ndata.n_pick_place_tasks = 0\ndata.demos_per_task = 2\ndata.test_fraction = 0.5\n")
    cmd_gen_data(config, tmp_path / "a")
    cmd_gen_data(config, tmp_path / "b")
    for name in ("poke_c0.jsonl", "poke_c1.jsonl"):
        assert (tmp_path / "a" / "episodes" / name).read_bytes() == (tmp_path / "b" / "episodes" / name).read_bytes()
    assert (tmp_path / "a" / "split.json").read_bytes() == (tmp_path / "b" / "split.json").read_bytes()


def test_train_outputs_and_icrt_reasoning_loss_zero(tiny_run):
    config, out = tiny_run
    log = (out / "loss_icrt_seed0.csv").read_text().splitlines()
    assert log[0] == "step,loss,l_action,l_reason"
    assert len(log) == 1 + 2  # 10 steps at log interval 5
    for line in log[1:]:
        assert float(line.split(",")[3]) == 0.0
    ours_log = (out / "loss_ours_seed0.csv").read_text().splitlines()
    assert all(float(line.split(",")[3]) > 0.0 for line in ours_log[1:])


def test_variant_checkpoints_share_init_shapes(tiny_run):
    config, out = tiny_run
    from deskicl.model import PolicyModel

    ours, header_a = PolicyModel.load(harness.checkpoint_path(out, "ours", 0))
    icrt, header_b = PolicyModel.load(harness.checkpoint_path(out, "icrt", 0))
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


def test_sweep_interval_rows_and_k1_consistency(tiny_run):
    config, out = tiny_run
    sweep = cmd_sweep_interval(config, out, "ours", [1, 4, 0])
    split = harness.load_split(out)
    rows = aggregate(sweep)
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


# ---------------------------------------------------------------------------
# failure classification
# ---------------------------------------------------------------------------


def _result(score, states, traces, overflow=False):
    return RolloutResult(
        score=score,
        steps_used=3,
        overflow=overflow,
        states=states,
        executed_actions=np.zeros((3, 4)),
        predicted_traces=traces,
    )


def _scene(env, objects, receptacles):
    return make_state(env, [SceneEntity(c, p, env.object_radius) for c, p in objects],
                      [SceneEntity(c, p, env.receptacle_radius) for c, p in receptacles])


def test_classify_failure_cases():
    env = SimParams()
    poke = TaskSpec("poke", 0)
    pp = TaskSpec("pick_place", 0, 0)
    state = _scene(env, [(0, (0.2, 0.2)), (1, (0.8, 0.8))], [(0, (0.5, 0.8)), (1, (0.8, 0.2))])

    def trace_to(xy):
        uv = np.array([xy[0], 1.0 - xy[1]], dtype=np.float32)
        return [(0, np.concatenate([np.tile(uv, 4), uv]))]

    assert classify_failure(_result(1.0, [state], []), env, poke) == "none"
    assert classify_failure(_result(0.0, [state], [], overflow=True), env, poke) == "overflow"
    # trace pointing at the distractor object
    assert classify_failure(_result(0.0, [state], trace_to((0.8, 0.8))), env, poke) == "trace_error"
    # trace pointing at the target: execution failure classes by kind/phase
    assert classify_failure(_result(0.0, [state], trace_to((0.2, 0.2))), env, poke) == "poke_failure"
    assert classify_failure(_result(0.0, [state], trace_to((0.2, 0.2))), env, pp) == "grasp_failure"
    # picked already: endpoint near wrong receptacle vs correct one
    assert classify_failure(_result(0.5, [state], trace_to((0.8, 0.2))), env, pp) == "trace_error"
    assert classify_failure(_result(0.5, [state], trace_to((0.5, 0.8))), env, pp) == "placement_failure"
    # no traces decoded (dropout rollout): phase classes only
    assert classify_failure(_result(0.5, [state], []), env, pp) == "placement_failure"
    assert classify_failure(_result(0.0, [state], []), env, poke) == "poke_failure"


def test_failure_none_iff_success():
    env = SimParams()
    task = TaskSpec("poke", 0)
    state = _scene(env, [(0, (0.3, 0.3))], [])
    for score in (0.0, 0.5):
        assert classify_failure(_result(score, [state], []), env, task) != "none"
    assert classify_failure(_result(1.0, [state], []), env, task) == "none"


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def _record(variant="ours", task="poke_c2", pconf="p0", k=1, score=1.0, failure="none", idx=0):
    return EvalRecord(variant, 0, task, pconf, k, idx, score, 20, 20, failure)


def test_report_round_trip(tmp_path):
    records = [
        _record(idx=0),
        _record(idx=1, score=0.0, failure="trace_error"),
        _record(task="place_c2_r2", score=0.5, failure="placement_failure"),
        _record(variant="icrt", k=0, score=0.0, failure="poke_failure"),
    ]
    csv_path, summary_path = write_report(records, tmp_path)
    rows = parse_report(csv_path)
    assert len(rows) == 3
    by_key = {(r["variant"], r["task"], r["prompt_config"]): r for r in rows}
    ours_poke = by_key[("ours", "poke_c2", "p0")]
    assert ours_poke["n"] == 2 and abs(ours_poke["mean_score"] - 0.5) < 1e-9
    assert ours_poke["fail_trace_error"] == 1 and ours_poke["fail_none"] == 1
    assert summary_path.read_text().strip()


def test_report_empty_metrics_header_only(tmp_path):
    csv_path, _ = write_report([], tmp_path)
    content = csv_path.read_text().splitlines()
    assert len(content) == 1
    assert content[0].split(",")[0] == "variant"


def test_report_byte_stable(tmp_path):
    records = [_record(idx=i, score=float(i % 2)) for i in range(6)]
    a, _ = write_report(records, tmp_path / "a" if (tmp_path / "a").mkdir() or True else tmp_path)
    b, _ = write_report(list(reversed(records)), tmp_path / "b" if (tmp_path / "b").mkdir() or True else tmp_path)
    assert a.read_bytes() == b.read_bytes()


def test_failure_histogram_sums_to_failed_count(tmp_path):
    records = [
        _record(idx=0, score=0.0, failure="trace_error"),
        _record(idx=1, score=0.0, failure="poke_failure"),
        _record(idx=2),
    ]
    csv_path, _ = write_report(records, tmp_path)
    row = parse_report(csv_path)[0]
    failed = row["n"] - row["fail_none"]
    histogram_total = sum(row[f"fail_{c}"] for c in harness.FAILURE_CLASSES if c != "none")
    assert failed == 2 and histogram_total == failed


def test_aggregate_mean_of_means():
    records = []
    for task in ("poke_c2", "poke_c4"):
        for idx in range(4):
            records.append(_record(task=task, idx=idx, score=1.0 if task == "poke_c2" else 0.0))
    rows = aggregate(records)
    overall = np.mean([r.score for r in records])
    per_task = np.mean([row.mean_score for row in rows])
    assert abs(overall - per_task) < 1e-12


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


def test_cli_gen_and_report_exit_codes(tmp_path):
    config_path = tmp_path / "config.txt"
    config_path.write_text("data.n_poke_tasks = 2\ndata.n_pick_place_tasks = 0\ndata.demos_per_task = 2\ndata.test_fraction = 0.5\n")
    out = tmp_path / "run"
    assert cli_main(["gen-data", "--config", str(config_path), "--out", str(out)]) == 0
    assert (out / "split.json").exists()
    # eval without checkpoints fails with a diagnostic exit code
    assert cli_main(["eval", "--config", str(config_path), "--out", str(out), "--variant", "ours"]) == 1
    # report on empty metrics dir errors cleanly
    assert cli_main(["report", "--out", str(tmp_path / "nope")]) == 1
    # a corrupt checkpoint or episode file is a clean error, not a traceback
    ckpt = harness.checkpoint_path(out, "ours", 0)
    ckpt.parent.mkdir(parents=True)
    ckpt.write_bytes(b"not a checkpoint")
    assert cli_main(["eval", "--config", str(config_path), "--out", str(out), "--variant", "ours"]) == 1
    split = json.loads((out / "split.json").read_text())
    (out / "episodes" / f"{split['train'][0]}.jsonl").write_text('{"magic": "deskicl-episodes", "version": 1}\n{}\n')
    assert cli_main(["train", "--config", str(config_path), "--out", str(out), "--variant", "ours"]) == 1


def test_cli_bad_config_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("data.unknown_key = 3\n")
    assert cli_main(["gen-data", "--config", str(bad), "--out", str(tmp_path / "x")]) == 1
    assert cli_main(["eval", "--out", str(tmp_path / "x"), "--variant", "expert", "--rollouts", "0"]) == 1
    assert "rollouts_per_config" in capsys.readouterr().err

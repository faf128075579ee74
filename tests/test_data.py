"""Split specs, sequence assembly, chunk labels, and episode file round trips."""

from __future__ import annotations

import re
from dataclasses import replace

import numpy as np
import pytest

from conftest import toy_trajectory, write_version_2_episode_file, write_version_3_episode_file, write_version_4_episode_file
from deskicl import sim
from deskicl.checkpoint import load_checkpoint, save_checkpoint
from deskicl.data import (
    EpisodeIOError,
    SplitSpec,
    Trajectory,
    build_sequence,
    load_episodes,
    save_episodes,
)
from deskicl.harness import record_episode
from deskicl.model import ModelConfig, PolicyModel, sequence_loss


# ---------------------------------------------------------------------------
# splits
# ---------------------------------------------------------------------------


def test_split_spec_rejects_overlap():
    with pytest.raises(ValueError):
        SplitSpec(("a", "b"), ("b",), seed=0)


# ---------------------------------------------------------------------------
# chunk labels
# ---------------------------------------------------------------------------


def chunk_labels(actions: np.ndarray, t: int, horizon: int) -> tuple[np.ndarray, np.ndarray]:
    """Next `horizon` actions from step t; past-end slots repeat the final
    action and are flagged invalid so the loss skips them. The one-step
    reference for `build_sequence`'s chunk rows."""
    length = len(actions)
    if not 0 <= t < length:
        raise ValueError(f"step {t} outside episode of length {length}")
    if horizon < 1:
        raise ValueError("chunk horizon must be at least 1")
    idx = np.minimum(np.arange(t, t + horizon), length - 1)
    labels = actions[idx]
    valid = np.arange(t, t + horizon) < length
    return labels, valid


def test_chunk_labels_padding_rule():
    actions = np.arange(40, dtype=np.float32).reshape(10, 4)
    labels, valid = chunk_labels(actions, 8, 4)
    assert np.array_equal(labels, actions[[8, 9, 9, 9]])
    assert valid.tolist() == [True, True, False, False]


def test_chunk_labels_single_step():
    actions = np.zeros((5, 4), dtype=np.float32)
    labels, valid = chunk_labels(actions, 2, 1)
    assert labels.shape == (1, 4) and valid.tolist() == [True]


def test_chunk_labels_all_valid_from_start():
    actions = np.zeros((9, 4), dtype=np.float32)
    _, valid = chunk_labels(actions, 0, 9)
    assert valid.all()


def test_chunk_labels_consistency_property():
    rng = np.random.default_rng(0)
    actions = rng.normal(size=(17, 4)).astype(np.float32)
    for t in range(17):
        labels, valid = chunk_labels(actions, t, 6)
        for j in range(6):
            if valid[j]:
                assert np.array_equal(labels[j], actions[t + j])
            else:
                assert np.array_equal(labels[j], actions[-1])


# ---------------------------------------------------------------------------
# training sequences
# ---------------------------------------------------------------------------


def _subset(lengths, label="poke_c1"):
    return [toy_trajectory(label, length=n, seed=10 + i) for i, n in enumerate(lengths)]


def test_build_sequence_counts_and_masks():
    seq = build_sequence(_subset([5, 7]), 1, np.random.default_rng(0), chunk_h=4)
    assert seq.n_steps == 12
    target_len = len(seq.episodes[-1])
    assert {5, 7} == {len(e) for e in seq.episodes}
    assert seq.n_target == target_len
    # inputs for every step, labels and the input mask for the target's only
    assert seq.traces.shape == (12, 10) and seq.actions.shape == (12, 4)
    assert seq.reasoning_input_mask.shape == (target_len,)
    assert seq.chunk_actions.shape == (target_len, 4, 4) and seq.chunk_valid.shape == (target_len, 4)


def test_build_sequence_needs_target():
    with pytest.raises(ValueError):
        build_sequence(_subset([5, 7]), 2, np.random.default_rng(0), chunk_h=8)


def test_build_sequence_rejects_mixed_labels():
    trajs = _subset([5, 6]) + _subset([6], label="poke_c2")
    with pytest.raises(ValueError, match="mixed"):
        build_sequence(trajs, 1, np.random.default_rng(0), chunk_h=8)


def test_build_sequence_masks_a_drawn_share_of_the_target():
    """After picking its episodes, the sequence draws a ratio u and masks
    floor(u * n) of the n target steps, checked against a replica of its
    generator."""
    counts = []
    for seed in range(8):
        seq = build_sequence(_subset([4, 10]), 1, np.random.default_rng(seed), chunk_h=8)
        replica = np.random.default_rng(seed)
        replica.choice(2, size=2, replace=False)  # the prompt and the target
        target_len = len(seq.episodes[-1])
        assert seq.reasoning_input_mask.shape == (target_len,)
        counts.append(int(seq.reasoning_input_mask.sum()))
        assert counts[-1] == np.floor(replica.uniform() * target_len)
    assert 0 < max(counts)


def test_build_sequence_chunk_rows_match_episodes():
    for chunk_h in (3, 10):  # 10 is longer than every episode
        rng = np.random.default_rng(4)
        seq = build_sequence(_subset([6, 5, 8]), 2, rng, chunk_h=chunk_h)
        target = seq.episodes[-1]
        assert seq.chunk_actions.dtype == np.float32
        assert seq.chunk_actions.shape == (len(target), chunk_h, 4) and seq.chunk_valid.shape == (len(target), chunk_h)
        for t in range(len(target)):
            labels, valid = chunk_labels(target.actions, t, chunk_h)
            assert np.array_equal(seq.chunk_actions[t], labels)
            assert np.array_equal(seq.chunk_valid[t], valid)


def test_build_sequence_deterministic_given_rng_state():
    a = build_sequence(_subset([5, 6, 7]), 2, np.random.default_rng(9), chunk_h=8)
    b = build_sequence(_subset([5, 6, 7]), 2, np.random.default_rng(9), chunk_h=8)
    assert [len(e) for e in a.episodes] == [len(e) for e in b.episodes]
    assert np.array_equal(a.reasoning_input_mask, b.reasoning_input_mask)
    assert np.array_equal(a.traces, b.traces)


# ---------------------------------------------------------------------------
# episode files
# ---------------------------------------------------------------------------


def _saved_container(path, trajs):
    """Save `trajs` as an episode file; return its raw arrays and header."""
    save_episodes(path, trajs)
    return load_checkpoint(path)


def test_episode_round_trip_bit_identical(tmp_path):
    trajs = [toy_trajectory("poke_c3", 5, seed=1), toy_trajectory("poke_c3", 7, seed=2)]
    path = tmp_path / "poke_c3.episodes"
    save_episodes(path, trajs)
    loaded = load_episodes(path)
    assert len(loaded) == 2
    for orig, back in zip(trajs, loaded):
        assert back.task_label == orig.task_label
        for name, dtype in (("third", np.uint8), ("wrist", np.uint8), ("proprio", np.float32), ("actions", np.float32)):
            assert getattr(back, name).dtype == dtype
            assert np.array_equal(getattr(back, name), getattr(orig, name))
        assert back.traces.dtype == np.float32 and np.array_equal(back.traces, orig.traces)
    assert sorted(tmp_path.iterdir()) == [path]
    # the file stores what was recorded: the traces are computed on loading
    assert sorted(load_checkpoint(path)[0]) == sorted(f"{i}.{name}" for i in (0, 1) for name in ("third", "wrist", "proprio", "actions"))


def test_trajectory_refuses_traces_outside_the_unit_range():
    """A trace outside [0, 1] comes only from proprio outside it, which the
    simulator's clamp never gives: the Trajectory refuses that proprio,
    naming the step."""
    good = toy_trajectory("poke_c0", 5, seed=4)
    for value in (1.5, -0.25):
        proprio = good.proprio.copy()
        proprio[3, 1] = value
        with pytest.raises(ValueError, match=rf"^proprio of step 3 is outside \[0, 1\]: \[.*, {value}, "):
            replace(good, proprio=proprio)
    bounds = replace(good, proprio=good.proprio.round())  # the bounds themselves are in range
    assert set(bounds.proprio.ravel().tolist()) == {0.0, 1.0}
    assert bounds.traces.min() == 0.0 and bounds.traces.max() == 1.0


def test_episode_file_empty_dataset(tmp_path):
    path = tmp_path / "empty.episodes"
    save_episodes(path, [])
    assert load_episodes(path) == []


def test_episode_file_version_mismatch(tmp_path):
    path = tmp_path / "bad.episodes"
    arrays, header = _saved_container(path, [toy_trajectory("poke_c0", 4, seed=0)])
    for key, value in (("magic", "other"), ("version", "99")):
        save_checkpoint(path, arrays, {**header, key: value})
        with pytest.raises(EpisodeIOError, match=value):
            load_episodes(path)
    # a version 1 file: a JSON header line, then base64 JSONL records
    path.write_text('{"magic": "deskicl-episodes", "version": 1}\n{"task_label": "poke_c0", "arrays": {}}\n')
    with pytest.raises(EpisodeIOError, match="bad magic, not a checkpoint file; rerun gen-data$"):
        load_episodes(path)
    # a model checkpoint is a container without the episode magic
    save_checkpoint(path, {"w": np.ones(3, dtype=np.float32)}, {"d_model": "32"})
    with pytest.raises(EpisodeIOError, match="not an episode file"):
        load_episodes(path)


def test_episode_file_truncated_payload(tmp_path):
    path = tmp_path / "trunc.episodes"
    save_episodes(path, [toy_trajectory("poke_c0", 4, seed=0)])
    blob = path.read_bytes()
    for cut in (0, 5, 12, 40, len(blob) // 2, len(blob) - 1):
        path.write_bytes(blob[:cut])
        with pytest.raises(EpisodeIOError, match="truncated"):
            load_episodes(path)


def test_episode_file_shape_inconsistency(tmp_path):
    path = tmp_path / "shape.episodes"
    arrays, header = _saved_container(path, [toy_trajectory("poke_c0", 4, seed=0)])
    # proprio claims 3 steps while the other arrays have 4
    save_checkpoint(path, {**arrays, "0.proprio": np.zeros((3, 4), dtype=np.float32)}, header)
    with pytest.raises(EpisodeIOError, match="inconsistent arrays"):
        load_episodes(path)


def test_episode_file_garbage_record(tmp_path):
    path = tmp_path / "garbage.episodes"
    arrays, header = _saved_container(path, [toy_trajectory("poke_c0", 4, seed=0)])
    without_proprio = {k: v for k, v in arrays.items() if k != "0.proprio"}
    without_label = {k: v for k, v in header.items() if k != "0.task_label"}
    cases = [
        (without_proprio, header, "lacks arrays"),
        (arrays, {**header, "count": "one"}, "malformed episode header"),
        (arrays, {k: v for k, v in header.items() if k != "count"}, "malformed episode header"),
        (arrays, without_label, "malformed episode header"),
        ({**arrays, "1.proprio": arrays["0.proprio"]}, header, "belong to no episode"),
    ]
    for case_arrays, case_header, cause in cases:
        save_checkpoint(path, case_arrays, case_header)
        with pytest.raises(EpisodeIOError, match=cause):
            load_episodes(path)
    path.write_bytes(b"not a container at all")
    with pytest.raises(EpisodeIOError, match="bad magic"):
        load_episodes(path)


def test_trajectory_validation():
    with pytest.raises(ValueError):
        toy_trajectory(label="", length=4)
    with pytest.raises(ValueError):
        toy_trajectory(length=1)
    good = toy_trajectory(length=4)
    with pytest.raises(ValueError):
        Trajectory(
            task_label="x",
            third=good.third,
            wrist=good.wrist,
            proprio=good.proprio[:3],
            actions=good.actions,
        )


def test_episode_file_of_an_earlier_version_says_to_rerun_gen_data(tmp_path):
    path = tmp_path / "poke_c0.episodes"
    episodes = [toy_trajectory("poke_c0", 4, seed=0)]
    write_version_2_episode_file(path, episodes)
    with pytest.raises(EpisodeIOError, match=f"^{re.escape(str(path))}: .*version 1.*; rerun gen-data$"):
        load_episodes(path)
    # version 3 stored a palette beside each episode
    write_version_3_episode_file(path, episodes)
    assert "0.palette" in load_checkpoint(path)[0]
    with pytest.raises(EpisodeIOError, match=f"^{re.escape(str(path))}: episode file version '3', not 5; rerun gen-data$"):
        load_episodes(path)
    # version 4 stored each episode's traces
    write_version_4_episode_file(path, episodes)
    assert "0.traces" in load_checkpoint(path)[0]
    with pytest.raises(EpisodeIOError, match=f"^{re.escape(str(path))}: episode file version '4', not 5; rerun gen-data$"):
        load_episodes(path)


def _bad_arrays(arrays):
    """(what is wrong, the arrays of episode 1 that show it): views that are
    not square uint8 indices, indices past sim.PALETTE, and proprio or
    actions of another shape or dtype."""
    third, wrist = arrays["1.third"], arrays["1.wrist"]
    proprio, actions = arrays["1.proprio"], arrays["1.actions"]
    top = len(sim.PALETTE)
    return [
        ("third view is float32", {"1.third": sim.PALETTE[third]}),
        ("wrist view is float32", {"1.wrist": wrist.astype(np.float32)}),
        ("wrist view is uint8 (4, 8, 8, 1)", {"1.wrist": wrist[..., None]}),
        ("third view is uint8 (4, 16, 8)", {"1.third": third[:, :, :8]}),
        (f"third view holds index {top}, past sim.PALETTE's {top} colours", {"1.third": np.where(third == 0, top, third).astype(np.uint8)}),
        (f"wrist view holds index 255, past sim.PALETTE's {top} colours", {"1.wrist": np.where(wrist == 0, 255, wrist).astype(np.uint8)}),
        ("proprio is float32 (4, 3)", {"1.proprio": proprio[:, :3]}),
        ("proprio is uint8 (4, 4)", {"1.proprio": proprio.astype(np.uint8)}),
        ("actions is float32 (16,)", {"1.actions": actions.ravel()}),
        ("actions is float32 (4, 4, 1)", {"1.actions": actions[..., None]}),
    ]


def test_episode_file_rejects_bad_views_and_palettes(tmp_path):
    """Each fault is a named error that gives the file and the episode, not
    an IndexError or a ShapeError at the first training step."""
    path = tmp_path / "poke_c0.episodes"
    arrays, header = _saved_container(path, [toy_trajectory("poke_c0", 4, seed=s) for s in (0, 1)])
    for fault, changed in _bad_arrays(arrays):
        save_checkpoint(path, {**arrays, **changed}, header)
        with pytest.raises(EpisodeIOError, match=f"^{re.escape(str(path))}: episode 1: inconsistent arrays: .*{re.escape(fault)}"):
            load_episodes(path)
    save_checkpoint(path, arrays, header)
    assert len(load_episodes(path)) == 2


def test_gathered_views_of_recorded_episodes_are_what_the_policy_observes():
    """The views of recorded episodes, as a training sequence gathers them,
    equal `sim.observe` of the same states, bit for bit, on both views, in
    episode order."""
    model = ModelConfig(third_resolution=24, wrist_resolution=8)
    task = sim.TaskSpec("pick_place", 2, 1)
    episodes, observed = [], []
    for n_obj, n_rec, seed in [(2, 1, 5), (3, 0, 6)]:
        episodes.append(record_episode(model, task, n_obj, n_rec, seed))
        observed.append(sim.observe(sim.expert_rollout(sim.reset(task, n_obj, n_rec, seed), task)[0], 24, 8))
    seq = build_sequence(episodes, 1, np.random.default_rng(0), chunk_h=4)
    order = [[id(e) for e in episodes].index(id(ep)) for ep in seq.episodes]
    assert seq.third.dtype == seq.wrist.dtype == np.uint8
    assert seq.third.tobytes() == np.concatenate([observed[i][0] for i in order]).tobytes()
    assert seq.wrist.tobytes() == np.concatenate([observed[i][1] for i in order]).tobytes()
    assert all(ep.proprio.tobytes() == o[2].tobytes() for ep, o in zip(episodes, observed))


def test_sequences_from_loaded_episodes_equal_in_memory_ones(tmp_path):
    """A training sequence built from episodes loaded back from their file is
    the one built from the episodes in memory, and so is its loss."""
    config = ModelConfig(d_model=32, n_layers=2, n_heads=2, third_resolution=16, wrist_resolution=8, max_context=512, chunk_h=4)
    task = sim.TaskSpec("poke", 1)
    episodes = [record_episode(config, task, seed % 3, 0, seed, noisy=True) for seed in range(4)]
    path = tmp_path / "poke_c1.episodes"
    save_episodes(path, episodes)
    loaded = load_episodes(path)
    model = PolicyModel.init(config, seed=3)
    a, b = (build_sequence(eps, 2, np.random.default_rng(11), chunk_h=4) for eps in (episodes, loaded))
    for name in ("third", "wrist", "proprio", "actions", "traces", "reasoning_input_mask", "chunk_actions", "chunk_valid"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes(), name
    assert a.third.dtype == np.uint8 and a.third.shape == (a.n_steps, 16, 16)
    (loss_a, *parts_a), (loss_b, *parts_b) = sequence_loss(model, a), sequence_loss(model, b)
    assert loss_a.data.tobytes() == loss_b.data.tobytes() and parts_a == parts_b

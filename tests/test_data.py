"""Splits, sequence assembly, chunk labels, and episode file round trips."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import toy_trajectory
from deskicl.checkpoint import load_checkpoint, save_checkpoint
from deskicl.data import (
    ShapeMismatchError,
    SplitSpec,
    Trajectory,
    TruncatedFileError,
    VersionMismatchError,
    build_sequence,
    chunk_labels,
    load_episodes,
    save_episodes,
    split_tasks,
)
from deskicl.traces import augment_dataset


# ---------------------------------------------------------------------------
# splits
# ---------------------------------------------------------------------------


def test_split_seven_three():
    labels = [f"task{i}" for i in range(10)]
    spec = split_tasks(labels, 0.3, seed=0)
    assert len(spec.train_tasks) == 7 and len(spec.test_tasks) == 3
    assert set(spec.train_tasks) | set(spec.test_tasks) == set(labels)


def test_split_two_labels_half():
    spec = split_tasks(["a", "b"], 0.5, seed=1)
    assert len(spec.train_tasks) == 1 and len(spec.test_tasks) == 1


def test_split_deterministic():
    labels = [f"t{i}" for i in range(9)]
    assert split_tasks(labels, 0.33, seed=5) == split_tasks(labels, 0.33, seed=5)
    assert split_tasks(labels, 0.33, seed=5) != split_tasks(labels, 0.33, seed=6)


def test_split_rejects_empty_side():
    with pytest.raises(ValueError):
        split_tasks([f"t{i}" for i in range(4)], 0.05, seed=0)
    with pytest.raises(ValueError):
        split_tasks(["a"], 0.5, seed=0)
    with pytest.raises(ValueError):
        split_tasks(["a", "b"], 1.5, seed=0)


def test_split_spec_rejects_overlap():
    with pytest.raises(ValueError):
        SplitSpec(("a", "b"), ("b",), seed=0)


# ---------------------------------------------------------------------------
# chunk labels
# ---------------------------------------------------------------------------


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
    trajs = [toy_trajectory(label, length=n, seed=10 + i) for i, n in enumerate(lengths)]
    return augment_dataset(trajs)


def test_build_sequence_counts_and_masks():
    seq = build_sequence(_subset([5, 7]), 1, np.random.default_rng(0), chunk_h=4)
    assert seq.n_steps == 12
    target_len = seq.episode_lengths[-1]
    assert {5, 7} == set(seq.episode_lengths)
    # one reasoning plus one action prediction per target step
    assert int(seq.step_is_target.sum()) * 2 == 2 * target_len
    assert not seq.step_is_target[: seq.n_steps - target_len].any()
    assert not seq.reasoning_input_mask[: seq.n_steps - target_len].any()


def test_build_sequence_needs_target():
    with pytest.raises(ValueError):
        build_sequence(_subset([5, 7]), 2, np.random.default_rng(0))


def test_build_sequence_rejects_mixed_labels():
    trajs = _subset([5, 6]) + _subset([6], label="poke_c2")
    with pytest.raises(ValueError, match="mixed"):
        build_sequence(trajs, 1, np.random.default_rng(0))


def test_build_sequence_requires_traces():
    bare = [toy_trajectory(length=5, seed=1), toy_trajectory(length=5, seed=2)]
    with pytest.raises(ValueError, match="trace"):
        build_sequence(bare, 1, np.random.default_rng(0))


def test_build_sequence_mask_ratio_control():
    seq = build_sequence(_subset([4, 10]), 1, np.random.default_rng(3), mask_ratio=0.5)
    target_len = seq.episode_lengths[-1]
    assert int(seq.reasoning_input_mask.sum()) == target_len // 2
    assert not seq.reasoning_input_mask[~seq.step_is_target].any()


def test_build_sequence_chunk_rows_match_episodes():
    rng = np.random.default_rng(4)
    seq = build_sequence(_subset([6, 5, 8]), 2, rng, chunk_h=3)
    offset = 0
    for episode in seq.episodes:
        for t in range(len(episode)):
            labels, valid = chunk_labels(episode.actions, t, 3)
            assert np.array_equal(seq.chunk_actions[offset + t], labels)
            assert np.array_equal(seq.chunk_valid[offset + t], valid)
        offset += len(episode)


def test_build_sequence_deterministic_given_rng_state():
    a = build_sequence(_subset([5, 6, 7]), 2, np.random.default_rng(9))
    b = build_sequence(_subset([5, 6, 7]), 2, np.random.default_rng(9))
    assert a.episode_lengths == b.episode_lengths
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
    plain = toy_trajectory("poke_c3", 6, seed=3)
    trajs = augment_dataset([toy_trajectory("poke_c3", 5, seed=1), toy_trajectory("poke_c3", 7, seed=2)]) + [plain]
    assert plain.traces is None
    path = tmp_path / "poke_c3.episodes"
    save_episodes(path, trajs)
    loaded = load_episodes(path)
    assert len(loaded) == 3
    for orig, back in zip(trajs, loaded):
        assert back.task_label == orig.task_label
        for name in ("third", "wrist", "proprio", "actions"):
            assert getattr(back, name).dtype == np.float32
            assert np.array_equal(getattr(back, name), getattr(orig, name))
        if orig.traces is None:
            assert back.traces is None
        else:
            assert back.traces.dtype == np.float32 and np.array_equal(back.traces, orig.traces)
    assert sorted(tmp_path.iterdir()) == [path]


def test_episode_file_empty_dataset(tmp_path):
    path = tmp_path / "empty.episodes"
    save_episodes(path, [])
    assert load_episodes(path) == []


def test_episode_file_version_mismatch(tmp_path):
    path = tmp_path / "bad.episodes"
    arrays, header = _saved_container(path, augment_dataset([toy_trajectory("poke_c0", 4, seed=0)]))
    for key, value in (("magic", "other"), ("version", "99")):
        save_checkpoint(path, arrays, {**header, key: value})
        with pytest.raises(VersionMismatchError, match=value):
            load_episodes(path)
    # a version 1 file: a JSON header line, then base64 JSONL records
    path.write_text('{"magic": "deskicl-episodes", "version": 1}\n{"task_label": "poke_c0", "arrays": {}}\n')
    with pytest.raises(VersionMismatchError, match="gen-data"):
        load_episodes(path)
    # a model checkpoint is a container without the episode magic
    save_checkpoint(path, {"w": np.ones(3, dtype=np.float32)}, {"d_model": "32"})
    with pytest.raises(VersionMismatchError, match="not an episode file"):
        load_episodes(path)


def test_episode_file_truncated_payload(tmp_path):
    path = tmp_path / "trunc.episodes"
    save_episodes(path, augment_dataset([toy_trajectory("poke_c0", 4, seed=0)]))
    blob = path.read_bytes()
    for cut in (0, 5, 12, 40, len(blob) // 2, len(blob) - 1):
        path.write_bytes(blob[:cut])
        with pytest.raises(TruncatedFileError):
            load_episodes(path)


def test_episode_file_shape_inconsistency(tmp_path):
    path = tmp_path / "shape.episodes"
    arrays, header = _saved_container(path, augment_dataset([toy_trajectory("poke_c0", 4, seed=0)]))
    # proprio claims 3 steps while the other arrays have 4
    save_checkpoint(path, {**arrays, "0.proprio": np.zeros((3, 4), dtype=np.float32)}, header)
    with pytest.raises(ShapeMismatchError):
        load_episodes(path)


def test_episode_file_garbage_record(tmp_path):
    path = tmp_path / "garbage.episodes"
    arrays, header = _saved_container(path, augment_dataset([toy_trajectory("poke_c0", 4, seed=0)]))
    without_proprio = {k: v for k, v in arrays.items() if k != "0.proprio"}
    without_label = {k: v for k, v in header.items() if k != "0.task_label"}
    cases = [
        (without_proprio, header),
        (arrays, {**header, "count": "one"}),
        (arrays, {k: v for k, v in header.items() if k != "count"}),
        (arrays, without_label),
        ({**arrays, "1.proprio": arrays["0.proprio"]}, header),
    ]
    for case_arrays, case_header in cases:
        save_checkpoint(path, case_arrays, case_header)
        with pytest.raises(TruncatedFileError):
            load_episodes(path)
    path.write_bytes(b"not a container at all")
    with pytest.raises(TruncatedFileError):
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

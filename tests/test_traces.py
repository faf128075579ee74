"""Trace index formula, projection anchoring, and mask sampling."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from conftest import line_trajectory, record_episode, toy_trajectory
from deskicl.sim import CameraModel, SimParams, TaskSpec, project_to_pixel
from deskicl.traces import augment_dataset, generate_trace, sample_mask, trace_indices, trace_matrix


def test_indices_quarters():
    assert trace_indices(9, 0) == (0, 2, 4, 6, 8)


def test_indices_round_half_up_case():
    assert trace_indices(9, 5) == (5, 6, 7, 7, 8)


def test_indices_degenerate_terminal():
    assert trace_indices(9, 8) == (8, 8, 8, 8, 8)


def test_indices_validation():
    with pytest.raises(ValueError):
        trace_indices(0, 0)
    with pytest.raises(ValueError):
        trace_indices(5, 5)
    with pytest.raises(ValueError):
        trace_indices(5, -1)


def test_indices_monotone_and_anchored():
    for length in range(2, 31):
        for t in range(length):
            idx = trace_indices(length, t)
            assert len(idx) == 5
            assert idx[0] == t and idx[-1] == length - 1
            assert all(b >= a for a, b in zip(idx, idx[1:]))


def test_trace_points_anchor_current_and_terminal():
    traj = toy_trajectory(length=11, seed=3)
    cam = CameraModel("third", traj.third.shape[1], 1.0)
    for t in (0, 4, 10):
        trace = generate_trace(traj, t)
        assert trace.points.shape == (5, 2)
        u0, v0 = project_to_pixel(traj.proprio[t, :2], cam)
        ul, vl = project_to_pixel(traj.proprio[-1, :2], cam)
        g = cam.resolution
        assert abs(trace.points[0, 0] - u0 / g) < 1e-6
        assert abs(trace.points[0, 1] - v0 / g) < 1e-6
        assert abs(trace.points[-1, 0] - ul / g) < 1e-6
        assert abs(trace.points[-1, 1] - vl / g) < 1e-6
        assert np.all(trace.points >= 0.0) and np.all(trace.points <= 1.0)


def test_degenerate_trace_five_identical_points():
    traj = toy_trajectory(length=7, seed=5)
    trace = generate_trace(traj, 6)
    assert np.all(trace.points == trace.points[0])


def test_straight_line_trace_collinear():
    traj = line_trajectory(length=9)
    trace = generate_trace(traj, 0)
    p = trace.points.astype(np.float64)
    d = p[-1] - p[0]
    for point in p[1:-1]:
        cross = (point[0] - p[0, 0]) * d[1] - (point[1] - p[0, 1]) * d[0]
        assert abs(cross) < 1e-6


def test_augment_counts_and_recomputation():
    trajs = [toy_trajectory(length=9, seed=1), toy_trajectory(length=4, seed=2)]
    augmented = augment_dataset(trajs)
    assert trajs[0].traces is None  # inputs untouched
    for orig, aug in zip(trajs, augmented):
        assert aug.traces.shape == (len(orig), 10)
        assert np.array_equal(aug.traces, trace_matrix(orig))
        assert np.array_equal(aug.proprio, orig.proprio)
    # last trace of an episode is degenerate
    last = augmented[0].traces[-1].reshape(5, 2)
    assert np.all(last == last[0])


@pytest.mark.parametrize("kind", ["expert", "length_1"])
def test_trace_matrix_rows_equal_generate_trace_bitwise(kind):
    if kind == "expert":
        traj = record_episode(SimParams(), TaskSpec("pick_place", 2, 1), 2, 1, seed=41, noise=0.004)
    else:  # a Trajectory holds at least 2 steps; the trace tooling reads only these two arrays
        rng = np.random.default_rng(8)
        traj = SimpleNamespace(proprio=rng.uniform(0, 1, (1, 4)).astype(np.float32), third=np.zeros((1, 16, 16, 3), np.float32))
    matrix = trace_matrix(traj)
    assert matrix.dtype == np.float32 and matrix.shape == (len(traj.proprio), 10)
    for t, row in enumerate(matrix):
        assert row.tobytes() == generate_trace(traj, t).flat().tobytes()


def test_augment_idempotent():
    trajs = [toy_trajectory(length=6, seed=7)]
    once = augment_dataset(trajs)
    twice = augment_dataset(once)
    assert np.array_equal(once[0].traces, twice[0].traces)


def test_mask_forced_ratios():
    rng = np.random.default_rng(0)
    none = sample_mask(12, rng, ratio=0.0)
    assert none.shape == (12,) and none.dtype == bool and not none.any()
    assert sample_mask(12, rng, ratio=1.0).all()
    mask = sample_mask(7, rng, ratio=0.5)
    assert mask.shape == (7,) and mask.sum() == 3
    assert all(0 <= p < 7 for p in np.flatnonzero(mask))


def test_mask_bool_view():
    flags = sample_mask(10, np.random.default_rng(1), ratio=0.3)
    drawn = np.random.default_rng(1).choice(10, size=3, replace=False)
    assert flags.shape == (10,) and flags.dtype == bool
    assert flags.sum() == 3
    assert set(np.nonzero(flags)[0]) == set(drawn)


def test_mask_distribution_mean():
    rng = np.random.default_rng(123)
    n = 100
    samples = 100_000
    total = 0
    for _ in range(samples):
        total += int(sample_mask(n, rng).sum())
    mean_fraction = total / (samples * n)
    assert 0.47 <= mean_fraction <= 0.53


def test_mask_empty_target_segment():
    rng = np.random.default_rng(2)
    mask = sample_mask(0, rng)
    assert mask.shape == (0,) and mask.dtype == bool
    with pytest.raises(ValueError):
        sample_mask(-1, rng)

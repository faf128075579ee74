"""Trace index formula, projection anchoring, and mask sampling.

`trace_indices` and `generate_trace` here are the one-step-at-a-time
reference that `traces.trace_matrix` must equal bit for bit.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from conftest import line_trajectory, toy_trajectory
from deskicl.harness import record_episode
from deskicl.model import ModelConfig
from deskicl.sim import TaskSpec, third_view_uv
from deskicl.traces import TRACE_DIM, TRACE_POINTS, sample_mask, trace_matrix


def trace_indices(length: int, t: int) -> tuple[int, ...]:
    """Five step indices from t to the terminal step, evenly spaced."""
    if length <= 0:
        raise ValueError("empty trajectory")
    if not 0 <= t <= length - 1:
        raise ValueError(f"step {t} outside episode of length {length}")
    horizon = (length - 1) - t
    return tuple(t + int(np.floor(j * horizon / 4.0 + 0.5)) for j in range(TRACE_POINTS))


def generate_trace(trajectory, t: int) -> np.ndarray:
    """The (10,) float32 trace for step t of a trajectory (needs .proprio),
    one step at a time: the reference for `trace_matrix`."""
    indices = trace_indices(len(trajectory.proprio), t)
    return third_view_uv(trajectory.proprio[list(indices), :2]).astype(np.float32).reshape(TRACE_DIM)


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
    for t in (0, 4, 10):
        trace = generate_trace(traj, t)
        assert trace.shape == (10,) and trace.dtype == np.float32
        points = trace.reshape(5, 2)
        u0, v0 = third_view_uv(traj.proprio[t, :2])
        ul, vl = third_view_uv(traj.proprio[-1, :2])
        assert abs(points[0, 0] - u0) < 1e-6
        assert abs(points[0, 1] - v0) < 1e-6
        assert abs(points[-1, 0] - ul) < 1e-6
        assert abs(points[-1, 1] - vl) < 1e-6
        assert np.all(points >= 0.0) and np.all(points <= 1.0)


def test_degenerate_trace_five_identical_points():
    traj = toy_trajectory(length=7, seed=5)
    points = generate_trace(traj, 6).reshape(5, 2)
    assert np.all(points == points[0])


def test_straight_line_trace_collinear():
    traj = line_trajectory(length=9)
    p = generate_trace(traj, 0).reshape(5, 2).astype(np.float64)
    d = p[-1] - p[0]
    for point in p[1:-1]:
        cross = (point[0] - p[0, 0]) * d[1] - (point[1] - p[0, 1]) * d[0]
        assert abs(cross) < 1e-6


def test_traces_are_the_trace_matrix_of_the_proprio():
    """A Trajectory's traces are computed from its proprio, once."""
    for traj in (toy_trajectory(length=9, seed=1), toy_trajectory(length=4, seed=2)):
        assert traj.traces.dtype == np.float32 and traj.traces.shape == (len(traj), TRACE_DIM)
        assert np.array_equal(traj.traces, trace_matrix(traj))
        assert traj.traces is traj.traces


@pytest.mark.parametrize("kind", ["expert", "length_1"])
def test_trace_matrix_rows_equal_generate_trace_bitwise(kind):
    if kind == "expert":
        traj = record_episode(ModelConfig(), TaskSpec("pick_place", 2, 1), 2, 1, seed=41, noisy=True)
    else:  # a Trajectory holds at least 2 steps; the trace tooling reads only its proprio
        rng = np.random.default_rng(8)
        traj = SimpleNamespace(proprio=rng.uniform(0, 1, (1, 4)).astype(np.float32))
    matrix = trace_matrix(traj)
    assert matrix.dtype == np.float32 and matrix.shape == (len(traj.proprio), 10)
    for t, row in enumerate(matrix):
        assert row.tobytes() == generate_trace(traj, t).tobytes()


def _replica_mask(n: int, seed: int) -> np.ndarray:
    """The mask `sample_mask(n, default_rng(seed))` must draw: a ratio u,
    then floor(u * n) positions, from a replica of its generator."""
    replica = np.random.default_rng(seed)
    n_masked = int(np.floor(replica.uniform() * n))
    mask = np.zeros(n, dtype=bool)
    if n_masked:
        mask[replica.choice(n, size=n_masked, replace=False)] = True
    return mask


def test_mask_count_is_the_floor_of_the_drawn_ratio():
    counts = set()
    for seed in range(40):
        for n in (1, 7, 12):
            mask = sample_mask(n, np.random.default_rng(seed))
            assert mask.shape == (n,) and mask.dtype == bool
            assert mask.sum() == np.floor(np.random.default_rng(seed).uniform() * n)
            counts.add((n, int(mask.sum())))
    # the seeds reach every count floor(u * 12) can take: 0 to 11, as u < 1
    assert {c for n, c in counts if n == 12} == set(range(12))


def test_mask_bool_view():
    for seed in range(10):
        flags = sample_mask(10, np.random.default_rng(seed))
        assert flags.shape == (10,) and flags.dtype == bool
        assert np.array_equal(flags, _replica_mask(10, seed))


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

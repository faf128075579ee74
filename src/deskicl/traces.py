"""Future-path traces and the random masking used to regularize them.

A trace summarizes where the gripper is headed: five third-view image
positions sampled evenly between the current step and the end of the
episode (both endpoints included), in normalised image coordinates
(`sim.third_view_uv`, [0, 1] at any resolution) and flattened to 10 floats
(u0, v0, ..., u4, v4). Ties in the even sampling round half up.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .sim import third_view_uv

TRACE_POINTS = 5
TRACE_DIM = 2 * TRACE_POINTS


def trace_matrix(trajectory) -> np.ndarray:
    """Traces for every step, stacked to (T, 10) float32.

    Row t samples steps t + floor(j * (T-1-t) / 4 + 0.5), j = 0..4, and
    projects their gripper positions with float64 operations; the tests
    check every row against a one-step-at-a-time reference, bit for bit.
    """
    length = len(trajectory.proprio)
    if length <= 0:
        raise ValueError("empty trajectory")
    t = np.arange(length)
    horizon = (length - 1) - t
    indices = t[:, None] + np.floor(np.arange(TRACE_POINTS) * horizon[:, None] / 4.0 + 0.5).astype(np.int64)
    xy = trajectory.proprio[indices, :2]  # (T, 5, 2)
    return third_view_uv(xy).astype(np.float32).reshape(length, TRACE_DIM)


def augment_dataset(trajectories: list) -> list:
    """Attach a per-step trace matrix to every trajectory.

    Existing traces are recomputed, so augmenting twice equals augmenting
    once. Returns new Trajectory values; inputs are untouched.
    """
    return [replace(traj, traces=trace_matrix(traj)) for traj in trajectories]


def sample_mask(n_target_steps: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform-ratio random mask over target steps, as an (n_target_steps,)
    bool array that is true at the masked steps.

    It draws a ratio u from Uniform[0, 1) and then masks floor(u *
    n_target_steps) positions, drawn uniformly without replacement, both
    from `rng`.
    """
    if n_target_steps < 0:
        raise ValueError("negative target step count")
    n_masked = int(np.floor(float(rng.uniform()) * n_target_steps))
    mask = np.zeros(n_target_steps, dtype=bool)
    if n_masked:
        mask[rng.choice(n_target_steps, size=n_masked, replace=False)] = True
    return mask

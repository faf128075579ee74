"""Future-path traces and the random masking used to regularize them.

A trace summarizes where the gripper is headed: five third-view pixel
positions sampled evenly between the current step and the end of the
episode (both endpoints included), normalized to [0, 1] by the image
resolution and flattened to 10 floats. Ties in the even sampling round
half up.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .sim import CameraModel, project_to_pixel

TRACE_POINTS = 5
TRACE_DIM = 2 * TRACE_POINTS


@dataclass(frozen=True)
class ReasoningTrace:
    points: np.ndarray  # (5, 2) normalized (u, v) in [0, 1]

    def flat(self) -> np.ndarray:
        return self.points.reshape(-1)


def trace_indices(length: int, t: int) -> tuple[int, ...]:
    """Five step indices from t to the terminal step, evenly spaced."""
    if length <= 0:
        raise ValueError("empty trajectory")
    if not 0 <= t <= length - 1:
        raise ValueError(f"step {t} outside episode of length {length}")
    horizon = (length - 1) - t
    return tuple(t + int(np.floor(j * horizon / 4.0 + 0.5)) for j in range(TRACE_POINTS))


def generate_trace(trajectory, t: int) -> ReasoningTrace:
    """Trace for step t of a trajectory (needs .proprio and .third)."""
    length = len(trajectory.proprio)
    indices = trace_indices(length, t)
    resolution = trajectory.third.shape[1]
    camera = CameraModel("third", resolution, 1.0)
    pts = np.empty((TRACE_POINTS, 2), dtype=np.float32)
    for row, idx in enumerate(indices):
        u, v = project_to_pixel(trajectory.proprio[idx, :2], camera)
        pts[row, 0] = u / resolution
        pts[row, 1] = v / resolution
    return ReasoningTrace(points=pts)


def trace_matrix(trajectory) -> np.ndarray:
    """Traces for every step, stacked to (T, 10) float32.

    Row t equals `generate_trace(trajectory, t).flat()` bit for bit: the
    indices and the projection use the same float64 operations, for all
    steps at once.
    """
    length = len(trajectory.proprio)
    if length <= 0:
        raise ValueError("empty trajectory")
    resolution = trajectory.third.shape[1]
    t = np.arange(length)
    horizon = (length - 1) - t
    indices = t[:, None] + np.floor(np.arange(TRACE_POINTS) * horizon[:, None] / 4.0 + 0.5).astype(np.int64)
    xy = trajectory.proprio[indices, :2].astype(np.float64)  # (T, 5, 2)
    u = xy[..., 0] * resolution
    v = (1.0 - xy[..., 1]) * resolution
    return np.stack([u / resolution, v / resolution], axis=-1).astype(np.float32).reshape(length, TRACE_DIM)


def augment_dataset(trajectories: list) -> list:
    """Attach a per-step trace matrix to every trajectory.

    Existing traces are recomputed, so augmenting twice equals augmenting
    once. Returns new Trajectory values; inputs are untouched.
    """
    return [replace(traj, traces=trace_matrix(traj)) for traj in trajectories]


def sample_mask(n_target_steps: int, rng: np.random.Generator, ratio: float | None = None) -> np.ndarray:
    """Uniform-ratio random mask over target steps, as an (n_target_steps,)
    bool array that is true at the masked steps.

    `ratio` defaults to a Uniform[0, 1] draw; passing it explicitly pins the
    masked fraction (used by tests and by variant configs). The number of
    masked positions is floor(ratio * n_target_steps), drawn uniformly
    without replacement.
    """
    if n_target_steps < 0:
        raise ValueError("negative target step count")
    if ratio is None:
        ratio = float(rng.uniform())
    if not 0.0 <= ratio <= 1.0:
        raise ValueError(f"mask ratio {ratio} outside [0, 1]")
    n_masked = int(np.floor(ratio * n_target_steps))
    mask = np.zeros(n_target_steps, dtype=bool)
    if n_masked:
        mask[rng.choice(n_target_steps, size=n_masked, replace=False)] = True
    return mask

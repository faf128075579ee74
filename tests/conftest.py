"""Shared test helpers: toy episode builders and small trained fixtures."""

from __future__ import annotations

import numpy as np
import pytest

from deskicl import harness
from deskicl.data import Trajectory
from deskicl.traces import augment_dataset


def record_episode(model, task, n_distractor_objects, n_distractor_receptacles, seed, noisy=False):
    """Expert episode with renders at the model config's cameras and traces,
    as gen-data records it (raises a HarnessError if the expert fails)."""
    return augment_dataset([harness.record_episode(model, task, n_distractor_objects, n_distractor_receptacles, seed, noisy)])[0]


def toy_trajectory(label: str = "poke_c0", length: int = 6, g: int = 16, c: int = 8, seed: int = 0) -> Trajectory:
    """Random-content episode with valid shapes (not a physical rollout)."""
    rng = np.random.default_rng(seed)
    proprio = rng.uniform(0.0, 1.0, size=(length, 4)).astype(np.float32)
    return Trajectory(
        task_label=label,
        third=rng.uniform(0, 1, size=(length, g, g, 3)).astype(np.float32),
        wrist=rng.uniform(0, 1, size=(length, c, c, 3)).astype(np.float32),
        proprio=proprio,
        actions=rng.uniform(-0.05, 0.05, size=(length, 4)).astype(np.float32),
    )


def line_trajectory(label: str = "poke_c0", length: int = 9, g: int = 16, c: int = 8) -> Trajectory:
    """Gripper moves on a straight line; images are blank."""
    t = np.linspace(0.0, 1.0, length, dtype=np.float32)
    proprio = np.stack(
        [0.1 + 0.8 * t, 0.2 + 0.6 * t, np.full(length, 0.5, np.float32), np.full(length, 0.9, np.float32)],
        axis=1,
    )
    return Trajectory(
        task_label=label,
        third=np.zeros((length, g, g, 3), np.float32),
        wrist=np.zeros((length, c, c, 3), np.float32),
        proprio=proprio,
        actions=np.zeros((length, 4), np.float32),
    )

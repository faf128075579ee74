"""Shared test helpers: toy episode builders and small trained fixtures."""

from __future__ import annotations

import struct

import numpy as np
import pytest

from deskicl import harness
from deskicl.data import Trajectory
from deskicl.traces import augment_dataset


def record_episode(model, task, n_distractor_objects, n_distractor_receptacles, seed, noisy=False):
    """Expert episode with renders at the model config's cameras and traces,
    as gen-data records it (raises a HarnessError if the expert fails)."""
    return augment_dataset([harness.record_episode(model, task, n_distractor_objects, n_distractor_receptacles, seed, noisy)])[0]


def toy_trajectory(label: str = "poke_c0", length: int = 6, g: int = 16, c: int = 8, seed: int = 0, colors: int = 5) -> Trajectory:
    """Random-content episode with valid shapes (not a physical rollout): its
    views index a random palette of `colors` colours."""
    rng = np.random.default_rng(seed)
    proprio = rng.uniform(0.0, 1.0, size=(length, 4)).astype(np.float32)
    return Trajectory(
        task_label=label,
        third=rng.integers(0, colors, size=(length, g, g), dtype=np.uint8),
        wrist=rng.integers(0, colors, size=(length, c, c), dtype=np.uint8),
        palette=rng.uniform(0, 1, size=(colors, 3)).astype(np.float32),
        proprio=proprio,
        actions=rng.uniform(-0.05, 0.05, size=(length, 4)).astype(np.float32),
    )


def line_trajectory(label: str = "poke_c0", length: int = 9, g: int = 16, c: int = 8) -> Trajectory:
    """Gripper moves on a straight line; images are blank (one black colour)."""
    t = np.linspace(0.0, 1.0, length, dtype=np.float32)
    proprio = np.stack(
        [0.1 + 0.8 * t, 0.2 + 0.6 * t, np.full(length, 0.5, np.float32), np.full(length, 0.9, np.float32)],
        axis=1,
    )
    return Trajectory(
        task_label=label,
        third=np.zeros((length, g, g), np.uint8),
        wrist=np.zeros((length, c, c), np.uint8),
        palette=np.zeros((1, 3), np.float32),
        proprio=proprio,
        actions=np.zeros((length, 4), np.float32),
    )


def write_version_2_episode_file(path, episodes: list[Trajectory]) -> None:
    """Write `episodes` as version 2 stored them: float32 colours, in a
    version 1 container, whose arrays carried no dtype code."""
    header = {"magic": "deskicl-episodes", "version": "2", "count": str(len(episodes))}
    arrays = {}
    for i, ep in enumerate(episodes):
        header[f"{i}.task_label"] = ep.task_label
        arrays[f"{i}.third"], arrays[f"{i}.wrist"] = ep.palette[ep.third], ep.palette[ep.wrist]
        arrays.update({f"{i}.{name}": getattr(ep, name) for name in ("proprio", "actions", "traces") if getattr(ep, name) is not None})
    text = "".join(f"{k}={v}\n" for k, v in sorted(header.items())).encode()
    blob = [b"DESKCKPT", struct.pack("<II", 1, len(text)), text, struct.pack("<I", len(arrays))]
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name], dtype="<f4")
        blob += [struct.pack(f"<H{len(name)}sB{arr.ndim}I", len(name), name.encode(), arr.ndim, *arr.shape), arr.tobytes()]
    path.write_bytes(b"".join(blob))

"""Shared test helpers: toy episode builders and small trained fixtures."""

from __future__ import annotations

import struct

import numpy as np
import pytest

from deskicl import sim
from deskicl.checkpoint import save_checkpoint
from deskicl.data import Trajectory


def toy_trajectory(label: str = "poke_c0", length: int = 6, g: int = 16, c: int = 8, seed: int = 0) -> Trajectory:
    """Random-content episode with valid shapes (not a physical rollout): its
    views are random indices into sim.PALETTE."""
    rng = np.random.default_rng(seed)
    proprio = rng.uniform(0.0, 1.0, size=(length, 4)).astype(np.float32)
    return Trajectory(
        task_label=label,
        third=rng.integers(0, len(sim.PALETTE), size=(length, g, g), dtype=np.uint8),
        wrist=rng.integers(0, len(sim.PALETTE), size=(length, c, c), dtype=np.uint8),
        proprio=proprio,
        actions=rng.uniform(-0.05, 0.05, size=(length, 4)).astype(np.float32),
    )


def line_trajectory(label: str = "poke_c0", length: int = 9, g: int = 16, c: int = 8) -> Trajectory:
    """Gripper moves on a straight line; images are blank (background only)."""
    t = np.linspace(0.0, 1.0, length, dtype=np.float32)
    proprio = np.stack(
        [0.1 + 0.8 * t, 0.2 + 0.6 * t, np.full(length, 0.5, np.float32), np.full(length, 0.9, np.float32)],
        axis=1,
    )
    return Trajectory(
        task_label=label,
        third=np.zeros((length, g, g), np.uint8),
        wrist=np.zeros((length, c, c), np.uint8),
        proprio=proprio,
        actions=np.zeros((length, 4), np.float32),
    )


def write_version_1_container(path, arrays: dict[str, np.ndarray], header: dict[str, str]) -> None:
    """Write a version 1 checkpoint container, whose arrays were float32 and
    carried no dtype code."""
    text = "".join(f"{k}={v}\n" for k, v in sorted(header.items())).encode()
    blob = [b"DESKCKPT", struct.pack("<II", 1, len(text)), text, struct.pack("<I", len(arrays))]
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name], dtype="<f4")
        blob += [struct.pack(f"<H{len(name)}sB{arr.ndim}I", len(name), name.encode(), arr.ndim, *arr.shape), arr.tobytes()]
    path.write_bytes(b"".join(blob))


def _episode_arrays(episodes: list[Trajectory], version: int) -> tuple[dict[str, np.ndarray], dict[str, str]]:
    header = {"magic": "deskicl-episodes", "version": str(version), "count": str(len(episodes))}
    arrays = {}
    for i, ep in enumerate(episodes):
        header[f"{i}.task_label"] = ep.task_label
        arrays.update({f"{i}.{name}": getattr(ep, name) for name in ("third", "wrist", "proprio", "actions", "traces")})
    return arrays, header


def write_version_2_episode_file(path, episodes: list[Trajectory]) -> None:
    """Write `episodes` as version 2 stored them: float32 colours, in a
    version 1 container."""
    arrays, header = _episode_arrays(episodes, 2)
    for i, ep in enumerate(episodes):
        arrays[f"{i}.third"], arrays[f"{i}.wrist"] = sim.PALETTE[ep.third], sim.PALETTE[ep.wrist]
    write_version_1_container(path, arrays, header)


def write_version_3_episode_file(path, episodes: list[Trajectory]) -> None:
    """Write `episodes` as version 3 stored them: palette indices, with the
    palette stored beside each episode as `<i>.palette`."""
    arrays, header = _episode_arrays(episodes, 3)
    arrays.update({f"{i}.palette": sim.PALETTE for i in range(len(episodes))})
    save_checkpoint(path, arrays, header)


def write_version_4_episode_file(path, episodes: list[Trajectory]) -> None:
    """Write `episodes` as version 4 stored them: palette indices, with each
    episode's traces stored as `<i>.traces`."""
    save_checkpoint(path, *_episode_arrays(episodes, 4))

"""Episode containers, task-disjoint splits, training sequences, and episode files.

Episodes are stored columnar: one array per modality with the step count as
the leading dimension. An episode file is a `checkpoint.py` container: its
header holds `magic`, `version`, the episode `count` and `<i>.task_label`,
and episode i's arrays are named `<i>.<field>`, for the fields it has (an
episode without traces has no `<i>.traces`). Round trips are bit-exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import traces as traces_mod
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint

FILE_MAGIC = "deskicl-episodes"
FILE_VERSION = 2
_V1_PREFIX = b'{"magic": "deskicl-episodes"'  # how version 1 (JSONL) files begin
ARRAY_FIELDS = ("third", "wrist", "proprio", "actions", "traces")


class EpisodeIOError(RuntimeError):
    pass


class VersionMismatchError(EpisodeIOError):
    pass


class TruncatedFileError(EpisodeIOError):
    pass


class ShapeMismatchError(EpisodeIOError):
    pass


@dataclass(frozen=True)
class Trajectory:
    """One episode: per-step renders, proprioception, actions, optional traces."""

    task_label: str
    third: np.ndarray  # (T, G, G, 3) float32
    wrist: np.ndarray  # (T, C, C, 3) float32
    proprio: np.ndarray  # (T, 4) float32
    actions: np.ndarray  # (T, 4) float32
    traces: np.ndarray | None = None  # (T, 10) float32

    def __post_init__(self):
        if not self.task_label:
            raise ValueError("trajectory needs a nonempty task label")
        t = len(self.proprio)
        if t < 2:
            raise ValueError(f"trajectory too short ({t} steps)")
        lengths = {len(self.third), len(self.wrist), len(self.proprio), len(self.actions)}
        if self.traces is not None:
            lengths.add(len(self.traces))
        if lengths != {t}:
            raise ValueError(f"per-step arrays disagree on length: {sorted(lengths)}")

    def __len__(self) -> int:
        return len(self.proprio)


@dataclass(frozen=True)
class SplitSpec:
    train_tasks: tuple[str, ...]
    test_tasks: tuple[str, ...]
    seed: int

    def __post_init__(self):
        overlap = set(self.train_tasks) & set(self.test_tasks)
        if overlap:
            raise ValueError(f"split sides overlap: {sorted(overlap)}")


def split_tasks(task_labels, test_fraction: float, seed: int) -> SplitSpec:
    """Seeded shuffle then split; both sides must end up nonempty."""
    labels = sorted(set(task_labels))
    if len(labels) < 2:
        raise ValueError("need at least two task labels to split")
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test fraction {test_fraction} outside (0, 1)")
    n_test = int(np.floor(test_fraction * len(labels) + 0.5))
    if n_test == 0 or n_test == len(labels):
        raise ValueError(f"test fraction {test_fraction} would empty one side for {len(labels)} tasks")
    order = np.random.default_rng(seed).permutation(len(labels))
    shuffled = [labels[i] for i in order]
    return SplitSpec(train_tasks=tuple(shuffled[n_test:]), test_tasks=tuple(shuffled[:n_test]), seed=seed)


def chunk_labels(actions: np.ndarray, t: int, horizon: int) -> tuple[np.ndarray, np.ndarray]:
    """Next `horizon` actions from step t; past-end slots repeat the final
    action and are flagged invalid so the loss skips them."""
    length = len(actions)
    if not 0 <= t < length:
        raise ValueError(f"step {t} outside episode of length {length}")
    if horizon < 1:
        raise ValueError("chunk horizon must be at least 1")
    idx = np.minimum(np.arange(t, t + horizon), length - 1)
    labels = actions[idx]
    valid = np.arange(t, t + horizon) < length
    return labels, valid


@dataclass
class TrainingSequence:
    """Prompt episodes followed by one target episode, with label tensors.

    Steps are concatenated in episode order; each step later embeds to the
    token triple [state, reasoning, action]. Only target steps carry loss;
    `reasoning_input_mask` marks target steps whose trace input is replaced
    by the zero vector (the prediction target remains).
    """

    episodes: list[Trajectory]
    n_prompt: int
    task_label: str
    episode_lengths: list[int]
    third: np.ndarray  # (S, G, G, 3)
    wrist: np.ndarray  # (S, C, C, 3)
    proprio: np.ndarray  # (S, 4)
    actions: np.ndarray  # (S, 4)
    traces: np.ndarray  # (S, 10)
    step_is_target: np.ndarray  # (S,) bool, false on prompt steps
    reasoning_input_mask: np.ndarray  # (S,) bool, subset of target steps
    chunk_actions: np.ndarray  # (S, H, 4)
    chunk_valid: np.ndarray  # (S, H) bool

    @property
    def n_steps(self) -> int:
        return len(self.proprio)

    @property
    def mask_ratio(self) -> float:
        n_target = int(self.step_is_target.sum())
        return float(self.reasoning_input_mask.sum()) / max(n_target, 1)


def build_sequence(
    subset_trajectories: list[Trajectory],
    n_prompt: int,
    rng: np.random.Generator,
    chunk_h: int = 8,
    mask_ratio: float | None = None,
) -> TrainingSequence:
    """Assemble one training sequence from a single-task episode subset.

    Picks n_prompt + 1 distinct episodes at random: the first n_prompt as
    prompt demos, the last as the target. Prompt steps never contribute to
    the loss and their reasoning inputs are never masked.
    """
    if n_prompt < 1:
        raise ValueError("need at least one prompt episode")
    if len(subset_trajectories) <= n_prompt:
        raise ValueError(f"subset of {len(subset_trajectories)} episodes cannot supply {n_prompt} prompts plus a target")
    labels = {traj.task_label for traj in subset_trajectories}
    if len(labels) != 1:
        raise ValueError(f"mixed task labels in subset: {sorted(labels)}")
    for traj in subset_trajectories:
        if traj.traces is None:
            raise ValueError("episodes must be trace-augmented before sequence building")

    chosen = rng.choice(len(subset_trajectories), size=n_prompt + 1, replace=False)
    episodes = [subset_trajectories[int(i)] for i in chosen]
    target = episodes[-1]
    lengths = [len(e) for e in episodes]
    total = sum(lengths)

    step_is_target = np.zeros(total, dtype=bool)
    step_is_target[total - lengths[-1]:] = True

    reasoning_input_mask = np.zeros(total, dtype=bool)
    reasoning_input_mask[total - lengths[-1]:] = traces_mod.sample_mask(lengths[-1], rng, ratio=mask_ratio)

    chunk_actions = np.empty((total, chunk_h, 4), dtype=np.float32)
    chunk_valid = np.empty((total, chunk_h), dtype=bool)
    offset = 0
    for episode in episodes:
        for t in range(len(episode)):
            chunk_actions[offset + t], chunk_valid[offset + t] = chunk_labels(episode.actions, t, chunk_h)
        offset += len(episode)

    return TrainingSequence(
        episodes=episodes,
        n_prompt=n_prompt,
        task_label=target.task_label,
        episode_lengths=lengths,
        third=np.concatenate([e.third for e in episodes]),
        wrist=np.concatenate([e.wrist for e in episodes]),
        proprio=np.concatenate([e.proprio for e in episodes]),
        actions=np.concatenate([e.actions for e in episodes]),
        traces=np.concatenate([e.traces for e in episodes]),
        step_is_target=step_is_target,
        reasoning_input_mask=reasoning_input_mask,
        chunk_actions=chunk_actions,
        chunk_valid=chunk_valid,
    )


# ---------------------------------------------------------------------------
# episode files
# ---------------------------------------------------------------------------


def save_episodes(path, trajectories: list[Trajectory]) -> None:
    header = {"magic": FILE_MAGIC, "version": str(FILE_VERSION), "count": str(len(trajectories))}
    arrays = {}
    for i, traj in enumerate(trajectories):
        header[f"{i}.task_label"] = traj.task_label
        for name in ARRAY_FIELDS:
            arr = getattr(traj, name)
            if arr is not None:
                arrays[f"{i}.{name}"] = arr
    save_checkpoint(path, arrays, header)


def load_episodes(path) -> list[Trajectory]:
    path = Path(path)
    try:
        arrays, header = load_checkpoint(path)
    except CheckpointError as exc:
        with path.open("rb") as fh:
            if fh.read(len(_V1_PREFIX)) == _V1_PREFIX:
                raise VersionMismatchError(f"{path}: version 1 (JSONL) episode file; rerun gen-data") from exc
        raise TruncatedFileError(str(exc)) from exc
    if header.get("magic") != FILE_MAGIC:
        raise VersionMismatchError(f"{path}: not an episode file (magic {header.get('magic')!r})")
    if header.get("version") != str(FILE_VERSION):
        raise VersionMismatchError(f"{path}: unsupported episode file version {header.get('version')!r}")
    try:
        labels = [header[f"{i}.task_label"] for i in range(int(header["count"]))]
    except (KeyError, ValueError) as exc:
        raise TruncatedFileError(f"{path}: malformed episode header ({exc!r})") from exc
    out: list[Trajectory] = []
    for i, label in enumerate(labels):
        fields = {name: arrays.pop(f"{i}.{name}", None) for name in ARRAY_FIELDS}
        missing = [name for name in ARRAY_FIELDS if fields[name] is None and name != "traces"]
        if missing:
            raise TruncatedFileError(f"{path}: episode {i} lacks arrays {missing}")
        try:
            out.append(Trajectory(task_label=label, **fields))
        except ValueError as exc:
            raise ShapeMismatchError(f"{path}: episode {i}: inconsistent arrays: {exc}") from exc
    if arrays:
        raise TruncatedFileError(f"{path}: arrays {sorted(arrays)} belong to no episode")
    return out

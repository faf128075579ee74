"""Episode containers, task-disjoint splits, training sequences, and episode files.

Episodes are stored columnar: one array per modality with the step count as
the leading dimension. The on-disk format is line-delimited: a header line
with magic and version, then one JSON record per episode carrying the task
label and, per array, its shape and its little-endian float32 payload
(base64). Round trips are bit-exact.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import traces as traces_mod

FILE_MAGIC = "deskicl-episodes"
FILE_VERSION = 1
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
    token triple [state, reasoning, action]. `loss_mask` is true exactly on
    target steps, `reasoning_input_mask` marks target steps whose trace
    input is replaced by the zero vector (the prediction target remains).
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
    step_is_target: np.ndarray  # (S,) bool
    loss_mask: np.ndarray  # (S,) bool, false on prompt steps
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

    plan = traces_mod.sample_mask(lengths[-1], rng, ratio=mask_ratio)
    reasoning_input_mask = np.zeros(total, dtype=bool)
    reasoning_input_mask[total - lengths[-1]:] = plan.as_bool(lengths[-1])

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
        loss_mask=step_is_target.copy(),
        reasoning_input_mask=reasoning_input_mask,
        chunk_actions=chunk_actions,
        chunk_valid=chunk_valid,
    )


# ---------------------------------------------------------------------------
# episode files
# ---------------------------------------------------------------------------


def _encode_array(arr: np.ndarray) -> dict:
    data = np.ascontiguousarray(arr).astype("<f4", copy=False)
    return {"shape": list(arr.shape), "data": base64.b64encode(data.tobytes()).decode("ascii")}


def _decode_array(name: str, entry: dict, path) -> np.ndarray:
    shape = tuple(int(d) for d in entry["shape"])
    try:
        raw = base64.b64decode(entry["data"], validate=True)
    except Exception as exc:
        raise TruncatedFileError(f"{path}: undecodable payload for '{name}'") from exc
    count = int(np.prod(shape)) if shape else 1
    if len(raw) != 4 * count:
        raise TruncatedFileError(f"{path}: payload for '{name}' holds {len(raw)} bytes, shape {shape} needs {4 * count}")
    return np.frombuffer(raw, dtype="<f4").reshape(shape).astype(np.float32)


def save_episodes(path, trajectories: list[Trajectory]) -> None:
    path = Path(path)
    with path.open("w", encoding="ascii") as fh:
        fh.write(json.dumps({"magic": FILE_MAGIC, "version": FILE_VERSION}) + "\n")
        for traj in trajectories:
            record = {"task_label": traj.task_label, "arrays": {}}
            for name in ARRAY_FIELDS:
                arr = getattr(traj, name)
                if arr is not None:
                    record["arrays"][name] = _encode_array(arr)
            fh.write(json.dumps(record) + "\n")


def load_episodes(path) -> list[Trajectory]:
    path = Path(path)
    with path.open("r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise TruncatedFileError(f"{path}: empty file, missing header")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise TruncatedFileError(f"{path}: unreadable header line") from exc
    if not isinstance(header, dict):
        raise VersionMismatchError(f"{path}: not an episode file (header is not an object)")
    if header.get("magic") != FILE_MAGIC:
        raise VersionMismatchError(f"{path}: not an episode file (magic {header.get('magic')!r})")
    if header.get("version") != FILE_VERSION:
        raise VersionMismatchError(f"{path}: unsupported episode file version {header.get('version')!r}")
    out: list[Trajectory] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TruncatedFileError(f"{path}:{lineno}: undecodable record") from exc
        try:
            arrays = {name: _decode_array(name, entry, path) for name, entry in record["arrays"].items()}
        except (KeyError, TypeError, ValueError, AttributeError) as exc:  # not the layout save_episodes writes
            raise TruncatedFileError(f"{path}:{lineno}: malformed record ({exc!r})") from exc
        try:
            out.append(Trajectory(task_label=record.get("task_label", ""), **arrays))
        except (TypeError, ValueError) as exc:
            raise ShapeMismatchError(f"{path}:{lineno}: inconsistent episode arrays: {exc}") from exc
    return out

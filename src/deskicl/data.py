"""Episode containers, task splits, training sequences, and episode files.

Episodes are stored columnar: one array per modality with the step count as
the leading dimension. A camera view is kept as `sim.observe` gives it, a
uint8 index per pixel into `sim.PALETTE`, 12 times smaller than its float32
colours; the model's state encoder looks the colours up where it reads them.

An episode file (version 5) is a `checkpoint.py` container: its header holds
`magic`, `version`, the episode `count` and `<i>.task_label`, and episode i's
arrays are named `<i>.<field>`, one for every field: `third` and `wrist`
uint8, `proprio` and `actions` float32. It stores what was recorded and
nothing derived from it: an episode's traces are computed from its proprio
(`Trajectory.traces`). A file missing any array does not load, and round
trips are bit-exact. Files of earlier versions (float32 colours, a palette
stored with each episode, or stored traces) do not load: they raise an
EpisodeIOError that says to rerun gen-data, as does a file that is not a
container at all, such as a version 1 (JSONL) file.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from . import traces as traces_mod
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .sim import PALETTE

FILE_MAGIC = "deskicl-episodes"
# A stored view is indices into sim.PALETTE and the file does not hold the
# colours, so a change to sim.PALETTE needs a new version.
FILE_VERSION = 5
ARRAY_FIELDS = ("third", "wrist", "proprio", "actions")


class EpisodeIOError(RuntimeError):
    """An episode file that does not load: not a container of this version,
    another magic or version, a malformed header, or arrays that do not make
    its Trajectories."""


@dataclass(frozen=True)
class Trajectory:
    """One episode as recorded: per-step renders as indices into
    sim.PALETTE, proprioception and actions; the float arrays hold finite
    values only, and the proprio values in [0, 1], as the simulator clamps
    the gripper, which keeps every trace computed from them in [0, 1]."""

    task_label: str
    third: np.ndarray  # (T, G, G) uint8, indices into sim.PALETTE
    wrist: np.ndarray  # (T, C, C) uint8, indices into sim.PALETTE
    proprio: np.ndarray  # (T, 4) float32
    actions: np.ndarray  # (T, 4) float32

    def __post_init__(self):
        if not self.task_label:
            raise ValueError("trajectory needs a nonempty task label")
        for name in ("proprio", "actions"):
            arr = getattr(self, name)
            if arr.dtype != np.float32 or arr.ndim != 2 or arr.shape[1] != 4:
                raise ValueError(f"{name} is {arr.dtype} {arr.shape}, not (T, 4) float32")
            if not np.isfinite(arr).all():
                step = np.flatnonzero(~np.isfinite(arr).all(axis=1))[0]
                raise ValueError(f"{name} of step {step} are not finite: {arr[step].tolist()}")
        outside = ((self.proprio < 0.0) | (self.proprio > 1.0)).any(axis=1)
        if outside.any():
            step = np.flatnonzero(outside)[0]
            raise ValueError(f"proprio of step {step} is outside [0, 1]: {self.proprio[step].tolist()}")
        for name in ("third", "wrist"):
            images = getattr(self, name)
            if images.dtype != np.uint8 or images.ndim != 3 or images.shape[1] != images.shape[2]:
                raise ValueError(f"{name} view is {images.dtype} {images.shape}, not (T, R, R) uint8 palette indices")
            top = int(images.max(initial=0))
            if top >= len(PALETTE):
                raise ValueError(f"{name} view holds index {top}, past sim.PALETTE's {len(PALETTE)} colours")
        t = len(self.proprio)
        if t < 2:
            raise ValueError(f"trajectory too short ({t} steps)")
        lengths = {len(self.third), len(self.wrist), len(self.proprio), len(self.actions)}
        if lengths != {t}:
            raise ValueError(f"per-step arrays disagree on length: {sorted(lengths)}")

    @cached_property
    def traces(self) -> np.ndarray:
        """(T, 10) float32 `traces.trace_matrix` of the proprio, computed once."""
        return traces_mod.trace_matrix(self)

    def __len__(self) -> int:
        return len(self.proprio)


@dataclass(frozen=True)
class SplitSpec:
    train_tasks: tuple[str, ...]
    test_tasks: tuple[str, ...]
    seed: int

    def __post_init__(self):
        for side, labels in (("train", self.train_tasks), ("test", self.test_tasks)):
            if not labels:
                raise ValueError(f"the {side} side names no task")
            repeated = sorted({label for label in labels if labels.count(label) > 1})
            if repeated:
                raise ValueError(f"the {side} side repeats {repeated}")
        overlap = set(self.train_tasks) & set(self.test_tasks)
        if overlap:
            raise ValueError(f"split sides overlap: {sorted(overlap)}")


@dataclass
class TrainingSequence:
    """Prompt episodes followed by one target episode: the inputs of all S
    steps and the labels of the target's N steps.

    Steps are laid out by `stack_steps`, in episode order, so the target's
    steps are the last N; each step later embeds to the token triple
    [state, reasoning, action]. Only target steps carry loss, so only they
    have labels: their chunks of next actions and, read from `traces[-N:]`,
    their traces. `reasoning_input_mask` marks the target steps whose trace
    input is replaced by the zero vector (the prediction target remains).
    """

    episodes: list[Trajectory]
    third: np.ndarray  # (S, G, G) uint8, indices into sim.PALETTE
    wrist: np.ndarray  # (S, C, C) uint8, indices into sim.PALETTE
    proprio: np.ndarray  # (S, 4)
    actions: np.ndarray  # (S, 4)
    traces: np.ndarray  # (S, 10)
    reasoning_input_mask: np.ndarray  # (N,) bool
    chunk_actions: np.ndarray  # (N, H, 4)
    chunk_valid: np.ndarray  # (N, H) bool

    @property
    def n_steps(self) -> int:
        return len(self.proprio)

    @property
    def n_target(self) -> int:
        """The target episode's steps, which `build_sequence` lays out last."""
        return len(self.episodes[-1])


def stack_steps(episodes: list[Trajectory]) -> dict[str, np.ndarray]:
    """Every ARRAY_FIELDS array of `episodes` and their traces, their steps
    concatenated in episode order: the step layout of a training sequence
    and of a closed-loop prompt alike."""
    return {name: np.concatenate([getattr(e, name) for e in episodes]) for name in (*ARRAY_FIELDS, "traces")}


def build_sequence(
    subset_trajectories: list[Trajectory],
    n_prompt: int,
    rng: np.random.Generator,
    chunk_h: int,
) -> TrainingSequence:
    """Assemble one training sequence from a single-task episode subset.

    Picks n_prompt + 1 distinct episodes at random: the first n_prompt as
    prompt demos, the last as the target, whose steps alone get labels and
    a drawn reasoning input mask.
    """
    if n_prompt < 1:
        raise ValueError("need at least one prompt episode")
    if len(subset_trajectories) <= n_prompt:
        raise ValueError(f"subset of {len(subset_trajectories)} episodes cannot supply {n_prompt} prompts plus a target")
    labels = {traj.task_label for traj in subset_trajectories}
    if len(labels) != 1:
        raise ValueError(f"mixed task labels in subset: {sorted(labels)}")

    chosen = rng.choice(len(subset_trajectories), size=n_prompt + 1, replace=False)
    episodes = [subset_trajectories[int(i)] for i in chosen]
    target = episodes[-1]
    n = len(target)
    # the next `chunk_h` actions of every target step at once: step t reads
    # the actions from t on, clamped to the last step, and the slots clamped
    # are invalid, so the loss skips them
    ahead = np.arange(n)[:, None] + np.arange(chunk_h)
    return TrainingSequence(
        episodes=episodes,
        **stack_steps(episodes),
        reasoning_input_mask=traces_mod.sample_mask(n, rng),
        chunk_actions=target.actions[np.minimum(ahead, n - 1)],
        chunk_valid=ahead < n,
    )


# ---------------------------------------------------------------------------
# episode files
# ---------------------------------------------------------------------------


def save_episodes(path, trajectories: list[Trajectory]) -> None:
    header = {"magic": FILE_MAGIC, "version": str(FILE_VERSION), "count": str(len(trajectories))}
    arrays = {}
    for i, traj in enumerate(trajectories):
        header[f"{i}.task_label"] = traj.task_label
        arrays.update({f"{i}.{name}": getattr(traj, name) for name in ARRAY_FIELDS})
    save_checkpoint(path, arrays, header)


def load_episodes(path) -> list[Trajectory]:
    path = Path(path)
    try:
        arrays, header = load_checkpoint(path)
    except CheckpointError as exc:
        raise EpisodeIOError(f"{exc}; rerun gen-data") from exc
    if header.get("magic") != FILE_MAGIC:
        raise EpisodeIOError(f"{path}: not an episode file (magic {header.get('magic')!r})")
    if header.get("version") != str(FILE_VERSION):
        raise EpisodeIOError(
            f"{path}: episode file version {header.get('version')!r}, not {FILE_VERSION}; rerun gen-data"
        )
    try:
        labels = [header[f"{i}.task_label"] for i in range(int(header["count"]))]
    except (KeyError, ValueError) as exc:
        raise EpisodeIOError(f"{path}: malformed episode header ({exc!r})") from exc
    out: list[Trajectory] = []
    for i, label in enumerate(labels):
        fields = {name: arrays.pop(f"{i}.{name}", None) for name in ARRAY_FIELDS}
        missing = [name for name in ARRAY_FIELDS if fields[name] is None]
        if missing:
            raise EpisodeIOError(f"{path}: episode {i} lacks arrays {missing}")
        try:
            out.append(Trajectory(task_label=label, **fields))
        except ValueError as exc:
            raise EpisodeIOError(f"{path}: episode {i}: inconsistent arrays: {exc}") from exc
    if arrays:
        raise EpisodeIOError(f"{path}: arrays {sorted(arrays)} belong to no episode")
    return out

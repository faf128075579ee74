"""Training loop and closed-loop inference.

Training is teacher-forced: each step samples one task subset, builds a
prompt+target sequence, and applies one clipped AdamW update of the
combined loss. Inference runs the same embeddings, trunk and heads from
`model.py` incrementally against a per-layer key/value cache; this module
names no parameter and keeps only the decode policy: clipping the predicted
trace, the every-k trace schedule, and the cache.

`rollout` is the one closed loop. It steps B rollouts that share a task and
a prompt in lockstep, one lane each, and hands the policy only the lanes'
world states. `TransformerPolicy` observes them (`sim.observe`: both camera
views of all lanes in one `render` call) at its model's resolutions, and owns
its trace schedule: k is fixed when it is built. It prefills the prompt
once and copies its keys and values into every lane of a (B, ...) cache,
and each token slot is one trunk call over all lanes. At each environment
step it decodes the previous step's executed action together with the new
state token in one call; every k-th step it then decodes a trace from the
state position, feeds it back in a second call and reads the action chunk
there. On the other steps the zero-vector trace token, matching the masking
distribution seen in training, is decoded in the first call with the
action and the state, and the chunk is read at its position.

Each lane executes the temporal ensemble of its own chunks covering the
current step. The policy issues one chunk of h actions per lane at every
step, so only the last h chunks can cover a step: `rollout` keeps them in
one (B, h, h, 4) float32 ring, writing step t's chunks into slot t % h, and
`temporal_ensemble` reads every lane's covering chunks from it at once.
When lanes finish, their rows leave the ring and the cache together.
Lanes never mix: every product keeps the lane axis as a leading batch
axis, so a lane's result is bit-identical to running it alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Protocol

import numpy as np

from .data import Trajectory, build_sequence, stack_steps
from .model import (
    ACTION_DIM,
    TOKENS_PER_STEP,
    ContextOverflowError,
    KVCache,
    PolicyModel,
    chunk_head,
    encode_action_batch,
    encode_reasoning_batch,
    encode_state_batch,
    sequence_loss,
    step_tokens,
    trace_head,
    transformer_hidden,
)
from .optim import AdamW, clip_grad_norm
from .settings import bounded, check_fields
from .sim import Action, TaskSpec, WorldState
from .sim import expert_policy, observe, step as sim_step, success
from .tensor import Tape, Tensor, backward
from .traces import TRACE_DIM

# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    steps: int = bounded(5000, ge=0)
    seed: int = bounded(0, ge=0)
    lr: float = bounded(3e-4, gt=0.0)
    weight_decay: float = bounded(0.01, ge=0.0)
    grad_clip: float = bounded(1.0, gt=0.0)
    n_prompt_choices: tuple[int, ...] = (1, 2, 3)
    checkpoint_interval: int = bounded(0, ge=0)  # 0 = only the returned final model

    def __post_init__(self):
        check_fields(self)
        if not self.n_prompt_choices or min(self.n_prompt_choices) < 1:
            raise ValueError(f"n_prompt_choices = {self.n_prompt_choices} needs at least one count, each at least 1")


class TrainingDivergedError(RuntimeError):
    """A training step whose loss or gradient norm is not finite."""


@dataclass
class LossRecord:
    step: int
    loss: float
    l_action: float
    l_reason: float
    grad_norm: float  # before clipping


def train(
    model: PolicyModel,
    dataset: list[Trajectory],
    cfg: TrainConfig,
    checkpoint_hook: Callable[[int, PolicyModel], None] | None = None,
) -> list[LossRecord]:
    """Optimize `model` in place for cfg.steps sequences; returns the loss history.

    Fully determined by (model parameters, dataset order, cfg.seed). Raises
    ValueError before step 0, touching no parameter or gradient and calling
    no hook, if a task has a single episode, an episode whose cameras are
    not the model's `third_resolution` / `wrist_resolution`, or a longest
    possible sequence over the model's max_context. A head outside the
    variant's loss (the trace head of `icrt`) keeps the zero gradient
    `AdamW` gives it. Raises
    TrainingDivergedError if the loss or the gradient norm goes non-finite,
    before that step's update touches the parameters.
    """
    if not dataset:
        raise ValueError("training dataset is empty")
    subsets: dict[str, list[Trajectory]] = {}
    for traj in dataset:
        subsets.setdefault(traj.task_label, []).append(traj)
    labels = sorted(subsets)
    most_prompts = max(cfg.n_prompt_choices)
    cameras = (model.config.third_resolution, model.config.wrist_resolution)
    for label in labels:
        if len(subsets[label]) < 2:
            raise ValueError(f"task {label}: it has one episode, but a sequence needs a prompt demo and a target")
        for traj in subsets[label]:
            seen = (traj.third.shape[1], traj.wrist.shape[1])
            if seen != cameras:
                raise ValueError(f"task {label}: an episode sees {seen[0]}/{seen[1]}-pixel cameras, the model {cameras[0]}/{cameras[1]}")
        # the longest sequence build_sequence can sample: the most prompt
        # demos plus the target
        n_episodes = min(most_prompts, len(subsets[label]) - 1) + 1
        worst = TOKENS_PER_STEP * sum(sorted((len(t) for t in subsets[label]), reverse=True)[:n_episodes])
        if worst > model.config.max_context:
            raise ValueError(
                f"task {label}: its {n_episodes} longest episodes make a sequence of {worst} tokens, "
                f"over max_context {model.config.max_context}"
            )

    rng = np.random.default_rng(cfg.seed)
    opt = AdamW(model.params, lr=cfg.lr, weight_decay=cfg.weight_decay)
    history: list[LossRecord] = []
    for step_idx in range(cfg.steps):
        label = labels[int(rng.integers(len(labels)))]
        subset = subsets[label]
        n_prompt = int(cfg.n_prompt_choices[int(rng.integers(len(cfg.n_prompt_choices)))])
        n_prompt = min(n_prompt, len(subset) - 1)
        seq = build_sequence(subset, n_prompt, rng, chunk_h=model.config.chunk_h)
        with Tape():
            loss, l_action, l_reason = sequence_loss(model, seq)
            if not np.isfinite(loss.data):
                raise TrainingDivergedError(
                    f"non-finite loss at step {step_idx} (task {label}, "
                    f"action {l_action}, reasoning {l_reason}); aborting"
                )
            backward(loss)
        grad_norm = clip_grad_norm(model.params, cfg.grad_clip)
        if not np.isfinite(grad_norm):
            raise TrainingDivergedError(f"non-finite gradient norm {grad_norm} at step {step_idx} (task {label}); aborting before the update")
        opt.step()
        opt.zero_grad()
        history.append(LossRecord(step_idx, float(loss.data), l_action, l_reason, grad_norm))
        if checkpoint_hook and cfg.checkpoint_interval and (step_idx + 1) % cfg.checkpoint_interval == 0:
            checkpoint_hook(step_idx + 1, model)
    return history


# ---------------------------------------------------------------------------
# KV-cached incremental decoding
# ---------------------------------------------------------------------------


def kv_decode(cache: KVCache, model: PolicyModel, new_tokens: np.ndarray) -> tuple[np.ndarray, KVCache]:
    """Extend the cache by `new_tokens` and return their hidden states, at
    the model's dtype: (n, d) against a 1-lane cache, (B, n, d) against a
    B-lane one."""
    hidden = transformer_hidden(model, Tensor(new_tokens, dtype=model.dtype), cache)
    return hidden.data, cache


# ---------------------------------------------------------------------------
# temporal ensembling
# ---------------------------------------------------------------------------


def temporal_ensemble(chunks: np.ndarray, t: int, decay: float) -> np.ndarray:
    """(B, 4) weighted means of every lane's predictions for step t.

    `chunks` is the (B, h, h, 4) ring that holds the chunk issued at step s
    in slot s % h. A chunk is issued at every step, so the chunks covering
    t are those of steps max(0, t-h+1)..t. Weights are exp(-decay * age)
    with age 0 the oldest of them, so earlier plans dominate and the
    executed action stays smooth.
    """
    h = chunks.shape[1]
    issued = np.arange(max(0, t - h + 1), t + 1)
    weights = np.exp(-decay * np.arange(len(issued), dtype=np.float64))
    stacked = chunks[:, issued % h, t - issued].astype(np.float64)  # (B, covering, 4)
    return (weights[:, None] * stacked).sum(axis=1) / weights.sum()


# ---------------------------------------------------------------------------
# rollout
# ---------------------------------------------------------------------------


@dataclass
class RolloutResult:
    """One lane's record, filled in by `rollout` as the lane steps: `score`
    is always the score of `states[-1]`."""

    states: list[WorldState]  # states[0] is the initial state; last is terminal
    score: float
    executed_actions: list[np.ndarray] = field(default_factory=list)  # each step's (4,) float64 deltas
    predicted_traces: list[tuple[int, np.ndarray]] = field(default_factory=list)  # (step, flat trace in [0,1])
    overflow: bool = False

    @property
    def steps_used(self) -> int:
        return len(self.executed_actions)


class ChunkPolicy(Protocol):
    """Plans action chunks for B lanes stepped in lockstep.

    Every per-lane argument and result has the lane axis first, and lane j
    of a call is lane j of the previous call until `keep_lanes` drops lanes
    and renumbers the rest. A lane's proposals must not depend on the other
    lanes. The policy sees the lanes' world states and observes what it
    needs of them itself; when it decodes traces is its own setting.
    """

    horizon: int  # length of each proposed action chunk

    def begin(self, prompt_demos: list[Trajectory], lanes: int) -> None: ...

    def propose(self, t: int, states: list[WorldState]) -> tuple[np.ndarray | None, np.ndarray]:
        """(traces (B, 10) or None, chunks (B, horizon, 4)) for step t, from
        the B lanes' world states."""
        ...

    def commit(self, executed_actions: np.ndarray) -> None:
        """The (B, 4) actions the lanes executed at this step."""
        ...

    def keep_lanes(self, lanes: np.ndarray) -> None:
        """Continue with the lanes at these indices only, in this order."""
        ...


class TransformerPolicy:
    """Closed-loop wrapper around a PolicyModel with a lane-batched KV cache.

    It decodes a trace every `reasoning_interval` (k) steps, never at k = 0;
    a model that was not trained to predict traces is refused any k > 0.
    `begin` starts a fresh cache, so one policy serves any number of
    rollouts: it prefills the prompt once and copies its keys and values
    into every lane (prefix caching). `propose` observes the lanes' states
    at the model's camera resolutions. `commit` only holds the action
    tokens; `propose` decodes them with the next state tokens. On a step that
    decodes a trace (every k-th) the trace token needs the state's hidden
    state, so the step takes two trunk calls for all lanes together; on any
    other step the zero-trace token joins the same call, so it takes one.
    Every product keeps the lane axis as a leading batch axis, so each
    lane's numbers equal a 1-lane run's bit for bit.
    """

    def __init__(self, model: PolicyModel, reasoning_interval: int):
        if reasoning_interval > 0 and not model.config.target_reasoning:
            raise ValueError(
                f"reasoning interval {reasoning_interval} decodes traces, but the model was not trained to predict "
                "them (target_reasoning is off); use 0"
            )
        self.model = model
        self.k = reasoning_interval
        self.horizon = model.config.chunk_h
        self.cache: KVCache | None = None  # made by `begin`
        self._pending: np.ndarray | None = None  # (B, 0 or 1, d) committed action tokens not yet decoded
        self._zero_trace_token = encode_reasoning_batch(model, np.zeros((1, TRACE_DIM)), np.array([True])).data[0]

    def begin(self, prompt_demos: list[Trajectory], lanes: int) -> None:
        if not prompt_demos:
            raise ValueError("need at least one prompt demo")
        model = self.model
        steps = stack_steps(prompt_demos)
        tokens = step_tokens(model, **steps, target_mask=np.zeros(0, dtype=bool))
        self.cache = KVCache(model.config)
        kv_decode(self.cache, model, tokens.data)
        self.cache.select_lanes(np.zeros(lanes, dtype=np.intp))
        self._pending = np.zeros((lanes, 0, model.config.d_model), dtype=model.dtype)

    def propose(self, t, states):
        model = self.model
        pending = self._pending
        # room for the pending action plus this step's tokens
        if self.cache.remaining < TOKENS_PER_STEP + pending.shape[1]:
            raise ContextOverflowError("prompt plus rollout exceeded the model context")
        third, wrist, proprio = observe(states, model.config.third_resolution, model.config.wrist_resolution)
        f_s = encode_state_batch(model, third[:, None], wrist[:, None], proprio[:, None]).data
        self._pending = pending[:, :0]
        if self.k == 0 or t % self.k:
            # no trace to decode: the zero-trace token joins the same call
            zero = np.broadcast_to(self._zero_trace_token, (len(states), 1, model.config.d_model))
            hidden, _ = kv_decode(self.cache, model, np.concatenate([pending, f_s, zero], axis=1))
            return None, self._chunks(hidden[:, -1:])
        hidden, _ = kv_decode(self.cache, model, np.concatenate([pending, f_s], axis=1))
        # (B, 1, d) hidden states: B one-row products, as a 1-lane run computes them
        raw = trace_head(model, Tensor(hidden[:, -1:], dtype=model.dtype)).data
        traces = np.clip(raw, 0.0, 1.0).astype(np.float32)
        token_r = encode_reasoning_batch(model, traces, np.zeros(traces.shape[:-1], dtype=bool)).data
        hidden_r, _ = kv_decode(self.cache, model, token_r)
        return traces[:, 0], self._chunks(hidden_r)

    def _chunks(self, hidden: np.ndarray) -> np.ndarray:
        """(B, horizon, 4) action chunks from (B, 1, d) reasoning-position
        hidden states."""
        return chunk_head(self.model, Tensor(hidden, dtype=self.model.dtype)).data[:, 0]

    def commit(self, executed_actions: np.ndarray) -> None:
        self._pending = encode_action_batch(self.model, executed_actions[:, None]).data

    def keep_lanes(self, lanes: np.ndarray) -> None:
        self.cache.select_lanes(lanes)
        self._pending = self._pending[lanes]


class ExpertReplayPolicy(ChunkPolicy):
    """Harness-sanity stub: plans chunks by simulating the scripted expert
    on the lanes' world states; it observes no image."""

    def __init__(self, task: TaskSpec, horizon: int):
        self.task = task
        self.horizon = horizon

    def propose(self, t, states):
        chunks = np.zeros((len(states), self.horizon, ACTION_DIM), dtype=np.float32)
        for lane, sim_state in enumerate(states):
            for j in range(self.horizon):
                action = expert_policy(sim_state, self.task)
                chunks[lane, j] = action.deltas
                sim_state = sim_step(sim_state, action)
        return None, chunks


def rollout(
    policy: ChunkPolicy,
    initial_states: list[WorldState],
    task: TaskSpec,
    prompt_demos: list[Trajectory],
    max_steps: int,
    ensemble_decay: float,
) -> list[RolloutResult]:
    """Run one closed loop per initial state, all in lockstep, and return
    their results in the same order.

    The lanes share the task and the prompt, so the policy makes one call
    for all of them at each step, given their world states; what it renders
    of them is its own business. A lane leaves on success; at max_steps or
    on context overflow, which every lane reaches at the same step because
    they all hold the same number of tokens, all the remaining lanes stop (a
    prompt that overflows the context alone stops them before their first
    step). Each lane keeps its own row of the chunk ring and its own
    `RolloutResult`, filled in as it steps, and its result equals a run of
    that lane alone.
    """
    if not initial_states:
        raise ValueError("rollout needs at least one initial state")
    lanes = [RolloutResult([s], success(s, task)) for s in initial_states]
    active = list(lanes)
    try:
        policy.begin(prompt_demos, len(lanes))
        h = policy.horizon
        ring = np.zeros((len(lanes), h, h, ACTION_DIM), dtype=np.float32)  # lane, issue step % h, offset, action
        for t in range(max_steps):
            traces, chunks = policy.propose(t, [lane.states[-1] for lane in active])
            if traces is not None:
                for lane, trace in zip(active, traces):
                    lane.predicted_traces.append((t, trace))
            ring[:, t % h] = chunks
            actions = [Action(a) for a in temporal_ensemble(ring, t, ensemble_decay)]
            policy.commit(np.stack([a.deltas for a in actions]).astype(np.float32))
            for lane, action in zip(active, actions):
                lane.states.append(sim_step(lane.states[-1], action))
                lane.executed_actions.append(action.deltas)
                lane.score = success(lane.states[-1], task)
            going = np.flatnonzero([lane.score != 1.0 for lane in active])
            if len(going) < len(active):
                active = [active[j] for j in going]
                if not active:
                    break
                ring = ring[going]
                policy.keep_lanes(going)
    except ContextOverflowError:
        for lane in active:
            lane.overflow = True
    return lanes

"""Training loop and closed-loop inference.

Training is teacher-forced: each step samples one task subset, builds a
prompt+target sequence, and applies one clipped AdamW update of the
combined loss. Inference runs the same embeddings, trunk and heads from
`model.py` incrementally against a per-layer key/value cache; this module
names no parameter and keeps only the decode policy: clipping the predicted
trace, the every-k trace schedule, and the cache.

`rollout` is the one closed loop. It steps B rollouts that share a task and
a prompt in lockstep, one lane each: the prompt is prefilled once and its
keys and values are copied into every lane of a (B, ...) cache, and each
token slot is one trunk call over all lanes. At each environment step the
policy decodes the previous step's executed action together with the new
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

from .data import Trajectory, build_sequence
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
from .sim import Action, SimParams, TaskSpec, WorldState
from .sim import render, step as sim_step, success, third_camera, wrist_camera
from .tensor import Tape, Tensor, backward
from .traces import TRACE_DIM

# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


@dataclass
class TrainConfig:
    steps: int
    seed: int = 0
    lr: float = 3e-4
    weight_decay: float = 0.01
    grad_clip: float = 1.0
    n_prompt_choices: tuple[int, ...] = (1, 2, 3)
    checkpoint_interval: int = 0  # 0 = only the returned final model


@dataclass
class LossRecord:
    step: int
    loss: float
    l_action: float
    l_reason: float


def train(
    model: PolicyModel,
    dataset: list[Trajectory],
    cfg: TrainConfig,
    checkpoint_hook: Callable[[int, PolicyModel], None] | None = None,
) -> list[LossRecord]:
    """Optimize `model` in place for cfg.steps sequences; returns the loss history.

    Fully determined by (model parameters, dataset order, cfg.seed). Raises
    ValueError before step 0 if a task's longest possible sequence exceeds
    the model's max_context. Aborts with a diagnostic if the loss or the
    gradient norm goes non-finite, before that step's update touches the
    parameters.
    """
    if not dataset:
        raise ValueError("training dataset is empty")
    subsets: dict[str, list[Trajectory]] = {}
    for traj in dataset:
        subsets.setdefault(traj.task_label, []).append(traj)
    labels = sorted(subsets)
    usable = [lb for lb in labels if len(subsets[lb]) >= 2]
    if not usable:
        raise ValueError("no task subset has at least two episodes")
    most_prompts = max(cfg.n_prompt_choices)
    for label in usable:
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
        label = usable[int(rng.integers(len(usable)))]
        subset = subsets[label]
        n_prompt = int(cfg.n_prompt_choices[int(rng.integers(len(cfg.n_prompt_choices)))])
        n_prompt = min(n_prompt, len(subset) - 1)
        seq = build_sequence(subset, n_prompt, rng, chunk_h=model.config.chunk_h)
        with Tape():
            loss, l_action, l_reason = sequence_loss(model, seq)
            if not np.isfinite(loss.data):
                raise RuntimeError(
                    f"non-finite loss at step {step_idx} (task {label}, "
                    f"action {l_action}, reasoning {l_reason}); aborting"
                )
            backward(loss)
        for p in model.params.values():
            # heads outside the variant's loss (e.g. the trace head when no
            # reasoning loss is applied) have exactly zero gradient
            if p.grad is None:
                p.grad = np.zeros_like(p.data)
        grad_norm = clip_grad_norm(model.params, cfg.grad_clip)
        if not np.isfinite(grad_norm):
            raise RuntimeError(f"non-finite gradient norm {grad_norm} at step {step_idx} (task {label}); aborting before the update")
        opt.step()
        opt.zero_grad()
        history.append(LossRecord(step_idx, float(loss.data), l_action, l_reason))
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
class RolloutOptions:
    reasoning_interval: int = 1  # k: decode a trace every k steps; 0 = never
    max_steps: int = 150
    ensemble_decay: float = 0.1

    def __post_init__(self):
        if self.reasoning_interval < 0:
            raise ValueError("reasoning interval must be >= 0")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")


@dataclass
class RolloutResult:
    score: float
    steps_used: int
    overflow: bool
    states: list[WorldState]  # states[0] is the initial state; last is terminal
    executed_actions: np.ndarray  # (steps_used, 4)
    predicted_traces: list[tuple[int, np.ndarray]]  # (step, flat trace in [0,1])


class ChunkPolicy(Protocol):
    """Plans action chunks for B lanes stepped in lockstep.

    Every per-lane argument and result has the lane axis first, and lane j
    of a call is lane j of the previous call until `keep_lanes` drops lanes
    and renumbers the rest. A lane's proposals must not depend on the other
    lanes.
    """

    horizon: int  # length of each proposed action chunk

    def begin(self, prompt_demos: list[Trajectory], lanes: int) -> None: ...

    def propose(
        self, t: int, states: list[WorldState], third: np.ndarray, wrist: np.ndarray, proprio: np.ndarray
    ) -> tuple[np.ndarray | None, np.ndarray]:
        """(traces (B, 10) or None, chunks (B, horizon, 4)) for step t, from
        images (B, R, R, 3) and proprio (B, 4)."""
        ...

    def commit(self, executed_actions: np.ndarray) -> None:
        """The (B, 4) actions the lanes executed at this step."""
        ...

    def keep_lanes(self, lanes: np.ndarray) -> None:
        """Continue with the lanes at these indices only, in this order."""
        ...


class TransformerPolicy:
    """Closed-loop wrapper around a PolicyModel with a lane-batched KV cache.

    `begin` prefills the prompt once and copies its keys and values into
    every lane (prefix caching). `commit` only holds the action tokens;
    `propose` decodes them with the next state tokens. On a step that
    decodes a trace (every k-th) the trace token needs the state's hidden
    state, so the step takes two trunk calls for all lanes together; on any
    other step the zero-trace token joins the same call, so it takes one.
    Every product keeps the lane axis as a leading batch axis, so each
    lane's numbers equal a 1-lane run's bit for bit.
    """

    def __init__(self, model: PolicyModel, reasoning_interval: int):
        self.model = model
        self.k = reasoning_interval
        self.horizon = model.config.chunk_h
        self.cache: KVCache | None = None  # made by `begin`
        self._pending: np.ndarray | None = None  # (B, 1, d) committed action tokens not yet decoded
        self._zero_trace_token = encode_reasoning_batch(model, np.zeros((1, TRACE_DIM)), np.array([True])).data[0]

    def begin(self, prompt_demos: list[Trajectory], lanes: int) -> None:
        if not prompt_demos:
            raise ValueError("need at least one prompt demo")
        model = self.model
        third, wrist, proprio, traces, actions = (
            np.concatenate([getattr(d, name) for d in prompt_demos]) for name in ("third", "wrist", "proprio", "traces", "actions")
        )
        no_target = np.zeros(len(proprio), dtype=bool)
        tokens = step_tokens(model, third, wrist, proprio, traces, actions, no_target, no_target)
        self.cache = KVCache(model.config)
        self._pending = None
        kv_decode(self.cache, model, tokens.data)
        self.cache.select_lanes(np.zeros(lanes, dtype=np.intp))

    def propose(self, t, states, third, wrist, proprio):
        model = self.model
        pending = [] if self._pending is None else [self._pending]
        # room for the pending action plus this step's tokens
        if self.cache.remaining < TOKENS_PER_STEP + len(pending):
            raise ContextOverflowError("prompt plus rollout exceeded the model context")
        f_s = encode_state_batch(model, third[:, None], wrist[:, None], proprio[:, None]).data
        self._pending = None
        if self.k == 0 or t % self.k:
            # no trace to decode: the zero-trace token joins the same call
            zero = np.broadcast_to(self._zero_trace_token, (len(states), 1, model.config.d_model))
            hidden, _ = kv_decode(self.cache, model, np.concatenate(pending + [f_s, zero], axis=1))
            return None, self._chunks(hidden[:, -1:])
        hidden, _ = kv_decode(self.cache, model, np.concatenate(pending + [f_s], axis=1))
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
        if self._pending is not None:
            self._pending = self._pending[lanes]


class ExpertReplayPolicy:
    """Harness-sanity stub: plans chunks by simulating the scripted expert."""

    def __init__(self, params: SimParams, task: TaskSpec, horizon: int):
        self.params = params
        self.task = task
        self.horizon = horizon

    def begin(self, prompt_demos, lanes: int) -> None:
        pass

    def propose(self, t, states, third, wrist, proprio):
        from .sim import expert_policy

        chunks = np.zeros((len(states), self.horizon, ACTION_DIM), dtype=np.float32)
        for lane, sim_state in enumerate(states):
            for j in range(self.horizon):
                action = expert_policy(self.params, sim_state, self.task)
                chunks[lane, j] = action.deltas
                sim_state = sim_step(self.params, sim_state, action)
        return None, chunks

    def commit(self, executed_actions) -> None:
        pass

    def keep_lanes(self, lanes) -> None:
        pass


@dataclass
class _Lane:
    """One rollout's own state inside a lockstep `rollout` call."""

    states: list[WorldState]
    actions: list[np.ndarray] = field(default_factory=list)
    traces: list[tuple[int, np.ndarray]] = field(default_factory=list)
    overflow: bool = False

    def result(self, env_params: SimParams, task: TaskSpec) -> RolloutResult:
        return RolloutResult(
            score=success(env_params, self.states[-1], task),
            steps_used=len(self.actions),
            overflow=self.overflow,
            states=self.states,
            executed_actions=np.array(self.actions, dtype=np.float64).reshape(len(self.actions), ACTION_DIM),
            predicted_traces=self.traces,
        )


def rollout(
    policy: ChunkPolicy | PolicyModel,
    env_params: SimParams,
    initial_states: list[WorldState],
    task: TaskSpec,
    prompt_demos: list[Trajectory],
    options: RolloutOptions,
) -> list[RolloutResult]:
    """Run one closed loop per initial state, all in lockstep, and return
    their results in the same order.

    The lanes share the task, the prompt and the options, so each step
    renders every active lane in one `render` call per camera and the
    policy makes one call for all of them. A lane leaves on success;
    at max_steps or on context overflow, which every lane reaches at the
    same step because they all hold the same number of tokens, all the
    remaining lanes stop. Each lane keeps its own row of the chunk ring,
    states and records, and its result equals a run of that lane alone.

    A PolicyModel is wrapped in TransformerPolicy with the options'
    reasoning interval; any ChunkPolicy implementation runs through the
    identical ensembling and stepping path.
    """
    if not initial_states:
        raise ValueError("rollout needs at least one initial state")
    if isinstance(policy, PolicyModel):
        policy = TransformerPolicy(policy, options.reasoning_interval)
    lanes = [_Lane([s]) for s in initial_states]
    try:
        policy.begin(prompt_demos, len(lanes))
    except ContextOverflowError:
        for lane in lanes:
            lane.overflow = True
        return [lane.result(env_params, task) for lane in lanes]
    cam3, camw = third_camera(env_params), wrist_camera(env_params)
    active = list(lanes)
    h = policy.horizon
    ring = np.zeros((len(lanes), h, h, ACTION_DIM), dtype=np.float32)  # lane, issue step % h, offset, action
    for t in range(options.max_steps):
        states = [lane.states[-1] for lane in active]
        third = render(env_params, states, cam3)
        wrist = render(env_params, states, camw)
        proprio = np.stack([s.gripper for s in states]).astype(np.float32)
        try:
            traces, chunks = policy.propose(t, states, third, wrist, proprio)
        except ContextOverflowError:
            for lane in active:
                lane.overflow = True
            break
        if traces is not None:
            for lane, trace in zip(active, traces):
                lane.traces.append((t, trace))
        ring[:, t % h] = chunks
        actions = [Action(a, env_params.delta_max) for a in temporal_ensemble(ring, t, options.ensemble_decay)]
        policy.commit(np.stack([a.deltas for a in actions]).astype(np.float32))
        for lane, action in zip(active, actions):
            lane.states.append(sim_step(env_params, lane.states[-1], action))
            lane.actions.append(action.deltas.copy())
        going = np.flatnonzero([success(env_params, lane.states[-1], task) != 1.0 for lane in active])
        if len(going) < len(active):
            active = [active[j] for j in going]
            if not active:
                break
            ring = ring[going]
            policy.keep_lanes(going)
    return [lane.result(env_params, task) for lane in lanes]


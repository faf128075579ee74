"""Training loop and closed-loop inference.

Training is teacher-forced: each step samples one task subset, builds a
prompt+target sequence, and applies one clipped AdamW update of the
combined loss. Inference runs the same trunk, `model.transformer_hidden`,
incrementally against a per-layer key/value cache; this module holds no
network math of its own. At each environment step the policy decodes the
previous step's executed action together with the new state token in one
call, optionally decodes a trace and feeds it back (every k-th step),
decodes an action chunk, and executes the temporal ensemble of all chunks
covering the current step. On steps without a trace decode the zero-vector
trace token is fed, matching the masking distribution seen in training.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Protocol

import numpy as np

from .data import Trajectory, build_sequence
from .model import (
    ACTION_DIM,
    ContextOverflowError,
    KVCache,
    PolicyModel,
    effective_trace_mask,
    encode_action_batch,
    encode_reasoning_batch,
    encode_state_batch,
    interleave_tokens,
    sequence_loss,
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
    betas: tuple[float, float] = (0.9, 0.95)
    weight_decay: float = 0.01
    adam_eps: float = 1e-8
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

    Fully determined by (model parameters, dataset order, cfg.seed). Aborts
    with a diagnostic if the loss or the gradient norm goes non-finite,
    before that step's update touches the parameters.
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

    rng = np.random.default_rng(cfg.seed)
    opt = AdamW(model.params, lr=cfg.lr, betas=cfg.betas, weight_decay=cfg.weight_decay, eps=cfg.adam_eps)
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


def smoothed_endpoints(losses: list[float], window: int = 100) -> tuple[float, float]:
    """(mean of the first `window` losses, mean of the last `window`)."""
    if not losses:
        raise ValueError("empty loss history")
    w = max(1, min(window, len(losses)))
    return float(np.mean(losses[:w])), float(np.mean(losses[-w:]))


# ---------------------------------------------------------------------------
# KV-cached incremental decoding
# ---------------------------------------------------------------------------


def kv_decode(cache: KVCache, model: PolicyModel, new_tokens: np.ndarray) -> tuple[np.ndarray, KVCache]:
    """Extend the cache by `new_tokens` (n, d) and return their hidden states."""
    hidden = transformer_hidden(model, Tensor(np.reshape(new_tokens, (-1, model.config.d_model))), cache)
    return hidden.data, cache


# ---------------------------------------------------------------------------
# temporal ensembling
# ---------------------------------------------------------------------------


@dataclass
class EnsembleBuffer:
    horizon: int
    decay: float = 0.1
    chunks: list[tuple[int, np.ndarray]] = field(default_factory=list)

    def push(self, issue_step: int, chunk: np.ndarray) -> None:
        self.chunks.append((issue_step, np.asarray(chunk, dtype=np.float32).reshape(self.horizon, ACTION_DIM)))

    def prune(self, current_step: int) -> None:
        self.chunks = [(s, c) for s, c in self.chunks if s + self.horizon > current_step]


def temporal_ensemble(buffer: EnsembleBuffer, current_step: int) -> np.ndarray:
    """Weighted mean of every buffered prediction for the current step.

    Weights are exp(-decay * age) with age 0 the oldest covering chunk, so
    earlier plans dominate and the executed action stays smooth.
    """
    buffer.prune(current_step)
    covering = [(s, c) for s, c in buffer.chunks if s <= current_step < s + buffer.horizon]
    if not covering:
        raise ValueError(f"no chunk covers step {current_step}")
    covering.sort(key=lambda item: item[0])
    weights = np.exp(-buffer.decay * np.arange(len(covering), dtype=np.float64))
    stacked = np.stack([c[current_step - s].astype(np.float64) for s, c in covering])
    return (weights[:, None] * stacked).sum(axis=0) / weights.sum()


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
    horizon: int  # length of each proposed action chunk

    def begin(self, prompt_demos: list[Trajectory]) -> None: ...

    def propose(self, t: int, state: WorldState, third: np.ndarray, wrist: np.ndarray, proprio: np.ndarray) -> tuple[np.ndarray | None, np.ndarray]: ...

    def commit(self, executed_action: np.ndarray) -> None: ...


class TransformerPolicy:
    """Closed-loop wrapper around a PolicyModel with a KV cache. `commit`
    only holds the action token; `propose` decodes it with the next state
    token, so an environment step takes two trunk calls, not three."""

    def __init__(self, model: PolicyModel, reasoning_interval: int):
        self.model = model
        self.k = reasoning_interval
        self.horizon = model.config.chunk_h
        self.cache = KVCache(model.config)
        self._pending: list[np.ndarray] = []  # committed action token not yet decoded
        role = model.params["role_embed"].data
        self._role_state, self._role_reason, self._role_action = role[0], role[1], role[2]
        self._zero_trace_token = (
            encode_reasoning_batch(model, np.zeros((1, TRACE_DIM), np.float32), np.array([True])).data[0]
            + self._role_reason
        )

    def begin(self, prompt_demos: list[Trajectory]) -> None:
        if not prompt_demos:
            raise ValueError("need at least one prompt demo")
        model = self.model
        total = sum(len(d) for d in prompt_demos)
        f_s = encode_state_batch(
            model,
            np.concatenate([d.third for d in prompt_demos]),
            np.concatenate([d.wrist for d in prompt_demos]),
            np.concatenate([d.proprio for d in prompt_demos]),
        )
        traces = np.concatenate([d.traces for d in prompt_demos])
        prompt_mask = effective_trace_mask(
            model.config, np.zeros(total, dtype=bool), np.zeros(total, dtype=bool)
        )
        f_r = encode_reasoning_batch(model, traces, prompt_mask)
        f_a = encode_action_batch(model, np.concatenate([d.actions for d in prompt_demos]))
        tokens = interleave_tokens(model, f_s, f_r, f_a).data
        kv_decode(self.cache, model, tokens)

    def propose(self, t, state, third, wrist, proprio):
        model = self.model
        # room for the pending action plus this step's state, reasoning and action
        if self.cache.remaining < 3 + len(self._pending):
            raise ContextOverflowError("prompt plus rollout exceeded the model context")
        f_s = encode_state_batch(model, third[None], wrist[None], proprio[None]).data[0] + self._role_state
        hidden, _ = kv_decode(self.cache, model, np.stack(self._pending + [f_s]))
        self._pending = []
        trace = None
        if self.k > 0 and t % self.k == 0:
            raw = hidden[-1] @ model.params["reasoning_head.w"].data + model.params["reasoning_head.b"].data
            trace = np.clip(raw, 0.0, 1.0).astype(np.float32)
            token_r = encode_reasoning_batch(model, trace[None], np.array([False])).data[0] + self._role_reason
        else:
            token_r = self._zero_trace_token
        hidden_r, _ = kv_decode(self.cache, model, token_r[None])
        chunk = hidden_r[0] @ model.params["action_head.w"].data + model.params["action_head.b"].data
        return trace, chunk.reshape(model.config.chunk_h, ACTION_DIM)

    def commit(self, executed_action: np.ndarray) -> None:
        token_a = (
            encode_action_batch(self.model, np.asarray(executed_action, np.float32)[None]).data[0]
            + self._role_action
        )
        self._pending = [token_a]


class ExpertReplayPolicy:
    """Harness-sanity stub: plans chunks by simulating the scripted expert."""

    def __init__(self, params: SimParams, task: TaskSpec, horizon: int):
        self.params = params
        self.task = task
        self.horizon = horizon

    def begin(self, prompt_demos) -> None:
        pass

    def propose(self, t, state, third, wrist, proprio):
        from .sim import expert_policy

        chunk = np.zeros((self.horizon, ACTION_DIM), dtype=np.float32)
        sim_state = state
        for j in range(self.horizon):
            action = expert_policy(self.params, sim_state, self.task)
            chunk[j] = action.deltas
            sim_state = sim_step(self.params, sim_state, action)
        return None, chunk

    def commit(self, executed_action) -> None:
        pass


def rollout(
    policy: ChunkPolicy | PolicyModel,
    env_params: SimParams,
    initial_state: WorldState,
    task: TaskSpec,
    prompt_demos: list[Trajectory],
    options: RolloutOptions,
) -> RolloutResult:
    """Run the closed loop until success, max_steps, or context overflow.

    A PolicyModel is wrapped in TransformerPolicy with the options'
    reasoning interval; any ChunkPolicy implementation runs through the
    identical ensembling and stepping path.
    """
    if isinstance(policy, PolicyModel):
        policy = TransformerPolicy(policy, options.reasoning_interval)
    try:
        policy.begin(prompt_demos)
    except ContextOverflowError:
        return RolloutResult(0.0, 0, True, [initial_state], np.zeros((0, ACTION_DIM), np.float32), [])
    cam3, camw = third_camera(env_params), wrist_camera(env_params)
    buffer = EnsembleBuffer(horizon=policy.horizon, decay=options.ensemble_decay)
    states = [initial_state]
    actions: list[np.ndarray] = []
    traces: list[tuple[int, np.ndarray]] = []
    state = initial_state
    overflow = False
    for t in range(options.max_steps):
        third = render(env_params, state, cam3)
        wrist = render(env_params, state, camw)
        proprio = state.gripper.astype(np.float32)
        try:
            trace, chunk = policy.propose(t, state, third, wrist, proprio)
        except ContextOverflowError:
            overflow = True
            break
        if trace is not None:
            traces.append((t, trace))
        buffer.push(t, chunk)
        executed = temporal_ensemble(buffer, t)
        action = Action(executed, env_params.delta_max)
        policy.commit(action.deltas.astype(np.float32))
        state = sim_step(env_params, state, action)
        states.append(state)
        actions.append(action.deltas.copy())
        if success(env_params, state, task) == 1.0:
            break
    return RolloutResult(
        score=success(env_params, state, task),
        steps_used=len(actions),
        overflow=overflow,
        states=states,
        executed_actions=np.array(actions, dtype=np.float64).reshape(len(actions), ACTION_DIM),
        predicted_traces=traces,
    )

"""KV-cache equivalence, ensembling math, rollout plumbing, training loop."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from conftest import toy_trajectory
from deskicl import engine, sim, tensor
from deskicl.data import build_sequence
from deskicl.engine import (
    ContextOverflowError,
    ExpertReplayPolicy,
    KVCache,
    TrainConfig,
    TransformerPolicy,
    kv_decode,
    rollout,
    temporal_ensemble,
    train,
)
from deskicl.harness import record_episode
from deskicl.model import TOKENS_PER_STEP, ModelConfig, PolicyModel, forward_sequence, transformer_hidden
from deskicl.sim import TaskSpec
from deskicl.tensor import Tensor

SMALL_CFG = ModelConfig(
    d_model=48,
    n_layers=2,
    n_heads=4,
    patch_size=8,
    third_resolution=16,
    wrist_resolution=8,
    max_context=1024,
    chunk_h=4,
)


def small_model(seed=0):
    return PolicyModel.init(SMALL_CFG, seed=seed)


# ---------------------------------------------------------------------------
# KV cache
# ---------------------------------------------------------------------------


def test_kv_decode_full_block_matches_forward():
    model = small_model(1)
    tokens = np.random.default_rng(0).normal(size=(40, 48)).astype(np.float32)
    full = transformer_hidden(model, Tensor(tokens)).data
    out, cache = kv_decode(KVCache(SMALL_CFG), model, tokens)
    assert cache.length == 40
    assert np.abs(out - full).max() <= 1e-5


def test_kv_decode_token_by_token_matches_forward():
    model = small_model(2)
    rng = np.random.default_rng(1)
    for trial in range(3):
        tokens = rng.normal(size=(60, 48)).astype(np.float32)
        full = transformer_hidden(model, Tensor(tokens)).data
        cache = KVCache(SMALL_CFG)
        rows = []
        for t in range(60):
            out, _ = kv_decode(cache, model, tokens[t:t + 1])
            rows.append(out[0])
        assert cache.length == 60
        assert np.abs(np.stack(rows) - full).max() <= 1e-5


def test_kv_decode_mixed_block_sizes():
    model = small_model(3)
    tokens = np.random.default_rng(2).normal(size=(30, 48)).astype(np.float32)
    full = transformer_hidden(model, Tensor(tokens)).data
    cache = KVCache(SMALL_CFG)
    pieces = []
    for lo, hi in ((0, 11), (11, 12), (12, 27), (27, 30)):
        out, _ = kv_decode(cache, model, tokens[lo:hi])
        pieces.append(out)
        assert cache.length == hi
    assert np.abs(np.concatenate(pieces) - full).max() <= 1e-5


def test_kv_decode_overflow():
    cfg = ModelConfig(**{**SMALL_CFG.__dict__, "max_context": 16})
    model = PolicyModel.init(cfg, seed=0)
    cache = KVCache(cfg)
    kv_decode(cache, model, np.zeros((10, 48), np.float32))
    with pytest.raises(ContextOverflowError):
        kv_decode(cache, model, np.zeros((7, 48), np.float32))


def test_kv_decode_keeps_the_model_dtype():
    model = small_model(4).astype(np.float64)
    tokens = np.random.default_rng(5).normal(size=(20, 48))
    full = transformer_hidden(model, Tensor(tokens, dtype=np.float64)).data
    cache = KVCache(SMALL_CFG)
    pieces = [kv_decode(cache, model, tokens[:16])[0]]
    pieces += [kv_decode(cache, model, tokens[t:t + 1])[0] for t in range(16, 20)]
    out = np.concatenate(pieces)
    assert out.dtype == np.float64
    assert np.abs(out - full).max() <= 1e-12


def test_decode_matches_teacher_forced_heads():
    """The closed-loop path (prompt prefill, per-step encoders, cached trunk,
    heads) reproduces the teacher-forced forward of a [prompt, target]
    sequence whose target traces are all masked, as a k=0 decode feeds
    them; at k=1, at every step, that of the sequence whose target trace
    inputs are the traces the policy decoded."""
    task = TaskSpec("pick_place", 1, 0)
    episodes = [_demo(task, 40 + i, n_obj=1, n_rec=1) for i in range(2)]
    seq = build_sequence(episodes, 1, np.random.default_rng(0), chunk_h=SMALL_CFG.chunk_h)
    seq.reasoning_input_mask[:] = True
    prompt, target = seq.episodes
    states = _expert_states(task, 40 + next(i for i, e in enumerate(episodes) if e is target), n_obj=1, n_rec=1)
    model = small_model(13)
    trace_pred, chunk_pred = forward_sequence(model, seq)  # the target steps' predictions
    target_chunks = chunk_pred.data

    policy = TransformerPolicy(model, 0)
    policy.begin([prompt], 1)
    errors = []
    for t in range(len(target)):
        traces, chunks = policy.propose(t, states[t:t + 1])
        assert traces is None and chunks.shape == (1, SMALL_CFG.chunk_h, 4)
        errors.append(np.abs(chunks[0] - target_chunks[t]).max())
        policy.commit(target.actions[t:t + 1])
    assert len(errors) == len(target) > 30
    assert max(errors) <= 1e-5

    # k = 1 feeds each step's decoded trace back before its chunk is read:
    # the teacher-forced forward of the same sequence with those traces as
    # unmasked inputs predicts the same traces and chunks at every step
    policy = TransformerPolicy(model, 1)
    policy.begin([prompt], 1)
    decoded = []
    for t in range(len(target)):
        traces, chunks = policy.propose(t, states[t:t + 1])
        decoded.append((traces[0], chunks[0]))
        policy.commit(target.actions[t:t + 1])
    seq.traces[-len(target):] = [traces for traces, _ in decoded]
    seq.reasoning_input_mask[:] = False
    trace_pred, chunk_pred = forward_sequence(model, seq)
    for t, (traces, chunks) in enumerate(decoded):
        assert np.abs(traces - np.clip(trace_pred.data[t], 0.0, 1.0)).max() <= 1e-5
        assert np.abs(chunks - chunk_pred.data[t]).max() <= 1e-5


# ---------------------------------------------------------------------------
# temporal ensembling
# ---------------------------------------------------------------------------


def _ring(chunks_by_step, h):
    """The (1, h, h, 4) chunk ring after issuing the given chunks, one per
    step from step 0."""
    ring = np.zeros((1, h, h, 4), np.float32)
    for t, chunk in enumerate(chunks_by_step):
        ring[0, t % h] = chunk
    return ring


def test_ensemble_single_chunk_passthrough():
    chunk = np.arange(16, dtype=np.float32).reshape(4, 4)
    out = temporal_ensemble(_ring([chunk], 4), 0, 0.1)
    assert out.shape == (1, 4) and out.dtype == np.float64
    assert np.array_equal(out[0], chunk[0])


def test_ensemble_horizon_one_keeps_latest():
    ring = np.zeros((1, 1, 1, 4), np.float32)
    for t in range(5):
        ring[0, 0] = float(t)  # slot t % 1
        assert np.array_equal(temporal_ensemble(ring, t, 0.1), np.full((1, 4), float(t)))


def test_ensemble_hand_weighted_mean():
    ring = _ring([np.zeros((8, 4), np.float32), np.full((8, 4), 0.1, np.float32)], 8)
    out = temporal_ensemble(ring, 1, 0.1)
    expected = (0.0 * 1.0 + 0.1 * math.exp(-0.1)) / (1.0 + math.exp(-0.1))
    assert np.allclose(out, expected, atol=1e-9)
    assert abs(expected - 0.0475) < 5e-4


def test_ensemble_large_decay_keeps_oldest():
    rng = np.random.default_rng(3)
    chunks = rng.normal(size=(12, 8, 4)).astype(np.float32)
    assert np.abs(temporal_ensemble(_ring(chunks[:5], 8), 4, 50.0)[0] - chunks[0, 4]).max() < 1e-6
    # after the ring wraps, the oldest covering chunk is step t-h+1's
    assert np.abs(temporal_ensemble(_ring(chunks, 8), 11, 50.0)[0] - chunks[4, 7]).max() < 1e-6


def test_ensemble_lanes_are_independent():
    h, lanes, steps = 8, 3, 20
    rng = np.random.default_rng(5)
    chunks = rng.normal(size=(steps, lanes, h, 4)).astype(np.float32)
    ring = np.zeros((lanes, h, h, 4), np.float32)
    alone = [np.zeros((1, h, h, 4), np.float32) for _ in range(lanes)]
    for t in range(steps):
        ring[:, t % h] = chunks[t]
        together = temporal_ensemble(ring, t, 0.1)
        for j in range(lanes):
            alone[j][:, t % h] = chunks[t, j]
            assert together[j].tobytes() == temporal_ensemble(alone[j], t, 0.1)[0].tobytes()
            # the per-lane reference: covering chunks oldest first, weighted and summed one by one
            covering = np.stack([chunks[s, j, t - s].astype(np.float64) for s in range(max(0, t - h + 1), t + 1)])
            weights = np.exp(-0.1 * np.arange(len(covering), dtype=np.float64))
            assert together[j].tobytes() == ((weights[:, None] * covering).sum(axis=0) / weights.sum()).tobytes()


# ---------------------------------------------------------------------------
# rollout plumbing
# ---------------------------------------------------------------------------


def _demo(task, seed, n_obj=0, n_rec=0):
    return record_episode(SMALL_CFG, task, n_obj, n_rec, seed)


def _expert_states(task, seed, n_obj=0, n_rec=0):
    """The world states whose renders make `_demo(task, seed, n_obj, n_rec)`."""
    return sim.expert_rollout(sim.reset(task, n_obj, n_rec, seed), task)[0]


def test_rollout_expert_stub_scores_one():
    for kind_seed in range(4):
        if kind_seed % 2 == 0:
            task = TaskSpec("poke", kind_seed % 3)
        else:
            task = TaskSpec("pick_place", kind_seed % 3, kind_seed % 2)
        state = sim.reset(task, kind_seed % 3, 1 if task.kind == "pick_place" else 0, seed=50 + kind_seed)
        policy = ExpertReplayPolicy(task, horizon=4)
        [[result]] = rollout(policy, task, [([_demo(task, 99)], [state], 200)], 0.1)
        assert result.score == 1.0
        assert not result.overflow
        assert result.predicted_traces == []
        assert result.steps_used == len(result.executed_actions)


def test_rollout_reasoning_interval_counts():
    task = TaskSpec("poke", 0)
    state = sim.reset(task, 1, 0, seed=7)
    demo = _demo(task, 31)
    model = small_model(5)  # untrained: will not succeed, runs to max_steps
    for k, expected in ((1, 12), (4, 3), (5, 3), (0, 0)):
        [[result]] = rollout(TransformerPolicy(model, k), task, [([demo], [state], 12)], 0.1)
        n = result.steps_used
        assert n == 12
        assert len(result.predicted_traces) == (math.ceil(n / k) if k else 0) == expected
        for t, trace in result.predicted_traces:
            assert trace.shape == (10,)
            assert np.all(trace >= 0.0) and np.all(trace <= 1.0)


@pytest.mark.parametrize("k", [0, 3])
def test_rollout_trunk_calls_per_step(k, monkeypatch):
    """One prefill, then one trunk call per environment step, plus a second
    one on each step that decodes a trace."""
    calls = []

    def counting_kv_decode(cache, model, new_tokens):
        calls.append(new_tokens.shape[-2])
        return kv_decode(cache, model, new_tokens)

    monkeypatch.setattr(engine, "kv_decode", counting_kv_decode)
    task = TaskSpec("poke", 0)
    state = sim.reset(task, 1, 0, seed=7)
    n = 13
    [[result]] = rollout(TransformerPolicy(small_model(5), k), task, [([_demo(task, 31)], [state], n)], 0.1)
    assert result.steps_used == n
    assert len(calls) == 1 + n + (math.ceil(n / k) if k else 0)
    assert sum(calls[1:]) == 3 * n - 1  # every step's three tokens, the last action never decoded


def test_rollout_deterministic():
    task = TaskSpec("poke", 1)
    state = sim.reset(task, 1, 0, seed=11)
    demo = _demo(task, 32)
    model = small_model(6)
    [[a]] = rollout(TransformerPolicy(model, 1), task, [([demo], [state], 15)], 0.1)
    [[b]] = rollout(TransformerPolicy(model, 1), task, [([demo], [state], 15)], 0.1)
    assert a.score == b.score and a.steps_used == b.steps_used
    assert np.array_equal(a.executed_actions, b.executed_actions)
    for (ta, tra), (tb, trb) in zip(a.predicted_traces, b.predicted_traces):
        assert ta == tb and np.array_equal(tra, trb)


def test_rollout_overflow_flagged():
    cfg = ModelConfig(**{**SMALL_CFG.__dict__, "max_context": 64})
    model = PolicyModel.init(cfg, seed=0)
    task = TaskSpec("poke", 0)
    state = sim.reset(task, 0, 0, seed=3)
    demo = _demo(task, 33)  # 9 steps -> 27 prompt tokens, leaving room for 12 rollout steps
    [[result]] = rollout(TransformerPolicy(model, 1), task, [([demo], [state], 50)], 0.1)
    assert result.overflow
    assert result.steps_used == 12
    assert result.score < 1.0
    _assert_lane_record(result, task)


def test_rollout_prompt_over_the_context_stops_every_lane_before_its_first_step():
    cfg = ModelConfig(**{**SMALL_CFG.__dict__, "max_context": 24})
    model = PolicyModel.init(cfg, seed=0)
    task = TaskSpec("poke", 0)
    states = [sim.reset(task, 0, 0, seed=3 + i) for i in range(3)]
    demo = _demo(task, 33)  # 9 steps -> 27 prompt tokens, more than the 24 the context holds
    [results] = rollout(TransformerPolicy(model, 1), task, [([demo], states, 50)], 0.1)
    for state, result in zip(states, results, strict=True):
        assert result.overflow and result.steps_used == 0 and result.executed_actions == []
        assert len(result.states) == 1 and result.states[0] is state
        assert result.predicted_traces == []
        _assert_lane_record(result, task)


class _ExpertInSomeLanes:
    """The transformer policy in every lane, but the lanes flagged in
    `expert` execute the scripted expert's chunks, so they succeed and
    leave the lockstep early while the others go on."""

    def __init__(self, model, k, task, expert):
        self.inner = TransformerPolicy(model, k)
        self.expert = ExpertReplayPolicy(task, SMALL_CFG.chunk_h)
        self.horizon = self.inner.horizon
        self.flags = np.array(expert, dtype=bool)

    def begin(self, prompt_demos, lanes):
        self.inner.begin(prompt_demos, lanes)

    def propose(self, t, states):
        traces, chunks = self.inner.propose(t, states)
        _, planned = self.expert.propose(t, states)
        return traces, np.where(self.flags[:, None, None], planned, chunks)

    def commit(self, executed_actions):
        self.inner.commit(executed_actions)

    def keep_lanes(self, lanes):
        self.inner.keep_lanes(lanes)
        self.flags = self.flags[lanes]

    def full_lanes(self):
        return self.inner.full_lanes()


def _state_key(s):
    arrays = (s.gripper, s.initial_object_positions, s.poked, s.ever_held, s.released_inside)
    return tuple(a.tobytes() for a in arrays) + (tuple(s.objects), tuple(s.receptacles), s.held_object)


def _assert_lane_record(result, task):
    """A lane's record: the score of its last state, reached by a lane that
    left on its first success, one executed action per step and traces only
    at steps that executed."""
    assert result.score == sim.success(result.states[-1], task)
    assert all(sim.success(s, task) != 1.0 for s in result.states[:-1])
    assert result.steps_used == len(result.executed_actions) == len(result.states) - 1
    assert all(t < result.steps_used for t, _ in result.predicted_traces)


def _assert_same_rollout(a, b, task):
    _assert_lane_record(a, task)
    _assert_lane_record(b, task)
    assert (a.score, a.steps_used, a.overflow) == (b.score, b.steps_used, b.overflow)
    assert np.array(a.executed_actions).tobytes() == np.array(b.executed_actions).tobytes()
    assert [t for t, _ in a.predicted_traces] == [t for t, _ in b.predicted_traces]
    assert all(x.tobytes() == y.tobytes() for (_, x), (_, y) in zip(a.predicted_traces, b.predicted_traces))
    assert [_state_key(s) for s in a.states] == [_state_key(s) for s in b.states]


@pytest.mark.parametrize("k", [0, 1, 3])
def test_rollout_lanes_match_single_lane_runs(k):
    """Four lanes in lockstep give each lane the bits of its own 1-lane
    rollout; lane 0 succeeds and leaves early, the rest run to max_steps.

    At d_model 64 a (B, d) @ (d, n) head product rounds differently from B
    one-row products, so a lane-flattening product shows up here; at 48 it
    may not."""
    task = TaskSpec("poke", 0)
    states = [sim.reset(task, i % 3, 0, seed=60 + i) for i in range(4)]
    demo = _demo(task, 31)
    model = PolicyModel.init(ModelConfig(**{**SMALL_CFG.__dict__, "d_model": 64}), seed=7)
    flags = [True, False, False, False]
    [together] = rollout(_ExpertInSomeLanes(model, k, task, flags), task, [([demo], states, 40)], 0.1)
    assert together[0].score == 1.0 and together[0].steps_used < 40
    assert [r.steps_used for r in together[1:]] == [40, 40, 40]
    for state, flag, lockstep in zip(states, flags, together):
        [[alone]] = rollout(_ExpertInSomeLanes(model, k, task, [flag]), task, [([demo], [state], 40)], 0.1)
        _assert_same_rollout(lockstep, alone, task)


def test_rollout_lanes_overflow_together():
    cfg = ModelConfig(**{**SMALL_CFG.__dict__, "max_context": 64})
    model = PolicyModel.init(cfg, seed=0)
    task = TaskSpec("poke", 0)
    states = [sim.reset(task, 0, 0, seed=3 + i) for i in range(4)]
    demo = _demo(task, 33)
    [together] = rollout(TransformerPolicy(model, 1), task, [([demo], states, 50)], 0.1)
    assert all(r.overflow and r.steps_used == 12 for r in together)
    for state, lockstep in zip(states, together):
        [[alone]] = rollout(TransformerPolicy(model, 1), task, [([demo], [state], 50)], 0.1)
        _assert_same_rollout(lockstep, alone, task)


def _assert_groups_match_their_solo_rollouts(make_policy, task, groups, together):
    """Each group's lanes in `together` equal a rollout of that group alone,
    and its lanes' flags."""
    first = 0
    for group, results in zip(groups, together, strict=True):
        lanes = len(group[1])
        [alone] = rollout(make_policy(first, lanes), task, [group], 0.1)
        for lockstep, solo in zip(results, alone, strict=True):
            _assert_same_rollout(lockstep, solo, task)
        first += lanes


@pytest.mark.parametrize("k", [0, 1, 3])
def test_rollout_groups_in_lockstep_match_their_solo_rollouts(k):
    """Three lane groups with prompts of different lengths run in one
    lockstep: lanes leave on success, one group ends at its own max_steps
    while the others go on, and every lane has the bits of its group's
    solo rollout. The policy is left with no lanes."""
    task = TaskSpec("poke", 0)
    states = [sim.reset(task, i % 3, 0, seed=80 + i) for i in range(5)]
    demos = [_demo(task, 31), _demo(task, 35), _demo(task, 29, n_obj=2)]
    assert len({len(d) for d in demos}) == 3
    groups = [([demos[0]], states[:2], 30), ([demos[1]], states[2:3], 7), ([demos[2]], states[3:], 30)]
    flags = [True, False, False, False, True]
    model = PolicyModel.init(ModelConfig(**{**SMALL_CFG.__dict__, "d_model": 64}), seed=7)
    policy = _ExpertInSomeLanes(model, k, task, flags)
    together = rollout(policy, task, groups, 0.1)
    assert policy.inner.caches == [] and policy.inner._pending.shape[0] == 0
    assert [[r.score == 1.0 for r in g] for g in together] == [[True, False], [False], [False, True]]
    assert together[0][0].steps_used < 30 and together[2][1].steps_used < 30
    assert [together[0][1].steps_used, together[1][0].steps_used, together[2][0].steps_used] == [30, 7, 30]
    assert not any(r.overflow for g in together for r in g)
    _assert_groups_match_their_solo_rollouts(
        lambda first, lanes: _ExpertInSomeLanes(model, k, task, flags[first:first + lanes]), task, groups, together
    )


def test_rollout_one_group_overflows_while_the_others_go_on():
    """Each group overflows at its own step, given its prompt's length: a
    prompt over the context stops its group before step 0, and a group
    that ends at its max_steps first never overflows."""
    cfg = ModelConfig(**{**SMALL_CFG.__dict__, "max_context": 64})
    model = PolicyModel.init(cfg, seed=0)
    task = TaskSpec("poke", 0)
    states = [sim.reset(task, 0, 0, seed=3 + i) for i in range(5)]
    nine, eleven = _demo(task, 33), _demo(task, 35)  # 27 and 33 prompt tokens
    long = [_demo(task, 34), _demo(task, 28)]  # 96 prompt tokens, over the 64 the context holds
    assert (len(nine), len(eleven), sum(map(len, long))) == (9, 11, 32)
    groups = [([nine], states[:2], 50), ([eleven], states[2:3], 50), (long, states[3:4], 50), ([nine], states[4:], 5)]
    policy = TransformerPolicy(model, 1)
    together = rollout(policy, task, groups, 0.1)
    assert policy.caches == []
    assert [[(r.overflow, r.steps_used) for r in g] for g in together] == [
        [(True, 12), (True, 12)], [(True, 10)], [(True, 0)], [(False, 5)]
    ]
    _assert_groups_match_their_solo_rollouts(lambda first, lanes: TransformerPolicy(model, 1), task, groups, together)


def test_rollout_leaves_the_policy_with_no_lanes_when_a_step_raises():
    task = TaskSpec("poke", 0)
    states = [sim.reset(task, 1, 0, seed=70 + i) for i in range(3)]
    groups = [([_demo(task, 31)], states[:2], 9), ([_demo(task, 35)], states[2:], 9)]
    policy = TransformerPolicy(small_model(5), 1)

    def failing(t, lane_states):
        if t == 2:
            raise RuntimeError("renderer gone")
        return TransformerPolicy.propose(policy, t, lane_states)

    policy.propose = failing
    with pytest.raises(RuntimeError, match="renderer gone"):
        rollout(policy, task, groups, 0.1)
    assert policy.caches == [] and policy._pending.shape[0] == 0
    del policy.propose
    again, fresh = rollout(policy, task, groups, 0.1), rollout(TransformerPolicy(small_model(5), 1), task, groups, 0.1)
    for a, b in zip(sum(again, []), sum(fresh, []), strict=True):
        _assert_same_rollout(a, b, task)


def test_keep_lanes_keeps_the_groups_in_order_and_drops_an_emptied_group():
    task = TaskSpec("poke", 0)
    policy = TransformerPolicy(small_model(5), 1)
    for seed, lanes in ((31, 2), (35, 1), (29, 3)):
        policy.begin([_demo(task, seed)], lanes)
    assert [c.lanes for c in policy.caches] == [2, 1, 3] and policy._pending.shape[0] == 6
    with pytest.raises(ValueError, match="groups in order"):
        policy.keep_lanes(np.array([3, 0]))
    middle = policy.caches[1]
    policy.keep_lanes(np.array([1, 0, 5]))
    assert [c.lanes for c in policy.caches] == [2, 1] and middle not in policy.caches
    assert policy._pending.shape[0] == 3 and middle.k is None


def test_rollout_renders_only_what_the_policy_observes(monkeypatch):
    """The expert stub reads the world states and renders nothing; the
    transformer policy renders both views of all its lanes in one call at
    each step."""
    task = TaskSpec("poke", 0)
    states = [sim.reset(task, 1, 0, seed=70 + i) for i in range(3)]
    demo = _demo(task, 31)
    cameras = []
    render = sim.render

    def counting_render(states, third_resolution, wrist_resolution):
        cameras.append((len(states), third_resolution, wrist_resolution))
        return render(states, third_resolution, wrist_resolution)

    monkeypatch.setattr(sim, "render", counting_render)
    [[result]] = rollout(ExpertReplayPolicy(task, SMALL_CFG.chunk_h), task, [([demo], states[:1], 200)], 0.1)
    assert result.score == 1.0 and result.steps_used > 0
    assert cameras == []
    [results] = rollout(TransformerPolicy(small_model(5), 1), task, [([demo], states, 9)], 0.1)
    assert [r.steps_used for r in results] == [9, 9, 9]
    assert cameras == [(3, 16, 8)] * 9


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


def _toy_dataset(n_per_task=6, tasks=(0, 1)):
    episodes = []
    for cls in tasks:
        task = TaskSpec("poke", cls)
        for i in range(n_per_task):
            episodes.append(_demo(task, 200 + 17 * cls + i, n_obj=i % 3))
    return episodes


def test_train_zero_steps_keeps_init():
    model = small_model(8)
    before = {k: p.data.copy() for k, p in model.params.items()}
    history = train(model, _toy_dataset(3), TrainConfig(steps=0, seed=0))
    assert history == []
    for k, p in model.params.items():
        assert np.array_equal(p.data, before[k])


def test_train_deterministic_checkpoints(tmp_path):
    def run(path):
        model = small_model(9)
        train(model, _toy_dataset(4), TrainConfig(steps=8, seed=4, lr=1e-3))
        model.save(path)
        return path.read_bytes()

    assert run(tmp_path / "a.ckpt") == run(tmp_path / "b.ckpt")


def test_train_loss_drops_on_toy_set():
    model = small_model(10)
    history = train(model, _toy_dataset(10), TrainConfig(steps=500, seed=1, lr=1e-3))
    losses = [r.loss for r in history]
    initial, final = float(np.mean(losses[:50])), float(np.mean(losses[-50:]))
    assert final < 0.5 * initial, f"loss did not halve: {initial:.4f} -> {final:.4f}"


def test_train_stops_before_update_on_non_finite_grad_norm(monkeypatch):
    from deskicl import engine

    model = small_model(12)
    before = {k: p.data.copy() for k, p in model.params.items()}
    engine_backward = engine.backward

    def nan_backward(loss):
        engine_backward(loss)
        model.params["action_head.b"].grad[0] = np.nan

    monkeypatch.setattr(engine, "backward", nan_backward)
    with pytest.raises(RuntimeError, match=r"gradient norm nan at step 0 \(task poke_c[01]\)"):
        train(model, _toy_dataset(3), TrainConfig(steps=2, seed=0))
    for k, p in model.params.items():
        assert np.array_equal(p.data, before[k])


def test_train_steps_a_head_outside_the_loss_on_its_zero_gradient():
    """An `icrt` model's trace head carries no loss: every step leaves each
    parameter's one gradient buffer zeroed in place, and weight decay alone
    moves the trace head's weights."""
    model = PolicyModel.init(ModelConfig(**{**SMALL_CFG.__dict__, "target_reasoning": False}), seed=13)
    head, action_head = model.params["reasoning_head.w"], model.params["action_head.w"]
    expected, decayed_action = head.data.copy(), action_head.data.copy()
    grads = []
    cfg = TrainConfig(steps=2, seed=0, lr=1e-3, weight_decay=0.5, checkpoint_interval=1)
    train(model, _toy_dataset(3), cfg, checkpoint_hook=lambda step, m: grads.append({k: p.grad for k, p in m.params.items()}))
    assert len(grads) == 2
    for k, p in model.params.items():
        assert grads[0][k] is grads[1][k] is p.grad and not p.grad.any()
    for _ in range(2):
        expected *= 1.0 - cfg.lr * cfg.weight_decay
        decayed_action *= 1.0 - cfg.lr * cfg.weight_decay
    assert np.array_equal(head.data, expected)
    # the action head carries loss, so its gradient moves it further
    assert not np.array_equal(action_head.data, decayed_action)


def test_train_checks_the_context_budget_before_step_0():
    """A task whose longest sequence is over max_context, or one with an
    episode at other cameras than the model's, is refused before step 0:
    a ValueError naming the task, no parameter or gradient touched and no
    checkpoint hook called."""
    dataset = _toy_dataset(4)
    lengths = {}
    for traj in dataset:
        lengths.setdefault(traj.task_label, []).append(len(traj))
    # the 3 prompt demos plus the target of poke_c1 at their longest
    worst = 3 * sum(sorted(lengths["poke_c1"], reverse=True)[:4])
    assert worst > 3 * sum(sorted(lengths["poke_c0"], reverse=True)[:4])
    cfg = {**SMALL_CFG.__dict__, "max_context": worst - 1}
    odd = toy_trajectory("poke_c1", g=24, c=8)  # one episode of 24-pixel third-view cameras
    refusals = [
        (cfg, dataset, rf"task poke_c1: .*{worst} tokens"),
        ({**cfg, "max_context": worst}, dataset + [odd], r"task poke_c1: an episode sees 24/8-pixel cameras, the model 16/8"),
    ]
    for fields, episodes, message in refusals:
        model = PolicyModel.init(ModelConfig(**fields), seed=0)
        before = {k: p.data.copy() for k, p in model.params.items()}
        saves = []
        with pytest.raises(ValueError, match=message):
            train(model, episodes, TrainConfig(steps=2, seed=0, checkpoint_interval=1), checkpoint_hook=lambda step, m: saves.append(step))
        for k, p in model.params.items():
            assert np.array_equal(p.data, before[k]) and p.grad is None
        assert saves == []
    model = PolicyModel.init(ModelConfig(**{**SMALL_CFG.__dict__, "max_context": worst}), seed=0)
    train(model, dataset, TrainConfig(steps=1, seed=0))


def test_train_leaves_one_step_of_attention_tiles_at_the_longest_length(monkeypatch):
    """Each training step gives back every attention tile it took, so after
    steps of different lengths the pool holds, of each full-tile width, the
    most buffers that one step took. A step of L tokens whose last R are
    the target's takes, in each layer but the last, one tile of each width
    64, 128, ... up to L; the last layer runs only the R target rows, whose
    full tiles [i0, i0 + 64) take the width of their keys, L - R + i0 + 64
    rounded up to a multiple of 64."""
    pool = tensor._TilePool()
    monkeypatch.setattr(tensor, "_tiles", pool)
    steps = []

    def recording_build_sequence(*args, **kwargs):
        seq = build_sequence(*args, **kwargs)
        steps.append((TOKENS_PER_STEP * seq.n_steps, TOKENS_PER_STEP * seq.n_target))
        return seq

    monkeypatch.setattr(engine, "build_sequence", recording_build_sequence)
    train(small_model(14), _toy_dataset(4), TrainConfig(steps=6, seed=0))
    tile = tensor._QUERY_TILE
    lengths = [length for length, _ in steps]
    assert min(lengths) // tile < max(lengths) // tile
    expected = Counter()
    for length, target in steps:
        taken = Counter({w: SMALL_CFG.n_layers - 1 for w in range(tile, length + 1, tile)})
        taken.update(-(-(length - target + i1) // tile) * tile for i1 in range(tile, target + 1, tile))
        expected |= taken
    assert sum(expected.values()) < SMALL_CFG.n_layers * (max(lengths) // tile)  # the last layer took fewer
    assert {key: len(bufs) for key, bufs in pool.spares.items()} == {
        ((SMALL_CFG.n_heads,), w, np.dtype(np.float32)): n for w, n in expected.items()
    }


_TRAIN_IN_SUBPROCESS = """
import sys
import test_engine as te
model = te.small_model(9)
te.train(model, te._toy_dataset(4), te.TrainConfig(steps=8, seed=4, lr=1e-3))
model.save(sys.argv[1])
"""


def test_train_deterministic_per_blas_thread_setting(tmp_path):
    """Training is bitwise reproducible for a fixed OPENBLAS_NUM_THREADS:
    two fresh processes under the same setting, 1 or 2 threads, write
    byte-identical checkpoints. Nothing is claimed across settings, since
    BLAS may split and sum a product differently with more threads."""
    here = Path(__file__).resolve().parent
    path = os.pathsep.join([str(here), str(here.parent / "src")])
    for threads in ("1", "2"):
        blobs = []
        for run in range(2):
            ckpt = tmp_path / f"t{threads}_{run}.ckpt"
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": path}
            subprocess.run([sys.executable, "-c", _TRAIN_IN_SUBPROCESS, str(ckpt)], env=env, check=True, timeout=300)
            blobs.append(ckpt.read_bytes())
        assert blobs[0] == blobs[1], f"OPENBLAS_NUM_THREADS={threads}"


def test_train_empty_dataset_errors():
    model = small_model(11)
    with pytest.raises(ValueError):
        train(model, [], TrainConfig(steps=1))

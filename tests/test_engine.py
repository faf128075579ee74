"""KV-cache equivalence, ensembling math, rollout plumbing, training loop."""

from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import record_episode
from deskicl import sim
from deskicl.data import build_sequence
from deskicl.engine import (
    ContextOverflowError,
    EnsembleBuffer,
    ExpertReplayPolicy,
    KVCache,
    RolloutOptions,
    TrainConfig,
    TransformerPolicy,
    kv_decode,
    rollout,
    smoothed_endpoints,
    temporal_ensemble,
    train,
)
from deskicl.model import ModelConfig, PolicyModel, transformer_hidden
from deskicl.sim import SimParams, TaskSpec
from deskicl.tensor import Tensor

SMALL_SIM = SimParams(third_resolution=16, wrist_resolution=8)
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


# ---------------------------------------------------------------------------
# temporal ensembling
# ---------------------------------------------------------------------------


def test_ensemble_single_chunk_passthrough():
    buf = EnsembleBuffer(horizon=4)
    chunk = np.arange(16, dtype=np.float32).reshape(4, 4)
    buf.push(0, chunk)
    for t in range(4):
        assert np.allclose(temporal_ensemble(buf, t), chunk[t])


def test_ensemble_horizon_one_keeps_latest():
    buf = EnsembleBuffer(horizon=1)
    for t in range(5):
        buf.push(t, np.full((1, 4), float(t), np.float32))
        assert np.allclose(temporal_ensemble(buf, t), t)
        assert len(buf.chunks) == 1  # earlier chunks no longer cover


def test_ensemble_hand_weighted_mean():
    buf = EnsembleBuffer(horizon=8, decay=0.1)
    buf.push(0, np.zeros((8, 4), np.float32))
    buf.push(1, np.full((8, 4), 0.1, np.float32))
    out = temporal_ensemble(buf, 1)
    expected = (0.0 * 1.0 + 0.1 * math.exp(-0.1)) / (1.0 + math.exp(-0.1))
    assert np.allclose(out, expected, atol=1e-9)
    assert abs(expected - 0.0475) < 5e-4


def test_ensemble_large_decay_keeps_oldest():
    buf = EnsembleBuffer(horizon=8, decay=50.0)
    rng = np.random.default_rng(3)
    oldest = rng.normal(size=(8, 4)).astype(np.float32)
    buf.push(0, oldest)
    for t in range(1, 5):
        buf.push(t, rng.normal(size=(8, 4)).astype(np.float32))
    out = temporal_ensemble(buf, 4)
    assert np.abs(out - oldest[4]).max() < 1e-6


def test_ensemble_empty_errors():
    buf = EnsembleBuffer(horizon=4)
    with pytest.raises(ValueError):
        temporal_ensemble(buf, 0)
    buf.push(0, np.zeros((4, 4), np.float32))
    with pytest.raises(ValueError):
        temporal_ensemble(buf, 10)  # pruned away


# ---------------------------------------------------------------------------
# rollout plumbing
# ---------------------------------------------------------------------------


def _demo(task, seed, n_obj=0, n_rec=0):
    return record_episode(SMALL_SIM, task, n_obj, n_rec, seed)


def test_rollout_expert_stub_scores_one():
    for kind_seed in range(4):
        if kind_seed % 2 == 0:
            task = TaskSpec("poke", kind_seed % 3)
        else:
            task = TaskSpec("pick_place", kind_seed % 3, kind_seed % 2)
        state = sim.reset(SMALL_SIM, task, kind_seed % 3, 1 if task.kind == "pick_place" else 0, seed=50 + kind_seed)
        policy = ExpertReplayPolicy(SMALL_SIM, task, horizon=4)
        result = rollout(policy, SMALL_SIM, state, task, [_demo(task, 99)], RolloutOptions(max_steps=200))
        assert result.score == 1.0
        assert not result.overflow
        assert result.predicted_traces == []
        assert result.steps_used == len(result.executed_actions)


def test_rollout_reasoning_interval_counts():
    task = TaskSpec("poke", 0)
    state = sim.reset(SMALL_SIM, task, 1, 0, seed=7)
    demo = _demo(task, 31)
    model = small_model(5)  # untrained: will not succeed, runs to max_steps
    for k, expected in ((1, 12), (4, 3), (5, 3), (0, 0)):
        options = RolloutOptions(reasoning_interval=k, max_steps=12)
        result = rollout(model, SMALL_SIM, state, task, [demo], options)
        n = result.steps_used
        assert n == 12
        assert len(result.predicted_traces) == (math.ceil(n / k) if k else 0) == expected
        for t, trace in result.predicted_traces:
            assert trace.shape == (10,)
            assert np.all(trace >= 0.0) and np.all(trace <= 1.0)


def test_rollout_deterministic():
    task = TaskSpec("poke", 1)
    state = sim.reset(SMALL_SIM, task, 1, 0, seed=11)
    demo = _demo(task, 32)
    model = small_model(6)
    options = RolloutOptions(reasoning_interval=1, max_steps=15)
    a = rollout(model, SMALL_SIM, state, task, [demo], options)
    b = rollout(model, SMALL_SIM, state, task, [demo], options)
    assert a.score == b.score and a.steps_used == b.steps_used
    assert np.array_equal(a.executed_actions, b.executed_actions)
    for (ta, tra), (tb, trb) in zip(a.predicted_traces, b.predicted_traces):
        assert ta == tb and np.array_equal(tra, trb)


def test_rollout_overflow_flagged():
    cfg = ModelConfig(**{**SMALL_CFG.__dict__, "max_context": 64})
    model = PolicyModel.init(cfg, seed=0)
    task = TaskSpec("poke", 0)
    state = sim.reset(SMALL_SIM, task, 0, 0, seed=3)
    demo = _demo(task, 33)  # ~14 steps -> 42 prompt tokens, leaves ~7 rollout tokens
    result = rollout(model, SMALL_SIM, state, task, [demo], RolloutOptions(max_steps=50))
    assert result.overflow
    assert result.steps_used == 12
    assert result.score < 1.0


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
    initial, final = smoothed_endpoints(losses, window=50)
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


def test_train_empty_dataset_errors():
    model = small_model(11)
    with pytest.raises(ValueError):
        train(model, [], TrainConfig(steps=1))

"""Encoder contracts, trunk causality, loss arithmetic, gradient flow."""

from __future__ import annotations

import dataclasses
import gc

import numpy as np
import pytest

from conftest import toy_trajectory
from deskicl import model as mdl
from deskicl import tensor as tn
from deskicl.checkpoint import CheckpointError
from deskicl.data import build_sequence, save_episodes
from deskicl.model import (
    KVCache,
    ModelConfig,
    PolicyModel,
    attention_pool,
    combined_loss,
    effective_trace_mask,
    encode_reasoning_batch,
    encode_state_batch,
    forward_sequence,
    patchify,
    sequence_loss,
    transformer_hidden,
)
from deskicl.optim import AdamW
from deskicl.tensor import ShapeError, Tape, Tensor, backward
from deskicl.traces import augment_dataset

TINY = ModelConfig(
    d_model=32,
    n_layers=2,
    n_heads=2,
    patch_size=8,
    third_resolution=16,
    wrist_resolution=8,
    max_context=256,
    chunk_h=4,
)


def tiny_model(seed=0, **overrides):
    cfg = TINY if not overrides else ModelConfig(**{**TINY.__dict__, **overrides})
    return PolicyModel.init(cfg, seed=seed)


def tiny_sequence(seed=0, lengths=(3, 4), n_prompt=1, label="poke_c0", mask_ratio=0.0, chunk_h=TINY.chunk_h):
    trajs = augment_dataset([toy_trajectory(label, length=n, g=16, c=8, seed=seed + i) for i, n in enumerate(lengths)])
    return build_sequence(trajs, n_prompt, np.random.default_rng(seed), chunk_h=chunk_h, mask_ratio=mask_ratio)


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(d_model=30, n_heads=4)
    with pytest.raises(ValueError):
        ModelConfig(third_resolution=20, patch_size=8)
    with pytest.raises(ValueError):
        ModelConfig(lambda_r=-1.0)


def test_config_header_round_trip():
    default = ModelConfig()
    assert default.to_header() == {
        "d_model": "128",
        "n_layers": "4",
        "n_heads": "4",
        "d_ff": "352",
        "patch_size": "8",
        "third_resolution": "32",
        "wrist_resolution": "16",
        "max_context": "2048",
        "chunk_h": "8",
        "lambda_r": "0.3",
        "prompt_reasoning": "1",
        "target_reasoning": "1",
        "rope_base": "10000.0",
    }
    cfg = ModelConfig(
        d_model=64,
        n_layers=3,
        n_heads=8,
        d_ff=96,
        patch_size=4,
        third_resolution=24,
        wrist_resolution=12,
        max_context=512,
        chunk_h=5,
        lambda_r=0.25,
        prompt_reasoning=False,
        target_reasoning=False,
        rope_base=500.0,
    )
    at_default = [f.name for f in dataclasses.fields(ModelConfig) if getattr(cfg, f.name) == getattr(default, f.name)]
    assert at_default == []  # so the round trip covers every field
    assert ModelConfig.from_header(cfg.to_header()) == cfg
    numpy_valued = ModelConfig(d_model=np.int64(64), lambda_r=np.float64(0.25), prompt_reasoning=np.bool_(False))
    assert numpy_valued.to_header() == ModelConfig(d_model=64, lambda_r=0.25, prompt_reasoning=False).to_header()


def test_checkpoint_round_trip(tmp_path):
    model = tiny_model(seed=3)
    path = tmp_path / "m.ckpt"
    model.save(path, extra_header={"variant": "ours"})
    loaded, header = PolicyModel.load(path)
    assert header["variant"] == "ours"
    assert loaded.config == model.config
    for k, p in model.params.items():
        assert np.array_equal(loaded.params[k].data, p.data)


def test_load_rejects_a_container_without_model_entries(tmp_path):
    path = tmp_path / "poke_c0.episodes"
    save_episodes(path, [toy_trajectory("poke_c0", 4)])
    with pytest.raises(CheckpointError, match="not a model checkpoint"):
        PolicyModel.load(path)


# ---------------------------------------------------------------------------
# encoders
# ---------------------------------------------------------------------------


def test_patchify_reassembles():
    rng = np.random.default_rng(0)
    img = rng.uniform(size=(2, 16, 16, 3)).astype(np.float32)
    patches = patchify(img, 8)
    assert patches.shape == (2, 4, 192)
    # first patch is the top-left 8x8 block, row-major
    assert np.array_equal(patches[0, 0], img[0, :8, :8, :].reshape(-1))
    assert np.array_equal(patches[0, 1], img[0, :8, 8:, :].reshape(-1))
    assert np.array_equal(patches[0, 2], img[0, 8:, :8, :].reshape(-1))


def test_encode_state_shape_and_resolution_check():
    model = tiny_model()
    rng = np.random.default_rng(1)
    out = encode_state_batch(
        model,
        rng.uniform(size=(1, 16, 16, 3)).astype(np.float32),
        rng.uniform(size=(1, 8, 8, 3)).astype(np.float32),
        rng.uniform(size=(1, 4)).astype(np.float32),
    )
    assert out.shape == (1, 32)
    with pytest.raises(ShapeError, match="third"):
        encode_state_batch(
            model,
            rng.uniform(size=(1, 32, 32, 3)).astype(np.float32),
            rng.uniform(size=(1, 8, 8, 3)).astype(np.float32),
            rng.uniform(size=(1, 4)).astype(np.float32),
        )


def test_attention_pool_identical_items_passthrough():
    rng = np.random.default_rng(2)
    v = rng.normal(size=32).astype(np.float32)
    items = Tensor(np.tile(v, (1, 6, 1)))
    query = Tensor(rng.normal(size=32).astype(np.float32))
    key_w = Tensor(rng.normal(size=(32, 32)).astype(np.float32))
    pooled = attention_pool(items, query, key_w)
    assert np.allclose(pooled.data[0], v, atol=1e-6)


def test_attention_pool_matches_float64_key_projection():
    """Scoring items against key_w @ query is the key projection
    reassociated: it matches projecting every item, then dotting with the
    query, computed in float64."""
    rng = np.random.default_rng(4)
    d = 32
    items = rng.normal(size=(2, 3, 21, d)).astype(np.float32)
    query = rng.normal(size=d).astype(np.float32)
    key_w = (rng.normal(size=(d, d)) / np.sqrt(d)).astype(np.float32)
    pooled = attention_pool(Tensor(items), Tensor(query), Tensor(key_w)).data

    x = items.astype(np.float64)
    scores = (x @ key_w.astype(np.float64)) @ query.astype(np.float64) * d ** -0.5
    weights = np.exp(scores - scores.max(axis=-1, keepdims=True))
    weights /= weights.sum(axis=-1, keepdims=True)
    expected = np.einsum("...n,...nd->...d", weights, x)
    assert pooled.shape == (2, 3, d)
    assert np.abs(pooled - expected).max() < 1e-5


@pytest.mark.parametrize("start, length", [(0, 64), (1900, 148)])
def test_rope_tables_slice_one_read_only_table(start, length):
    cfg = ModelConfig()
    half = cfg.head_dim // 2
    freqs = cfg.rope_base ** (-np.arange(half, dtype=np.float64) * 2.0 / cfg.head_dim)
    angles = np.arange(start, start + length, dtype=np.float64)[:, None] * freqs[None, :]
    cos, sin = mdl.rope_tables(cfg, start, length, np.float32)
    assert cos.dtype == sin.dtype == np.float32 and cos.shape == sin.shape == (length, half)
    assert cos.tobytes() == np.cos(angles).astype(np.float32).tobytes()
    assert sin.tobytes() == np.sin(angles).astype(np.float32).tobytes()
    again, _ = mdl.rope_tables(cfg, 0, cfg.max_context, np.float32)
    assert np.shares_memory(cos, again)
    for table in (cos, sin, again):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 0.0


def test_encode_state_patch_permutation_with_positions_disabled():
    model = tiny_model(seed=5)
    rng = np.random.default_rng(3)
    third = rng.uniform(size=(1, 16, 16, 3)).astype(np.float32)
    wrist = rng.uniform(size=(1, 8, 8, 3)).astype(np.float32)
    proprio = rng.uniform(size=(1, 4)).astype(np.float32)
    # permute the four 8x8 blocks of the third view
    permuted = third.copy()
    permuted[0, :8, :8] = third[0, 8:, 8:]
    permuted[0, 8:, 8:] = third[0, :8, :8]
    no_positions = model.clone()
    no_positions.params["third_pos"].data[:] = 0.0
    base = encode_state_batch(no_positions, third, wrist, proprio)
    swapped = encode_state_batch(no_positions, permuted, wrist, proprio)
    assert np.allclose(base.data, swapped.data, atol=1e-6)
    with_pos = encode_state_batch(model, third, wrist, proprio)
    swapped_pos = encode_state_batch(model, permuted, wrist, proprio)
    assert not np.allclose(with_pos.data, swapped_pos.data, atol=1e-6)


def test_encode_reasoning_masked_is_constant_token():
    model = tiny_model()
    traces = np.random.default_rng(4).uniform(size=(3, 10)).astype(np.float32)
    traces[2] = 0.0
    out = encode_reasoning_batch(model, traces, np.array([True, True, False])).data
    assert out.shape == (3, 32)
    assert np.array_equal(out[0], out[1])  # two masked traces
    assert np.array_equal(out[0], out[2])  # the zero trace, unmasked


def test_encode_reasoning_distinct_traces_differ():
    model = tiny_model()
    traces = np.random.default_rng(5).uniform(size=(2, 10)).astype(np.float32)
    out = encode_reasoning_batch(model, traces, np.zeros(2, dtype=bool)).data
    assert not np.array_equal(out[0], out[1])


def test_encode_reasoning_range_check():
    model = tiny_model()
    over = np.full((1, 10), 1.5, dtype=np.float32)
    with pytest.raises(ValueError, match="0, 1"):
        encode_reasoning_batch(model, over, np.array([False]))
    # masked inputs skip the range check (they encode the zero vector anyway)
    encode_reasoning_batch(model, over, np.array([True]))


# ---------------------------------------------------------------------------
# trunk
# ---------------------------------------------------------------------------


def test_causality_bit_identical_prefix():
    model = tiny_model(seed=7)
    rng = np.random.default_rng(6)
    tokens = rng.normal(size=(12, 32)).astype(np.float32)
    base = transformer_hidden(model, Tensor(tokens)).data.copy()
    for j in (4, 9):
        bumped = tokens.copy()
        bumped[j] += 1.0
        out = transformer_hidden(model, Tensor(bumped)).data
        assert np.array_equal(out[:j], base[:j])
        assert not np.array_equal(out[j:], base[j:])


def test_cached_trunk_matches_uncached():
    tokens = np.random.default_rng(9).normal(size=(16, 32))
    for dtype, tol in ((np.float32, 1e-5), (np.float64, 1e-12)):  # the cache takes the tokens' dtype
        model = tiny_model(seed=8).astype(dtype)
        full = transformer_hidden(model, Tensor(tokens, dtype=dtype)).data
        cache = KVCache(model.config)
        pieces = []
        for lo, hi in ((0, 10), (10, 11), (11, 13), (13, 14), (14, 16)):  # prefill, then 1- and 2-token steps
            pieces.append(transformer_hidden(model, Tensor(tokens[lo:hi], dtype=dtype), cache).data)
            assert cache.length == hi
        assert cache.k.dtype == dtype
        assert np.abs(np.concatenate(pieces) - full).max() <= tol


def test_cached_trunk_lanes_match_single_lanes():
    """A prefix prefilled once and copied into three lanes, then decoded
    lane-batched, gives each lane the bits of its own 1-lane cache, also
    after a lane is dropped and the rest reordered."""
    model = tiny_model(seed=3)
    rng = np.random.default_rng(4)
    prefix = rng.normal(size=(9, 32)).astype(np.float32)
    steps = [rng.normal(size=(3, n, 32)).astype(np.float32) for n in (2, 1, 2)]
    alone = []
    for b in range(3):
        cache = KVCache(TINY)
        transformer_hidden(model, Tensor(prefix), cache)
        alone.append((cache, [transformer_hidden(model, Tensor(x[b]), cache).data for x in steps]))

    shared = KVCache(TINY)
    transformer_hidden(model, Tensor(prefix), shared)
    shared.select_lanes(np.zeros(3, dtype=np.intp))
    batched = KVCache(TINY, lanes=3)  # the same prefix decoded in every lane
    transformer_hidden(model, Tensor(np.stack([prefix] * 3)), batched)
    for i in range(TINY.n_layers):
        assert all(np.array_equal(a[:, :, :9], b[:, :, :9]) for a, b in zip(batched.layer(i, np.float32), shared.layer(i, np.float32)))
    order = [0, 1, 2]
    for i, x in enumerate(steps):
        if i == 2:
            order = [2, 0]
            shared.select_lanes(np.array([2, 0]))
        out = transformer_hidden(model, Tensor(x[order]), shared).data
        for j, b in enumerate(order):
            assert np.array_equal(out[j], alone[b][1][i])
    assert shared.lanes == 2 and shared.length == 9 + 5
    for i in range(TINY.n_layers):
        (k_shared, _), (k_alone, _) = shared.layer(i, np.float32), alone[order[0]][0].layer(i, np.float32)
        assert np.array_equal(k_shared[0, :, :shared.length], k_alone[0, :, :shared.length])
        assert not k_shared[:, :, shared.length:].any()  # rows past the length are never written
    with pytest.raises(ShapeError, match="lane"):
        transformer_hidden(model, Tensor(steps[0]), shared)


def test_encoders_lanes_match_single_lanes():
    model = tiny_model(seed=5)
    rng = np.random.default_rng(6)
    third = rng.uniform(size=(3, 1, 16, 16, 3)).astype(np.float32)
    wrist = rng.uniform(size=(3, 1, 8, 8, 3)).astype(np.float32)
    proprio = rng.uniform(size=(3, 1, 4)).astype(np.float32)
    traces = rng.uniform(size=(3, 1, 10)).astype(np.float32)
    state = mdl.encode_state_batch(model, third, wrist, proprio).data
    reason = mdl.encode_reasoning_batch(model, traces, np.zeros((3, 1), dtype=bool)).data
    action = mdl.encode_action_batch(model, proprio).data
    assert state.shape == reason.shape == action.shape == (3, 1, 32)
    for b in range(3):
        assert np.array_equal(state[b], mdl.encode_state_batch(model, third[b], wrist[b], proprio[b]).data)
        assert np.array_equal(reason[b], mdl.encode_reasoning_batch(model, traces[b], np.zeros(1, dtype=bool)).data)
        assert np.array_equal(action[b], mdl.encode_action_batch(model, proprio[b]).data)


def test_context_overflow_errors():
    model = tiny_model()
    tokens = Tensor(np.zeros((TINY.max_context + 3, 32), dtype=np.float32))
    with pytest.raises(ShapeError, match="context"):
        transformer_hidden(model, tokens)


def test_forward_sequence_output_counts():
    model = tiny_model()
    seq = tiny_sequence(lengths=(3, 5))
    trace_pred, chunk_pred = forward_sequence(model, seq)
    assert trace_pred.shape == (8, 10)
    assert chunk_pred.shape == (8, TINY.chunk_h, 4)


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------


def _unit_loss_fixture(lambda_r):
    s, h = 3, 2
    trace_pred = Tensor(np.zeros((s, 10), dtype=np.float32))
    chunk_pred = Tensor(np.zeros((s, h, 4), dtype=np.float32))
    trace_labels = np.ones((s, 10), dtype=np.float32)
    chunk_labels = np.ones((s, h, 4), dtype=np.float32)
    chunk_valid = np.ones((s, h), dtype=bool)
    loss_mask = np.ones(s, dtype=bool)
    return combined_loss(trace_pred, chunk_pred, trace_labels, chunk_labels, chunk_valid, loss_mask, lambda_r, loss_mask)


def test_loss_unit_terms_weighting():
    loss, l_action, l_reason = _unit_loss_fixture(0.3)
    assert l_action == 1.0 and l_reason == 1.0
    assert abs(float(loss.data) - 1.3) < 1e-6


def test_loss_zero_when_predictions_match():
    s, h = 2, 3
    labels = np.random.default_rng(0).normal(size=(s, h, 4)).astype(np.float32)
    traces = np.random.default_rng(1).uniform(size=(s, 10)).astype(np.float32)
    loss, la, lr = combined_loss(
        Tensor(traces.copy()),
        Tensor(labels.copy()),
        traces,
        labels,
        np.ones((s, h), dtype=bool),
        np.ones(s, dtype=bool),
        0.3,
        np.ones(s, dtype=bool),
    )
    assert float(loss.data) == 0.0 and la == 0.0 and lr == 0.0


def test_loss_hand_computed_two_step():
    rng = np.random.default_rng(9)
    s, h = 2, 2
    trace_pred = rng.normal(size=(s, 10)).astype(np.float32)
    chunk_pred = rng.normal(size=(s, h, 4)).astype(np.float32)
    trace_labels = rng.uniform(size=(s, 10)).astype(np.float32)
    chunk_labels = rng.normal(size=(s, h, 4)).astype(np.float32)
    chunk_valid = np.array([[True, True], [True, False]])
    loss_mask = np.array([False, True])

    mask3 = loss_mask[:, None, None] & chunk_valid[:, :, None]
    expect_action = np.abs(chunk_pred - chunk_labels)[mask3.repeat(4, axis=2) if False else np.broadcast_to(mask3, chunk_pred.shape)].mean()
    expect_reason = np.abs(trace_pred - trace_labels)[1].mean()
    expected = expect_action + 0.3 * expect_reason

    loss, la, lr = combined_loss(
        Tensor(trace_pred), Tensor(chunk_pred), trace_labels, chunk_labels, chunk_valid, loss_mask, 0.3, loss_mask
    )
    assert abs(float(loss.data) - expected) < 1e-6
    assert abs(la - expect_action) < 1e-6 and abs(lr - expect_reason) < 1e-6


def test_loss_requires_action_positions():
    with pytest.raises(ValueError, match="action"):
        combined_loss(
            Tensor(np.zeros((2, 10), np.float32)),
            Tensor(np.zeros((2, 2, 4), np.float32)),
            np.zeros((2, 10), np.float32),
            np.zeros((2, 2, 4), np.float32),
            np.ones((2, 2), dtype=bool),
            np.zeros(2, dtype=bool),
            0.3,
            np.zeros(2, dtype=bool),
        )


def test_loss_reasoning_term_absent_for_no_reasoning_variant():
    model = tiny_model(**{"target_reasoning": False, "prompt_reasoning": False})
    seq = tiny_sequence(lengths=(3, 4))
    with Tape():
        loss, la, lr = sequence_loss(model, seq)
    assert lr == 0.0
    assert float(loss.data) == la


# ---------------------------------------------------------------------------
# variant flags and masking
# ---------------------------------------------------------------------------


def test_effective_trace_mask_variants():
    target = np.array([False, False, True, True])
    input_mask = np.array([False, False, True, False])
    full = ModelConfig(**{**TINY.__dict__})
    to = ModelConfig(**{**TINY.__dict__, "prompt_reasoning": False})
    icrt = ModelConfig(**{**TINY.__dict__, "prompt_reasoning": False, "target_reasoning": False})
    assert effective_trace_mask(full, target, input_mask).tolist() == [False, False, True, False]
    assert effective_trace_mask(to, target, input_mask).tolist() == [True, True, True, False]
    assert effective_trace_mask(icrt, target, input_mask).tolist() == [True, True, True, True]


def test_mask_equivalence_zero_vector_substitution():
    model = tiny_model(seed=11)
    seq = tiny_sequence(lengths=(3, 4), mask_ratio=1.0)  # every target trace input masked
    masked_tokens = mdl.encode_reasoning_batch(
        model, seq.traces, effective_trace_mask(model.config, seq.step_is_target, seq.reasoning_input_mask)
    )
    zeroed = seq.traces.copy()
    zeroed[seq.step_is_target] = 0.0
    explicit_tokens = mdl.encode_reasoning_batch(model, zeroed, np.zeros(seq.n_steps, dtype=bool))
    assert np.array_equal(masked_tokens.data, explicit_tokens.data)

    loss_a, *_ = sequence_loss(model, seq)
    seq_b = tiny_sequence(lengths=(3, 4), mask_ratio=1.0)
    loss_b, *_ = sequence_loss(model, seq_b)
    assert np.array_equal(loss_a.data, loss_b.data)


def test_gradient_flow_reaches_every_parameter():
    model = tiny_model(seed=13)
    seq = tiny_sequence(lengths=(3, 4), mask_ratio=0.5)
    with Tape():
        loss, *_ = sequence_loss(model, seq)
        backward(loss)
    for name, p in model.params.items():
        assert p.grad is not None, f"no grad for {name}"
        assert float(np.abs(p.grad).max()) > 0.0, f"zero grad for {name}"


def test_prompt_isolation_labels_do_not_leak():
    model = tiny_model(seed=17)
    seq = tiny_sequence(lengths=(3, 4), mask_ratio=0.0)

    def loss_and_grads(sequence):
        m = model.clone()
        with Tape():
            loss, *_ = sequence_loss(m, sequence)
            backward(loss)
        return float(loss.data), {k: p.grad.copy() for k, p in m.params.items()}

    base_loss, base_grads = loss_and_grads(seq)
    # scramble label-side data on prompt rows only
    prompt_rows = ~seq.step_is_target
    seq.chunk_actions[prompt_rows] = 123.0
    mutated_loss, mutated_grads = loss_and_grads(seq)
    assert mutated_loss == base_loss
    for k in base_grads:
        assert np.array_equal(base_grads[k], mutated_grads[k])


def test_backward_frees_the_graph_without_cyclic_gc():
    model = tiny_model(seed=29)
    seq = tiny_sequence(lengths=(3, 4), mask_ratio=0.5)
    gc.collect()
    gc.disable()
    try:
        with Tape():
            loss, *_ = sequence_loss(model, seq)
            backward(loss)
        del loss
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_training_step_determinism():
    def run():
        model = tiny_model(seed=19)
        seq = tiny_sequence(lengths=(4, 4), seed=2, mask_ratio=0.5)
        opt = AdamW(model.params, lr=1e-3)
        with Tape():
            loss, *_ = sequence_loss(model, seq)
            backward(loss)
        opt.step()
        return float(loss.data), model.params["reasoning_head.w"].data.copy()

    l1, w1 = run()
    l2, w2 = run()
    assert l1 == l2 and np.array_equal(w1, w2)


# ---------------------------------------------------------------------------
# sampled finite-difference check of the full pipeline
# ---------------------------------------------------------------------------


def test_sampled_end_to_end_gradcheck():
    model = tiny_model(seed=23, d_model=16, n_layers=1, n_heads=2, d_ff=32, chunk_h=2)
    seq = tiny_sequence(lengths=(2, 3), mask_ratio=0.5, chunk_h=2)
    with Tape():
        loss, *_ = sequence_loss(model, seq)
        backward(loss)

    twin = model.astype(np.float64)

    def loss64():
        l, *_ = sequence_loss(twin, seq)
        return float(l.data)

    def central(flat64, j, step):
        orig = flat64[j]
        flat64[j] = orig + step
        hi = loss64()
        flat64[j] = orig - step
        lo = loss64()
        flat64[j] = orig
        return (hi - lo) / (2 * step)

    rng = np.random.default_rng(0)
    for name, p in model.params.items():
        flat64 = twin.params[name].data.reshape(-1)
        grads = p.grad.reshape(-1)
        picks = rng.choice(flat64.size, size=min(3, flat64.size), replace=False)
        denom = max(np.abs(grads).max(), 1e-8)
        for j in picks:
            fd = central(flat64, j, 1e-3)
            if abs(grads[j] - fd) / max(denom, abs(fd)) >= 1e-3:
                # a 1e-3 step can straddle an L1 kink; refine before failing
                fd = central(flat64, j, 1e-5)
            assert abs(grads[j] - fd) / max(denom, abs(fd)) < 1e-3, f"{name}[{j}]: ad={grads[j]:.6f} fd={fd:.6f}"

"""Encoder contracts, trunk causality, loss arithmetic, gradient flow."""

from __future__ import annotations

import dataclasses
import gc
import re
import tracemalloc

import numpy as np
import pytest

from conftest import toy_trajectory, write_version_1_container
from deskicl import model as mdl
from deskicl import sim
from deskicl import tensor as tn
from deskicl.checkpoint import CheckpointError, save_checkpoint
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
from deskicl.settings import write
from deskicl.tensor import ShapeError, Tape, Tensor, backward

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
    """A built sequence whose first floor(mask_ratio * n) of n target steps,
    and no others, have their trace inputs masked."""
    trajs = [toy_trajectory(label, length=n, g=16, c=8, seed=seed + i) for i, n in enumerate(lengths)]
    seq = build_sequence(trajs, n_prompt, np.random.default_rng(seed), chunk_h=chunk_h)
    target = np.flatnonzero(seq.step_is_target)
    seq.reasoning_input_mask[:] = False
    seq.reasoning_input_mask[target[: int(mask_ratio * len(target))]] = True
    return seq


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(d_model=30, n_heads=4)
    with pytest.raises(ValueError, match="odd"):
        ModelConfig(d_model=36, n_heads=4)  # RoPE splits each head in half
    with pytest.raises(ValueError):
        ModelConfig(third_resolution=20, patch_size=8)
    with pytest.raises(ValueError):
        ModelConfig(lambda_r=-1.0)
    # ranges are checked before the rules that divide by these fields
    for name in ("n_heads", "patch_size"):
        with pytest.raises(ValueError, match=f"{name} = 0"):
            ModelConfig(**{name: 0})


def test_config_header_round_trip(tmp_path):
    """A model saved at a config that sets every field off its default loads
    under that config, and `ModelConfig()` refuses it naming every field."""
    default = ModelConfig()
    assert write(default) == {
        "d_model": "128",
        "n_layers": "4",
        "n_heads": "4",
        "patch_size": "8",
        "third_resolution": "32",
        "wrist_resolution": "16",
        "max_context": "2048",
        "chunk_h": "8",
        "lambda_r": "0.3",
        "prompt_reasoning": "1",
        "target_reasoning": "1",
    }
    cfg = ModelConfig(
        d_model=64,
        n_layers=3,
        n_heads=8,
        patch_size=4,
        third_resolution=24,
        wrist_resolution=12,
        max_context=512,
        chunk_h=5,
        lambda_r=0.25,
        prompt_reasoning=False,
        target_reasoning=False,
    )
    assert (default.d_ff, cfg.d_ff) == (352, 176)  # 8/3 d_model, rounded up to a multiple of 16
    at_default = [f.name for f in dataclasses.fields(ModelConfig) if getattr(cfg, f.name) == getattr(default, f.name)]
    assert at_default == []  # so the refusal below covers every field
    path = tmp_path / "m.ckpt"
    PolicyModel.init(cfg, seed=0).save(path)
    assert PolicyModel.load(path, cfg)[0].config == cfg
    with pytest.raises(CheckpointError) as exc:
        PolicyModel.load(path, default)
    assert str(exc.value) == f"{path}: not a checkpoint of the config's model: " + ", ".join(
        f"{name} = {value} (config: {write(default)[name]})" for name, value in write(cfg).items()
    )
    numpy_valued = ModelConfig(d_model=np.int64(64), lambda_r=np.float64(0.25), prompt_reasoning=np.bool_(False))
    assert write(numpy_valued) == write(ModelConfig(d_model=64, lambda_r=0.25, prompt_reasoning=False))


def test_checkpoint_round_trip(tmp_path):
    model = tiny_model(seed=3)
    path = tmp_path / "m.ckpt"
    model.save(path, extra_header={"variant": "ours"})
    loaded, header = PolicyModel.load(path, TINY)
    assert header["variant"] == "ours"
    assert loaded.config == model.config
    for k, p in model.params.items():
        assert np.array_equal(loaded.params[k].data, p.data)


@pytest.mark.parametrize(
    "fault, named",
    [
        ("missing", "missing parameter trace_mlp.fc1.w of shape (10, 32)"),
        ("unexpected", "unexpected parameter blocks.2.attn.wq.w"),
        ("misshaped", "parameter action_head.w has shape (32, 15), its header's config declares (32, 16)"),
    ],
)
def test_load_checks_every_parameter_against_its_header(tmp_path, fault, named):
    model = tiny_model(seed=3)
    arrays = {k: p.data for k, p in model.params.items()}
    if fault == "missing":
        del arrays["trace_mlp.fc1.w"]
    elif fault == "unexpected":
        arrays["blocks.2.attn.wq.w"] = arrays["blocks.0.attn.wq.w"]  # TINY has two layers
    else:
        arrays["action_head.w"] = arrays["action_head.w"][:, :-1]
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, arrays, write(model.config))
    with pytest.raises(CheckpointError, match=f"^{re.escape(f'{path}: {named}')}"):
        PolicyModel.load(path, TINY)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_load_refuses_a_parameter_that_is_not_finite(tmp_path, value):
    model = tiny_model(seed=3)
    arrays = {k: p.data.copy() for k, p in model.params.items()}
    arrays["final_norm.g"][5] = value
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, arrays, write(model.config))
    with pytest.raises(CheckpointError, match=f"^{re.escape(f'{path}: parameter final_norm.g holds a value that is not finite')}$"):
        PolicyModel.load(path, TINY)


def test_load_refuses_a_version_1_checkpoint_of_another_rope_base(tmp_path):
    """Only version 1 containers carry the `rope_base` and `d_ff` entries of
    the settings now fixed; the container's version refuses them, naming the
    file, before any entry is read."""
    model = tiny_model(seed=3)
    path = tmp_path / "m.ckpt"
    header = {**write(model.config), "rope_base": "500.0", "d_ff": "96"}
    write_version_1_container(path, {k: p.data for k, p in model.params.items()}, header)
    with pytest.raises(CheckpointError, match=f"^{re.escape(str(path))}: unsupported checkpoint version 1"):
        PolicyModel.load(path, TINY)


def test_load_rejects_a_container_without_model_entries(tmp_path):
    path = tmp_path / "poke_c0.episodes"
    save_episodes(path, [toy_trajectory("poke_c0", 4)])
    with pytest.raises(CheckpointError, match=f"^{re.escape(f'{path}: not a checkpoint of the config')}.*d_model = none \\(config: 32\\)"):
        PolicyModel.load(path, TINY)


@pytest.mark.parametrize("name", ["n_heads", "patch_size"])
def test_load_rejects_a_header_out_of_range(tmp_path, name):
    path = tmp_path / "m.ckpt"
    tiny_model().save(path, extra_header={name: "0"})
    with pytest.raises(CheckpointError) as exc:
        PolicyModel.load(path, TINY)
    assert str(exc.value) == f"{path}: not a checkpoint of the config's model: {name} = 0 (config: {getattr(TINY, name)})"


# ---------------------------------------------------------------------------
# encoders
# ---------------------------------------------------------------------------


def _views(rng, *shape):
    """Random (..., R, R) uint8 views, indices into sim.PALETTE."""
    return rng.integers(0, len(sim.PALETTE), size=shape, dtype=np.uint8)


def test_patchify_reassembles():
    img = _views(np.random.default_rng(0), 2, 16, 16)
    colours = sim.PALETTE[img]
    patches = patchify(img, 8)
    assert patches.shape == (2, 4, 192) and patches.dtype == np.float32
    # first patch is the top-left 8x8 block, row-major
    assert np.array_equal(patches[0, 0], colours[0, :8, :8, :].reshape(-1))
    assert np.array_equal(patches[0, 1], colours[0, :8, 8:, :].reshape(-1))
    assert np.array_equal(patches[0, 2], colours[0, 8:, :8, :].reshape(-1))
    for bad in (img.astype(np.int64), img[..., None], img[:, :, :8], img[:, :12, :12]):
        with pytest.raises(ShapeError, match="patchify"):
            patchify(bad, 8)


@pytest.mark.parametrize("resolution", [32, 16])
@pytest.mark.parametrize("patch", [4, 8])
def test_patchify_equals_the_lookup_then_the_patch_gather(resolution, patch):
    """Looking the patch-ordered indices up is looking the image up, then
    gathering its colours into patches, byte for byte."""
    img = _views(np.random.default_rng(resolution + patch), 5, resolution, resolution)
    img[0] = len(sim.PALETTE) - 1  # the last colour, beside random ones
    n = resolution // patch
    colours = sim.PALETTE.take(img, axis=0).reshape(5, n, patch, n, patch, 3)
    expected = np.ascontiguousarray(colours.transpose(0, 1, 3, 2, 4, 5)).reshape(5, n * n, patch * patch * 3)
    assert patchify(img, patch).tobytes() == expected.tobytes()


def test_encode_state_shape_and_resolution_check():
    model = tiny_model()
    rng = np.random.default_rng(1)
    proprio = rng.uniform(size=(1, 4)).astype(np.float32)
    out = encode_state_batch(model, _views(rng, 1, 16, 16), _views(rng, 1, 8, 8), proprio)
    assert out.shape == (1, 32)
    with pytest.raises(ShapeError, match="third"):
        encode_state_batch(model, _views(rng, 1, 32, 32), _views(rng, 1, 8, 8), proprio)
    with pytest.raises(ShapeError, match="wrist"):
        encode_state_batch(model, _views(rng, 1, 16, 16), sim.PALETTE[_views(rng, 1, 8, 8)], proprio)


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
    freqs = mdl.ROPE_BASE ** (-np.arange(half, dtype=np.float64) * 2.0 / cfg.head_dim)
    angles = np.arange(start, start + length, dtype=np.float64)[:, None] * freqs[None, :]
    cos, sin = mdl.rope_tables(cfg, start, length, np.float32)
    assert cos.dtype == sin.dtype == np.float32 and cos.shape == sin.shape == (length, cfg.head_dim)
    half_cos, half_sin = np.cos(angles).astype(np.float32), np.sin(angles).astype(np.float32)
    assert cos.tobytes() == np.concatenate([half_cos, half_cos], axis=1).tobytes()
    assert sin.tobytes() == np.concatenate([-half_sin, half_sin], axis=1).tobytes()
    again, _ = mdl.rope_tables(cfg, 0, cfg.max_context, np.float32)
    assert np.shares_memory(cos, again)
    for table in (cos, sin, again):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 0.0


def test_encode_state_patch_permutation_with_positions_disabled():
    model = tiny_model(seed=5)
    rng = np.random.default_rng(3)
    third, wrist = _views(rng, 1, 16, 16), _views(rng, 1, 8, 8)
    proprio = rng.uniform(size=(1, 4)).astype(np.float32)
    # permute the four 8x8 blocks of the third view
    permuted = third.copy()
    permuted[0, :8, :8] = third[0, 8:, 8:]
    permuted[0, 8:, 8:] = third[0, :8, :8]
    no_positions = model.astype(model.dtype)
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
    batched = KVCache(TINY)  # the same prefix decoded in every lane
    batched.select_lanes(np.zeros(3, dtype=np.intp))
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


def _reference_trunk(params: dict[str, np.ndarray], n_heads: int, tokens: np.ndarray, score_scale: float = 1.0) -> np.ndarray:
    """The trunk over (T, d) tokens at positions 0..T-1 in plain float64
    numpy, from the parameter arrays alone: per block, an RMS norm (eps
    1e-5) and its gain, then per head RoPE on each (j, j + dh/2) pair of q
    and k by angle pos * 10000**(-2j/dh), each query row's softmax over its
    own and earlier positions, the output projection, and the SwiGLU
    feedforward; a final RMS norm closes the stack. `score_scale`
    multiplies every attention score."""
    p = {name: np.asarray(a, dtype=np.float64) for name, a in params.items()}
    x = np.asarray(tokens, dtype=np.float64)
    t, d = x.shape
    dh = d // n_heads
    half = dh // 2

    def norm(a, gain):
        return a / np.sqrt((a * a).mean(axis=-1, keepdims=True) + 1e-5) * gain

    def rope(a):
        out = np.empty_like(a)
        for pos in range(t):
            for j in range(half):
                angle = pos * 10000.0 ** (-2.0 * j / dh)
                first, second = a[pos, j], a[pos, j + half]
                out[pos, j] = first * np.cos(angle) - second * np.sin(angle)
                out[pos, j + half] = second * np.cos(angle) + first * np.sin(angle)
        return out

    n_layers = sum(name.endswith(".attn_norm.g") for name in p)
    for i in range(n_layers):
        h = norm(x, p[f"blocks.{i}.attn_norm.g"])
        q, k, v = (h @ p[f"blocks.{i}.attn.{w}.w"] for w in ("wq", "wk", "wv"))
        ctx = np.zeros((t, d))
        for head in range(n_heads):
            cols = slice(head * dh, (head + 1) * dh)
            qh, kh = rope(q[:, cols]), rope(k[:, cols])
            for r in range(t):
                scores = score_scale * (kh[: r + 1] @ qh[r]) / np.sqrt(dh)
                w = np.exp(scores - scores.max())
                ctx[r, cols] = (w / w.sum()) @ v[: r + 1, cols]
        x = x + ctx @ p[f"blocks.{i}.attn.wo.w"]
        h = norm(x, p[f"blocks.{i}.ffn_norm.g"])
        gate, up = h @ p[f"blocks.{i}.ffn.w_gate.w"], h @ p[f"blocks.{i}.ffn.w_up.w"]
        x = x + (gate / (1.0 + np.exp(-gate)) * up) @ p[f"blocks.{i}.ffn.w_down.w"]
    return norm(x, p["final_norm.g"])


@pytest.mark.parametrize("lanes", [1, 3])
def test_trunk_matches_a_float64_reference(lanes):
    """The float64 twin's trunk equals `_reference_trunk` lane by lane,
    uncached and prefilled then decoded token by token; the same reference
    with its attention scores scaled by 1.02 is far outside the tolerance."""
    tol = 1e-10
    model = tiny_model(seed=11).astype(np.float64)
    params = {name: t.data for name, t in model.params.items()}
    tokens = np.random.default_rng(12).normal(size=(lanes, 20, TINY.d_model))
    refs = [_reference_trunk(params, TINY.n_heads, lane) for lane in tokens]
    lane_tokens = tokens if lanes > 1 else tokens[0]  # one lane runs as (T, d)
    uncached = transformer_hidden(model, Tensor(lane_tokens, dtype=np.float64)).data.reshape(tokens.shape)
    cache = KVCache(TINY)
    cache.select_lanes(np.zeros(lanes, dtype=np.intp))
    pieces = [transformer_hidden(model, Tensor(lane_tokens[..., :12, :], dtype=np.float64), cache).data]
    for i in range(12, 20):
        pieces.append(transformer_hidden(model, Tensor(lane_tokens[..., i:i + 1, :], dtype=np.float64), cache).data)
    decoded = np.concatenate(pieces, axis=-2).reshape(tokens.shape)
    for b, ref in enumerate(refs):
        assert np.abs(uncached[b] - ref).max() < tol
        assert np.abs(decoded[b] - ref).max() < tol
        scaled = _reference_trunk(params, TINY.n_heads, tokens[b], score_scale=1.02)
        assert np.abs(uncached[b] - scaled).max() > 1000 * tol


def test_identity_lane_selection_keeps_the_cache():
    """Selecting every lane in order, as `begin` does for one lane, keeps the
    cache's arrays, and the next decode gives the bits of a cache never
    selected; any other selection copies."""
    model = tiny_model(seed=3)
    rng = np.random.default_rng(7)
    prefix = rng.normal(size=(9, 32)).astype(np.float32)
    step = rng.normal(size=(2, 32)).astype(np.float32)
    plain, selected = KVCache(TINY), KVCache(TINY)
    for cache in (plain, selected):
        transformer_hidden(model, Tensor(prefix), cache)
    k, v = selected.k, selected.v
    selected.select_lanes(np.zeros(1, dtype=np.intp))
    assert selected.k is k and selected.v is v and selected.lanes == 1 and selected.length == 9
    assert np.array_equal(transformer_hidden(model, Tensor(step), selected).data, transformer_hidden(model, Tensor(step), plain).data)
    selected.select_lanes(np.zeros(3, dtype=np.intp))
    k = selected.k
    selected.select_lanes(np.arange(3))
    assert selected.k is k
    selected.select_lanes(np.array([2, 1, 0]))
    assert selected.k is not k and selected.lanes == 3


def test_encoders_lanes_match_single_lanes():
    model = tiny_model(seed=5)
    rng = np.random.default_rng(6)
    third, wrist = _views(rng, 3, 1, 16, 16), _views(rng, 3, 1, 8, 8)
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
        m = model.astype(model.dtype)
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


def _sweep_keeping_the_graph(loss):
    """The reference sweep: every node's gradient and rule live until the
    whole tape has been swept."""
    entries = loss._tape.entries
    loss.grad = np.ones_like(loss.data)
    for entry in reversed(entries):
        if entry.output.grad is not None:
            entry.backward(entry.output.grad)
    entries.clear()


def test_backward_gives_the_grads_of_a_sweep_that_keeps_the_graph():
    model = tiny_model(seed=31)
    seq = tiny_sequence(lengths=(5, 6), mask_ratio=0.5)
    grads = []
    for sweep in (_sweep_keeping_the_graph, backward):
        m = model.astype(model.dtype)
        with Tape():
            loss, *_ = sequence_loss(m, seq)
            sweep(loss)
        grads.append({k: p.grad for k, p in m.params.items()})
    reference, freed = grads
    assert all(g is not None for g in reference.values())
    for k in reference:
        assert np.array_equal(reference[k], freed[k]), k


def test_backward_empties_the_tape_and_keeps_grads_on_leaves_only():
    model = tiny_model(seed=37)
    seq = tiny_sequence(lengths=(3, 4), mask_ratio=0.5)
    with Tape() as tape:
        loss, *_ = sequence_loss(model, seq)
        outputs = [entry.output for entry in tape.entries]
        backward(loss)
    assert len(tape) == 0
    assert outputs and all(o.grad is None for o in outputs)
    assert all(p.grad is not None for p in model.params.values())


@pytest.mark.parametrize("lengths", [(3, 4), (20, 20)])
def test_backward_peaks_near_the_memory_the_forward_holds(lengths):
    """Each node is freed once its rule has run, so the sweep adds little
    to what the forward holds (about 1.07x here). A sweep that keeps every
    node's gradient to the end peaks at 1.78x at (20, 20), 2.24x at (3, 4)."""
    model = tiny_model(seed=31)
    seq = tiny_sequence(lengths=lengths, mask_ratio=0.5)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with Tape():
            loss, *_ = sequence_loss(model, seq)
            held = tracemalloc.get_traced_memory()[0] - base
            tracemalloc.reset_peak()
            backward(loss)
            peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * held


def test_training_step_determinism():
    def run():
        model = tiny_model(seed=19)
        seq = tiny_sequence(lengths=(4, 4), seed=2, mask_ratio=0.5)
        opt = AdamW(model.params, lr=1e-3, weight_decay=0.01)
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
    model = tiny_model(seed=23, d_model=16, n_layers=1, n_heads=2, chunk_h=2)
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

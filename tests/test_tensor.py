"""Tensor op forwards against independent oracles, plus autodiff gradient checks.

Gradients are verified against central finite differences. The finite
difference side evaluates the same functions at float64 so the oracle
measures the true derivative; the autodiff side runs at the library's
native float32. Errors are normalized per parameter tensor.
"""

from __future__ import annotations

import resource
import signal
import struct
import tracemalloc

import numpy as np
import pytest

from deskicl import tensor as tn
from deskicl.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from deskicl.optim import AdamW, clip_grad_norm
from deskicl.tensor import GradError, ShapeError, Tape, Tensor, backward

FD_STEP = 1e-3
GRAD_TOL = 1e-3
TILE = tn._QUERY_TILE
# (T, start) cases of one tile and of two and three tiles, the last one partial
ATTENTION_CASES = [(1, 0), (6, 0), (1, 5), (3, 5), (TILE + 3, 0), (TILE + 3, 5), (2 * TILE + 3, 0), (2 * TILE + 3, 5)]


def fd_gradients(build, arrays, step=FD_STEP):
    """Central-difference grads of a scalar-valued graph builder, at float64."""
    grads = []
    for i, arr in enumerate(arrays):
        base = [a.astype(np.float64) for a in arrays]
        g = np.zeros_like(base[i])
        flat = base[i].reshape(-1)
        gflat = g.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + step
            hi = float(build([Tensor(a, dtype=np.float64) for a in base]).data)
            flat[j] = orig - step
            lo = float(build([Tensor(a, dtype=np.float64) for a in base]).data)
            flat[j] = orig
            gflat[j] = (hi - lo) / (2.0 * step)
        grads.append(g)
    return grads


def check_grads(build, arrays, tol=GRAD_TOL):
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    with Tape():
        loss = build(tensors)
        backward(loss)
    expected = fd_gradients(build, arrays)
    for t, fd in zip(tensors, expected):
        assert t.grad is not None
        denom = max(np.abs(fd).max(), 1e-8)
        rel = np.abs(t.grad.astype(np.float64) - fd).max() / denom
        assert rel < tol, f"grad mismatch: rel error {rel:.2e}"


def rng():
    return np.random.default_rng(0)


# ---------------------------------------------------------------------------
# forward values
# ---------------------------------------------------------------------------


def test_matmul_identity():
    a = Tensor(np.eye(2))
    b = Tensor([[1.0, 2.0], [3.0, 4.0]])
    out = tn.matmul(a, b)
    assert np.array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])


def test_softmax_uniform():
    out = tn.softmax(Tensor([0.0, 0.0, 0.0]))
    assert np.allclose(out.data, [1 / 3] * 3, atol=1e-7)


def test_matmul_against_triple_loop():
    a = rng().normal(size=(5, 7)).astype(np.float32)
    b = rng().normal(size=(7, 3)).astype(np.float32)
    expect = np.zeros((5, 3), dtype=np.float64)
    for i in range(5):
        for j in range(3):
            for k in range(7):
                expect[i, j] += float(a[i, k]) * float(b[k, j])
    out = tn.matmul(Tensor(a), Tensor(b))
    assert np.allclose(out.data, expect, atol=1e-5)


def test_matmul_shape_error_names_op_and_shapes():
    with pytest.raises(ShapeError, match=r"matmul.*\(2, 3\).*\(2, 3\)"):
        tn.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


def test_add_rejects_non_leading_broadcast():
    with pytest.raises(ShapeError, match="add"):
        tn.add(Tensor(np.zeros((4, 1))), Tensor(np.zeros((4, 3))))


def test_leading_batch_broadcast_ok():
    a = Tensor(rng().normal(size=(2, 4, 3)).astype(np.float32))
    b = Tensor(rng().normal(size=(4, 3)).astype(np.float32))
    out = tn.mul(a, b)
    assert out.shape == (2, 4, 3)
    assert np.allclose(out.data, a.data * b.data)


def test_softmax_rows_sum_to_one():
    x = Tensor(rng().normal(size=(6, 9)).astype(np.float32) * 5)
    s = tn.softmax(x).data
    assert np.abs(s.sum(axis=-1) - 1.0).max() < 1e-6


def _rotate_oracle(x, cos, sin):
    """RoPE, half-split pairing, one element pair at a time."""
    half = x.shape[1] // 2
    out = np.empty_like(x)
    for r in range(x.shape[0]):
        for j in range(half):
            a, b = x[r, j], x[r, j + half]
            out[r, j] = a * cos[r, j] - b * sin[r, j]
            out[r, j + half] = b * cos[r, j] + a * sin[r, j]
    return out


def _attention_oracle(q, k, v, n_heads, cos, sin, past_k, past_v):
    """Per head and query row: rotate, score the row's visible keys, softmax, mix values."""
    t, d = q.shape
    dh = d // n_heads
    start = past_k.shape[1]
    out = np.zeros((t, d))
    for h in range(n_heads):
        cols = slice(h * dh, (h + 1) * dh)
        qh = _rotate_oracle(q[:, cols].astype(np.float64), cos, sin)
        keys = np.concatenate([past_k[h], _rotate_oracle(k[:, cols].astype(np.float64), cos, sin)])
        values = np.concatenate([past_v[h], v[:, cols]])
        for r in range(t):
            scores = keys[: start + r + 1] @ qh[r] / np.sqrt(dh)
            w = np.exp(scores - scores.max())
            out[r, cols] = (w / w.sum()) @ values[: start + r + 1]
    return out


def _attention_case(t, start, n_heads=2, d=8, seed=0):
    """(q, k, v, cos, sin, kv_cache or None) with `start` random cached rows."""
    g = np.random.default_rng(seed)
    q, k, v = (g.normal(size=(t, d)).astype(np.float32) for _ in range(3))
    angles = g.uniform(0.0, 2.0 * np.pi, size=(t, d // n_heads // 2))
    cache = None
    if start:
        cache = tuple(np.zeros((n_heads, start + t, d // n_heads)) for _ in range(2))
        for buf in cache:
            buf[:, :start] = g.normal(size=(n_heads, start, d // n_heads))
    return q, k, v, np.cos(angles), np.sin(angles), cache


@pytest.mark.parametrize("t, start", ATTENTION_CASES)
def test_causal_attention_against_loops(t, start):
    q, k, v, cos, sin, cache = _attention_case(t, start)
    empty = np.zeros((2, 0, 4))
    past_k, past_v = (empty, empty) if cache is None else (cache[0][:, :start].copy(), cache[1][:, :start].copy())
    out = tn.causal_attention(Tensor(q), Tensor(k), Tensor(v), 2, cos, sin, kv_cache=cache, start=start)
    assert out.shape == (t, 8)
    assert np.abs(out.data - _attention_oracle(q, k, v, 2, cos, sin, past_k, past_v)).max() < 1e-5
    if cache is not None:
        # the new rows now hold the rotated keys and the values
        rotated = [_rotate_oracle(k[:, 4 * h:4 * h + 4].astype(np.float64), cos, sin) for h in range(2)]
        assert np.abs(cache[0][:, start:] - np.stack(rotated)).max() < 1e-5
        assert np.array_equal(cache[1][:, start:], v.reshape(t, 2, 4).transpose(1, 0, 2))


@pytest.mark.parametrize("t, start", [(1, 0), (6, 0), (1, 5), (3, 5), (2 * TILE + 3, 5)])
def test_causal_attention_lanes_match_single_lanes(t, start):
    """A (B, T, d) call over a (B, H, L, dh) cache is B independent
    (T, d) calls, bit for bit, outputs and written cache rows alike."""
    lanes = [_attention_case(t, start, seed=s) for s in range(3)]
    cos, sin = lanes[0][3], lanes[0][4]
    stacked = [np.stack([lane[i] for lane in lanes]) for i in range(3)]
    cache = None if start == 0 else tuple(np.stack([lane[5][i] for lane in lanes]) for i in range(2))
    out = tn.causal_attention(*(Tensor(x) for x in stacked), 2, cos, sin, kv_cache=cache, start=start)
    assert out.shape == (3, t, 8)
    for b, (q, k, v, _, _, own_cache) in enumerate(lanes):
        alone = tn.causal_attention(Tensor(q), Tensor(k), Tensor(v), 2, cos, sin, kv_cache=own_cache, start=start)
        assert np.array_equal(out.data[b], alone.data)
        if cache is not None:
            assert np.array_equal(cache[0][b], own_cache[0]) and np.array_equal(cache[1][b], own_cache[1])


def test_grad_causal_attention_lanes():
    lanes = [_attention_case(3, 5, seed=s) for s in range(2)]
    cos, sin = lanes[0][3], lanes[0][4]
    q, k, v = (np.stack([lane[i] for lane in lanes]) for i in range(3))
    cache = tuple(np.stack([lane[5][i] for lane in lanes]) for i in range(2))
    w = np.random.default_rng(2).normal(size=(2, 3, 8)).astype(np.float32)

    def build(ts):
        out = tn.causal_attention(ts[0], ts[1], ts[2], 2, cos, sin, kv_cache=cache, start=5)
        return tn.sum_all(tn.mul(out, Tensor(w, dtype=ts[0].dtype)))

    check_grads(build, [q, k, v])


def test_causal_attention_tape_keeps_the_tiles_not_the_matrix():
    """Over 8 tiles the taped forward holds the tiles' probabilities, 9/16 of
    the (H, T, T) score matrix, plus (T, d) arrays; not the whole matrix."""
    t, n_heads = 8 * TILE, 4
    g = np.random.default_rng(0)
    q, k, v = (Tensor(g.normal(size=(t, 8)).astype(np.float32), requires_grad=True) for _ in range(3))
    angles = g.uniform(0.0, 2.0 * np.pi, size=(t, 1))
    cos, sin = np.cos(angles).astype(np.float32), np.sin(angles).astype(np.float32)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with Tape() as tape:
            out = tn.causal_attention(q, k, v, n_heads, cos, sin)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(tape) == 1
    assert held < 0.6 * n_heads * t * t * out.data.itemsize


def test_rms_norm_unit_rms():
    x = Tensor(rng().normal(size=(8, 16)).astype(np.float32) * 3 + 1)
    y = tn.rms_norm(x, Tensor(np.ones(16))).data
    rms = np.sqrt((y.astype(np.float64) ** 2).mean(axis=-1))
    assert np.abs(rms - 1.0).max() < 1e-5


def _fused_op_grads(op, inputs, w):
    """Output and input grads of sum(op(*inputs) * w): the upstream gradient
    reaching op's output is exactly w."""
    tensors = [Tensor(a, requires_grad=True) for a in inputs]
    with Tape():
        out = op(*tensors)
        backward(tn.sum_all(tn.mul(out, Tensor(w))))
    return out.data, [t.grad for t in tensors]


def test_rms_norm_matches_numpy_bitwise():
    """The fused norm·gain op gives the bits of a separate normalization and
    gain multiply: the same float32 products in the same order."""
    g = rng()
    x = (g.normal(size=(2, 7, 48)) * 3 + 1).astype(np.float32)
    gain = g.normal(size=(48,)).astype(np.float32)
    w = g.normal(size=x.shape).astype(np.float32)
    out, (gx, ggain) = _fused_op_grads(tn.rms_norm, (x, gain), w)

    inv = 1.0 / np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + 1e-5)
    y = x * inv
    assert out.tobytes() == (y * gain).tobytes()
    gy = w * gain
    dot = (x * gy).sum(axis=-1, keepdims=True)
    assert gx.tobytes() == (inv * (gy - (inv * inv / 48) * x * dot)).tobytes()
    assert ggain.tobytes() == (w * y).sum(axis=(0, 1)).tobytes()


def test_swiglu_matches_numpy_bitwise():
    g = rng()
    a = g.normal(size=(3, 5, 40)).astype(np.float32)
    b = g.normal(size=a.shape).astype(np.float32)
    w = g.normal(size=a.shape).astype(np.float32)
    out, (ga, gb) = _fused_op_grads(tn.swiglu, (a, b), w)

    sig = 1.0 / (1.0 + np.exp(-a))
    act = a * sig
    assert out.tobytes() == (act * b).tobytes()
    assert ga.tobytes() == ((w * b) * (sig * (1.0 + a * (1.0 - sig)))).tobytes()
    assert gb.tobytes() == (w * act).tobytes()


def test_fused_ops_reject_mismatched_shapes():
    x = Tensor(np.ones((4, 8)))
    with pytest.raises(ShapeError, match="rms_norm"):
        tn.rms_norm(x, Tensor(np.ones(4)))
    with pytest.raises(ShapeError, match="rms_norm"):
        tn.rms_norm(x, Tensor(np.ones((4, 8))))
    with pytest.raises(ShapeError, match="swiglu"):
        tn.swiglu(x, Tensor(np.ones(8)))


def test_determinism_same_seed_bitwise():
    def run():
        g = np.random.default_rng(7)
        x = Tensor(g.normal(size=(4, 8)).astype(np.float32), requires_grad=True)
        w = Tensor(g.normal(size=(8, 8)).astype(np.float32), requires_grad=True)
        gain = Tensor(g.normal(size=(8,)).astype(np.float32), requires_grad=True)
        with Tape():
            out = tn.sum_all(tn.silu(tn.matmul(tn.rms_norm(x, gain), w)))
            backward(out)
        return out.data.copy(), x.grad.copy(), w.grad.copy(), gain.grad.copy()

    first = run()
    second = run()
    for a, b in zip(first, second):
        assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# backward basics
# ---------------------------------------------------------------------------


def test_backward_sum_gives_ones():
    x = Tensor(rng().normal(size=(3, 4, 2)).astype(np.float32), requires_grad=True)
    with Tape():
        loss = tn.sum_all(x)
        backward(loss)
    assert np.array_equal(x.grad, np.ones_like(x.data))


def test_backward_sum_of_squares():
    x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    with Tape():
        loss = tn.sum_all(tn.mul(x, x))
        backward(loss)
    assert np.allclose(x.grad, [2.0, 4.0, 6.0])


def test_backward_rejects_non_scalar():
    x = Tensor(np.zeros((2, 2)), requires_grad=True)
    with Tape():
        y = tn.add(x, x)
        with pytest.raises(GradError, match="scalar"):
            backward(y)


def test_backward_rejects_detached_loss():
    x = Tensor(np.zeros(3), requires_grad=True)
    loss = tn.sum_all(x)  # no tape active
    with pytest.raises(GradError, match="tape"):
        backward(loss)


def test_no_recording_without_tape():
    x = Tensor(np.ones(3), requires_grad=True)
    out = tn.silu(x)
    assert out._tape is None and not out.requires_grad


# ---------------------------------------------------------------------------
# per-op gradient checks against the finite-difference oracle
# ---------------------------------------------------------------------------


def test_grad_add_sub_mul_scale():
    a = rng().normal(size=(3, 4)).astype(np.float32)
    b = rng().normal(size=(4,)).astype(np.float32)
    check_grads(lambda t: tn.sum_all(tn.mul(tn.add(t[0], t[1]), tn.sub(t[0], t[1]))), [a, b])
    check_grads(lambda t: tn.sum_all(tn.scale(t[0], 2.5)), [a])


def test_grad_matmul():
    a = rng().normal(size=(3, 5)).astype(np.float32)
    b = rng().normal(size=(5, 2)).astype(np.float32)
    check_grads(lambda t: tn.sum_all(tn.matmul(t[0], t[1])), [a, b])


def test_grad_matmul_batched_broadcast():
    for lead in ((4,), (2, 3)):  # 3-D and 4-D left operands against a 2-D right one
        a = rng().normal(size=(*lead, 3, 5)).astype(np.float32)
        b = rng().normal(size=(5, 2)).astype(np.float32)
        check_grads(lambda t: tn.sum_all(tn.matmul(t[0], t[1])), [a, b])


def test_grad_softmax():
    g = rng()
    x = g.normal(size=(4, 6)).astype(np.float32)
    w = g.normal(size=(4, 6)).astype(np.float32)
    check_grads(lambda t: tn.sum_all(tn.mul(tn.softmax(t[0]), Tensor(w, dtype=t[0].dtype))), [x])


def test_grad_rms_norm():
    g = rng()
    x = g.normal(size=(5, 8)).astype(np.float32)
    gain = g.normal(size=(8,)).astype(np.float32)
    w = g.normal(size=(5, 8)).astype(np.float32)
    check_grads(lambda t: tn.sum_all(tn.mul(tn.rms_norm(t[0], t[1]), Tensor(w, dtype=t[0].dtype))), [x, gain])


def test_grad_swiglu():
    g = rng()
    a = g.normal(size=(5, 8)).astype(np.float32)
    b = g.normal(size=(5, 8)).astype(np.float32)
    w = g.normal(size=(5, 8)).astype(np.float32)
    check_grads(lambda t: tn.sum_all(tn.mul(tn.swiglu(t[0], t[1]), Tensor(w, dtype=t[0].dtype))), [a, b])


def test_grad_silu_abs():
    x = rng().normal(size=(7,)).astype(np.float32) + 0.3
    check_grads(lambda t: tn.sum_all(tn.silu(t[0])), [x])
    check_grads(lambda t: tn.sum_all(tn.absolute(t[0])), [x])


def test_grad_reshape_transpose_concat_narrow():
    a = rng().normal(size=(2, 3, 4)).astype(np.float32)
    b = rng().normal(size=(2, 3, 4)).astype(np.float32)

    def build(t):
        joined = tn.concat([t[0], t[1]], axis=2)
        sliced = tn.narrow(joined, 2, 1, 5)
        moved = tn.transpose(sliced, (1, 0, 2))
        flat = tn.reshape(moved, (3, 10))
        return tn.sum_all(tn.mul(flat, flat))

    check_grads(build, [a, b])


def test_grad_gather_rows_accumulates_duplicates():
    table = rng().normal(size=(5, 3)).astype(np.float32)
    idx = np.array([0, 2, 2, 4])
    check_grads(lambda t: tn.sum_all(tn.mul(tn.gather_rows(t[0], idx), tn.gather_rows(t[0], idx))), [table])


@pytest.mark.parametrize("t, start", ATTENTION_CASES)
def test_grad_causal_attention(t, start):
    q, k, v, cos, sin, cache = _attention_case(t, start, seed=1)
    w = np.random.default_rng(2).normal(size=(t, 8)).astype(np.float32)

    def build(ts):
        out = tn.causal_attention(ts[0], ts[1], ts[2], 2, cos, sin, kv_cache=cache, start=start)
        return tn.sum_all(tn.mul(out, Tensor(w, dtype=ts[0].dtype)))

    check_grads(build, [q, k, v])


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


def test_adamw_zero_grad_no_decay_leaves_params():
    p = Tensor(np.array([1.0, -2.0], dtype=np.float32), requires_grad=True)
    p.grad = np.zeros(2, dtype=np.float32)
    opt = AdamW({"p": p}, lr=0.1, weight_decay=0.0)
    opt.step()
    assert np.array_equal(p.data, [1.0, -2.0])
    assert opt.step_count == 1


def test_adamw_single_step_bias_corrected():
    p = Tensor(np.array(0.0, dtype=np.float32), requires_grad=True)
    p.grad = np.array(1.0, dtype=np.float32)
    opt = AdamW({"p": p}, lr=0.1, betas=(0.9, 0.999), weight_decay=0.0, eps=1e-8)
    opt.step()
    # m_hat = 1, v_hat = 1 after bias correction, so the step is -lr/(1+eps)
    assert abs(float(p.data) + 0.1) < 1e-7


def test_adamw_decoupled_decay_shrinks():
    p = Tensor(np.array([2.0, -4.0], dtype=np.float32), requires_grad=True)
    p.grad = np.zeros(2, dtype=np.float32)
    opt = AdamW({"p": p}, lr=0.1, weight_decay=0.5)
    opt.step()
    assert np.allclose(p.data, np.array([2.0, -4.0]) * (1 - 0.1 * 0.5), atol=1e-7)


def test_adamw_missing_grad_errors():
    p = Tensor(np.zeros(2), requires_grad=True)
    opt = AdamW({"p": p})
    with pytest.raises(GradError, match="p"):
        opt.step()


def test_clip_grad_norm():
    p = Tensor(np.zeros(4), requires_grad=True)
    p.grad = np.full(4, 3.0, dtype=np.float32)
    norm = clip_grad_norm({"p": p}, 1.0)
    assert abs(norm - 6.0) < 1e-6
    assert abs(np.linalg.norm(p.grad) - 1.0) < 1e-6
    # below the threshold grads are untouched
    p.grad = np.full(4, 0.1, dtype=np.float32)
    clip_grad_norm({"p": p}, 1.0)
    assert np.allclose(p.grad, 0.1)


# ---------------------------------------------------------------------------
# checkpoint container
# ---------------------------------------------------------------------------


def test_checkpoint_round_trip(tmp_path):
    params = {
        "w": np.arange(12, dtype=np.float32).reshape(3, 4),
        "b": np.array([1.5], dtype=np.float32),
        "s": np.array(2.0, dtype=np.float32),
    }
    header = {"d_model": "32", "n_layers": "2"}
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, header)
    loaded, loaded_header = load_checkpoint(path)
    assert loaded_header == header
    assert set(loaded) == set(params)
    for k in params:
        assert np.array_equal(loaded[k], params[k])


def test_checkpoint_write_is_byte_stable(tmp_path):
    params = {"b": np.ones(3, dtype=np.float32), "a": np.zeros(2, dtype=np.float32)}
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p1, params, {"k": "v"})
    save_checkpoint(p2, dict(reversed(list(params.items()))), {"k": "v"})
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_bad_magic_and_truncation(tmp_path):
    path = tmp_path / "x.ckpt"
    path.write_bytes(b"NOTCKPTX" + b"\x00" * 16)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)
    save_checkpoint(path, {"w": np.ones(5, dtype=np.float32)}, {})
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


def test_checkpoint_header_rejects_ambiguous_entries(tmp_path):
    path = tmp_path / "x.ckpt"
    for header in ({"k": "x\ny=z"}, {"k=q": "v"}, {"k\nq": "v"}):
        with pytest.raises(ValueError):
            save_checkpoint(path, {}, header)
    assert not path.exists()
    # '=' in a value and other line breaks than '\n' are kept as they are
    header = {"k": "a=b", "r": "x\ry z"}
    save_checkpoint(path, {}, header)
    assert load_checkpoint(path)[1] == header


def test_checkpoint_undecodable_text_is_a_checkpoint_error(tmp_path):
    path = tmp_path / "x.ckpt"
    bad_header = b"\xff\xfe=1\n"
    path.write_bytes(b"DESKCKPT" + struct.pack("<II", 1, len(bad_header)) + bad_header + struct.pack("<I", 0))
    with pytest.raises(CheckpointError, match="UTF-8"):
        load_checkpoint(path)
    bad_name = b"\xc3"
    path.write_bytes(b"DESKCKPT" + struct.pack("<III", 1, 0, 1) + struct.pack("<H", 1) + bad_name + struct.pack("<B", 0) + b"\x00" * 4)
    with pytest.raises(CheckpointError, match="UTF-8"):
        load_checkpoint(path)


def test_checkpoint_failed_write_keeps_previous_file(tmp_path):
    path = tmp_path / "model.ckpt"
    params = {"a": np.arange(6, dtype=np.float32).reshape(2, 3)}
    save_checkpoint(path, params, {"k": "v"})
    before = path.read_bytes()
    # no file of this process may grow past 64 bytes, so the next write fails partway, as on a full disk
    limits = resource.getrlimit(resource.RLIMIT_FSIZE)
    handler = signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
    resource.setrlimit(resource.RLIMIT_FSIZE, (64, limits[1]))
    try:
        with pytest.raises(OSError):
            save_checkpoint(path, {"a": np.zeros(100, dtype=np.float32)}, {"k": "w"})
    finally:
        resource.setrlimit(resource.RLIMIT_FSIZE, limits)
        signal.signal(signal.SIGXFSZ, handler)
    assert path.read_bytes() == before
    loaded, header = load_checkpoint(path)
    assert header == {"k": "v"} and np.array_equal(loaded["a"], params["a"])
    assert sorted(tmp_path.iterdir()) == [path]

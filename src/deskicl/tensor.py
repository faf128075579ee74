"""Dense tensors with a reverse-mode autodiff tape.

Small on purpose: float32 numpy arrays plus the dozen-ish primitives a
compact decoder-style transformer needs (matmul with leading-batch
broadcast, elementwise arithmetic, softmax, fused causal multi-head
attention with an optional leading lane axis, RMS normalization fused
with its gain, SiLU and the SiLU-gated product `swiglu`,
reshape/transpose/concat/narrow, row gather for embedding lookup, and
reductions). A fused op computes the products of its unfused composition
(normalize, then multiply by the gain; SiLU, then multiply) in the same
order, so it gives the same bits in one op instead of two. Ops record
backward rules only while a `Tape` context is open, so inference runs
tape-free at plain numpy speed, and `backward` releases the graph it
swept.

Causal attention runs over tiles of `_QUERY_TILE` query rows. A tile
scores only the keys its rows can see, so the blocks above the diagonal
are never computed, and the tape keeps the tiles' probabilities: about
half of the (H, T, T) matrix at long T. A call of at most one tile, as
every decode step is, is one scores product, one softmax and one context
product, with no buffer for the tiles' outputs.

Broadcasting is restricted to leading batch dimensions: the smaller
operand's shape must equal the trailing dims of the larger one, e.g.
(T, d) + (d,) or (H, T, p) * (T, p). Anything else raises ShapeError.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

DEFAULT_DTYPE = np.float32


class ShapeError(ValueError):
    """Operand shapes incompatible for the requested op."""


class GradError(RuntimeError):
    """Backward pass misuse (non-scalar loss, detached loss, missing grad)."""


class Tensor:
    """A dense array plus autodiff bookkeeping.

    `data` is always a contiguous numpy array (float32 unless a dtype is
    forced, which only the gradient-check oracle does). `grad`, when
    populated, matches `data`'s shape and dtype.
    """

    __slots__ = ("data", "requires_grad", "grad", "_tape")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype or DEFAULT_DTYPE)
        if not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        self.data = arr
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._tape: Tape | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def accumulate_grad(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(g, dtype=self.data.dtype)
        else:
            np.add(self.grad, g, out=self.grad)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class TapeEntry:
    """One recorded op: the output it produced and how to push grads back."""

    __slots__ = ("output", "backward")

    def __init__(self, output: Tensor, backward: Callable[[np.ndarray], None]):
        self.output = output
        self.backward = backward


class Tape:
    """Ordered record of ops for one forward pass.

    Entries are appended in execution order, which is a valid topological
    order, so the backward sweep is a single reverse iteration that visits
    each recorded node exactly once.
    """

    def __init__(self):
        self.entries: list[TapeEntry] = []

    def __enter__(self) -> "Tape":
        global _active_tape
        if _active_tape is not None:
            raise RuntimeError("nested Tape contexts are not supported")
        _active_tape = self
        return self

    def __exit__(self, *exc) -> None:
        global _active_tape
        _active_tape = None

    def __len__(self) -> int:
        return len(self.entries)


_active_tape: Tape | None = None


def _finish(out: Tensor, inputs: Sequence[Tensor], backward: Callable[[np.ndarray], None]) -> Tensor:
    tape = _active_tape
    if tape is None:
        return out
    if any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out._tape = tape
        tape.entries.append(TapeEntry(out, backward))
    return out


def backward(loss: Tensor) -> None:
    """Populate grads of every tensor the scalar `loss` depends on."""
    if loss.data.size != 1:
        raise GradError(f"backward requires a scalar loss, got shape {loss.shape}")
    tape = loss._tape
    if tape is None:
        raise GradError("loss is not attached to a tape; run the forward inside `with Tape():`")
    loss.grad = np.ones_like(loss.data)
    for entry in reversed(tape.entries):
        g = entry.output.grad
        if g is not None:
            entry.backward(g)
    # entries and outputs point at each other through `_tape`; dropping the
    # entries lets reference counting free the graph without the cyclic GC
    tape.entries.clear()


# ---------------------------------------------------------------------------
# broadcast helpers
# ---------------------------------------------------------------------------


def _check_leading_broadcast(a: tuple[int, ...], b: tuple[int, ...], op: str) -> None:
    small, big = (a, b) if len(a) <= len(b) else (b, a)
    if len(small) > 0 and big[len(big) - len(small):] != small:
        raise ShapeError(f"{op}: shapes {a} and {b} differ beyond a leading batch broadcast")


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if g.shape == shape:
        return g
    return g.sum(axis=tuple(range(g.ndim - len(shape))))


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        _check_leading_broadcast(a.shape, b.shape, "add")
    out = Tensor(a.data + b.data, dtype=a.dtype)

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(g, b.shape))

    return _finish(out, (a, b), bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_leading_broadcast(a.shape, b.shape, "sub")
    out = Tensor(a.data - b.data, dtype=a.dtype)

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b.accumulate_grad(-_unbroadcast(g, b.shape))

    return _finish(out, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        _check_leading_broadcast(a.shape, b.shape, "mul")
    out = Tensor(a.data * b.data, dtype=a.dtype)

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(g * a.data, b.shape))

    return _finish(out, (a, b), bwd)


def scale(a: Tensor, s: float) -> Tensor:
    out = Tensor(a.data * s, dtype=a.dtype)

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(g * s)

    return _finish(out, (a,), bwd)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul: operands must be at least 2-D, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dims disagree for {a.shape} @ {b.shape}")
    if b.ndim > 2:  # a 2-D b broadcasts against any batch dims of a
        _check_leading_broadcast(a.shape[:-2], b.shape[:-2], "matmul")
    out = Tensor(np.matmul(a.data, b.data), dtype=a.dtype)

    def bwd(g):
        if a.requires_grad:
            ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
            a.accumulate_grad(_unbroadcast(ga, a.shape))
        if b.requires_grad:
            if b.ndim == 2:
                # one product over every batch row, not a stack of per-batch
                # products summed afterwards
                gb = a.data.reshape(-1, a.shape[-1]).T @ g.reshape(-1, g.shape[-1])
            else:
                gb = _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape)
            b.accumulate_grad(gb)

    return _finish(out, (a, b), bwd)


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    out = Tensor(a.data.reshape(shape), dtype=a.dtype)

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(g.reshape(a.shape))

    return _finish(out, (a,), bwd)


def transpose(a: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    out = Tensor(np.ascontiguousarray(a.data.transpose(axes)), dtype=a.dtype)
    inv = tuple(np.argsort(axes))

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(g.transpose(inv))

    return _finish(out, (a,), bwd)


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    if not tensors:
        raise ShapeError("concat: empty input list")
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis), dtype=tensors[0].dtype)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        pieces = np.split(g, splits, axis=axis)
        for t, piece in zip(tensors, pieces):
            if t.requires_grad:
                t.accumulate_grad(piece)

    return _finish(out, tuple(tensors), bwd)


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice [start, start+length) along `axis`."""
    if start < 0 or start + length > a.shape[axis]:
        raise ShapeError(f"narrow: [{start}, {start + length}) out of range for axis {axis} of {a.shape}")
    idx = [slice(None)] * a.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)
    out = Tensor(np.ascontiguousarray(a.data[idx]), dtype=a.dtype)

    def bwd(g):
        if a.requires_grad:
            full = np.zeros_like(a.data)
            full[idx] = g
            a.accumulate_grad(full)

    return _finish(out, (a,), bwd)


def gather_rows(a: Tensor, indices: np.ndarray) -> Tensor:
    """Select rows along axis 0; also serves as embedding lookup."""
    idx = np.asarray(indices)
    if idx.dtype.kind not in "iu":
        raise ShapeError(f"gather_rows: integer indices required, got dtype {idx.dtype}")
    out = Tensor(a.data[idx], dtype=a.dtype)

    def bwd(g):
        if a.requires_grad:
            full = np.zeros_like(a.data)
            np.add.at(full, idx, g)
            a.accumulate_grad(full)

    return _finish(out, (a,), bwd)


def softmax(a: Tensor) -> Tensor:
    """Numerically stable softmax over the last axis."""
    shifted = a.data - a.data.max(axis=-1, keepdims=True)  # fresh temporary
    e = np.exp(shifted, out=shifted)
    s = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(s, dtype=a.dtype)

    def bwd(g):
        if a.requires_grad:
            ga = s * (g - (g * s).sum(axis=-1, keepdims=True))
            a.accumulate_grad(ga)

    return _finish(out, (a,), bwd)


def _rotate(x: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """RoPE with half-split pairing: rotate (x1, x2) by the per-row angles.
    Its transpose (for gradients) is the rotation with `-sin`."""
    half = x.shape[-1] // 2
    x1, x2 = x[..., :half], x[..., half:]
    return np.concatenate([x1 * cos - x2 * sin, x2 * cos + x1 * sin], axis=-1)


_QUERY_TILE = 64  # query rows per attention tile
_FUTURE = np.triu(np.ones((_QUERY_TILE, _QUERY_TILE), dtype=bool), k=1)  # a tile's masked diagonal square


def causal_attention(
    q: Tensor, k: Tensor, v: Tensor, n_heads: int, cos: np.ndarray, sin: np.ndarray,
    kv_cache: tuple[np.ndarray, np.ndarray] | None = None, start: int = 0,
) -> Tensor:
    """Multi-head causal self-attention of T new positions as one op.

    `q`, `k`, `v` are (T, d) projections, or (B, T, d) for B independent
    lanes that share positions. Each splits into `n_heads` heads of width
    dh; q and k are rotated by the position tables `cos`/`sin` (T, dh/2), q
    is scaled by dh**-0.5, and every position attends to itself and all
    earlier ones of its lane. The heads' outputs merge back to q's shape.

    `kv_cache` is a pair of (n_heads, L, dh) buffers, or (B, n_heads, L, dh)
    with lanes, whose rows before `start` hold the rotated keys and values
    of earlier positions. The new keys and values are written at rows
    start..start+T-1 and the queries attend over all start+T rows. Cached
    rows are constants: gradients reach only `q`, `k` and `v`.

    The queries are processed in tiles of `_QUERY_TILE` rows. Tile [i0, i1)
    scores keys 0..start+i1-1 only; of those, only the (i1-i0)-square on the
    diagonal has masked entries. Each row sees all its keys, so the tile's
    softmax is exact, with no running max or sum across tiles. The tape
    keeps every tile's probabilities, and the backward applies the softmax
    rule tile by tile, summing each tile's key and value gradients over
    the rows it scored.
    """
    *lead, t, d = q.shape
    if len(lead) > 1 or k.shape != q.shape or v.shape != q.shape or d % n_heads:
        raise ShapeError(f"causal_attention: q {q.shape}, k {k.shape}, v {v.shape} with {n_heads} heads")
    dh = d // n_heads
    s = float(dh) ** -0.5

    def heads(x: np.ndarray) -> np.ndarray:
        return x.reshape(*lead, t, n_heads, dh).swapaxes(-2, -3)

    def merge(x: np.ndarray) -> np.ndarray:
        return x.swapaxes(-2, -3).reshape(*lead, t, d)

    qh = _rotate(heads(q.data), cos, sin) * s
    kh = _rotate(heads(k.data), cos, sin)
    vh = heads(v.data)
    if kv_cache is None:
        keys, values = kh, vh
    else:
        k_buf, v_buf = kv_cache
        k_buf[..., start:start + t, :] = kh
        v_buf[..., start:start + t, :] = vh
        keys, values = k_buf[..., :start + t, :], v_buf[..., :start + t, :]
    probs = []  # each tile's (..., H, i1-i0, start+i1) probabilities, kept for the backward

    def tile_probs(att: np.ndarray, i0: int) -> np.ndarray:
        """Mask the diagonal square of the scores of query rows i0.., then
        softmax them in place."""
        n = att.shape[-2]
        if n > 1:
            np.copyto(att[..., start + i0:], -np.inf, where=_FUTURE[:n, :n])
        att -= att.max(axis=-1, keepdims=True)
        np.exp(att, out=att)
        att /= att.sum(axis=-1, keepdims=True)
        probs.append(att)
        return att

    if t <= _QUERY_TILE:
        ctx = np.matmul(tile_probs(np.matmul(qh, keys.swapaxes(-1, -2)), 0), values)
    else:
        ctx = np.empty((*lead, n_heads, t, dh), dtype=np.result_type(qh, keys, values))
        for i0 in range(0, t, _QUERY_TILE):
            i1 = min(i0 + _QUERY_TILE, t)
            att = np.matmul(qh[..., i0:i1, :], keys[..., :start + i1, :].swapaxes(-1, -2))
            np.matmul(tile_probs(att, i0), values[..., :start + i1, :], out=ctx[..., i0:i1, :])
    out = Tensor(merge(ctx), dtype=q.dtype)

    def bwd(g):
        gh = heads(g)
        gq = np.empty_like(qh)
        gk = np.zeros_like(kh)
        gv = np.zeros_like(vh)
        for i0, att in zip(range(0, t, _QUERY_TILE), probs):
            i1 = i0 + att.shape[-2]
            g_tile = gh[..., i0:i1, :]
            g_scores = np.matmul(g_tile, values[..., :start + i1, :].swapaxes(-1, -2))
            # row sums of g_scores * att, as (1, k) @ (k, 1) products
            g_scores -= np.matmul(g_scores[..., None, :], att[..., :, None])[..., 0]
            g_scores *= att
            np.matmul(g_scores, keys[..., :start + i1, :], out=gq[..., i0:i1, :])
            gk[..., :i1, :] += np.matmul(g_scores[..., start:].swapaxes(-1, -2), qh[..., i0:i1, :])
            gv[..., :i1, :] += np.matmul(att[..., start:].swapaxes(-1, -2), g_tile)
        if q.requires_grad:
            gq *= s
            q.accumulate_grad(merge(_rotate(gq, cos, -sin)))
        if k.requires_grad:
            k.accumulate_grad(merge(_rotate(gk, cos, -sin)))
        if v.requires_grad:
            v.accumulate_grad(merge(gv))

    return _finish(out, (q, k, v), bwd)


def rms_norm(a: Tensor, gain: Tensor, eps: float = 1e-5) -> Tensor:
    """Scale rows of the last axis to unit root-mean-square, then by the
    per-feature `gain` (d,): `(a * inv) * gain`, with the products of a
    separate normalization and gain multiply in the same order."""
    n = a.shape[-1]
    if gain.shape != (n,):
        raise ShapeError(f"rms_norm: gain {gain.shape} for rows of width {n}")
    # add.reduce / n gives np.mean's bits without its Python-level wrapper
    ms = np.add.reduce(a.data * a.data, axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(ms + eps)
    y = a.data * inv
    out = Tensor(y * gain.data, dtype=a.dtype)

    def bwd(g):
        if gain.requires_grad:
            gain.accumulate_grad(_unbroadcast(g * y, gain.shape))
        if a.requires_grad:
            gy = g * gain.data
            dot = (a.data * gy).sum(axis=-1, keepdims=True)
            a.accumulate_grad(inv * (gy - (inv * inv / n) * a.data * dot))

    return _finish(out, (a, gain), bwd)


def silu(a: Tensor) -> Tensor:
    sig = 1.0 / (1.0 + np.exp(-a.data))
    out = Tensor(a.data * sig, dtype=a.dtype)

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(g * (sig * (1.0 + a.data * (1.0 - sig))))

    return _finish(out, (a,), bwd)


def swiglu(a: Tensor, b: Tensor) -> Tensor:
    """SiLU-gated product `silu(a) * b` of two same-shaped tensors, with the
    products of a separate `silu` and `mul` in the same order."""
    if a.shape != b.shape:
        raise ShapeError(f"swiglu: gate {a.shape} and value {b.shape} differ")
    sig = 1.0 / (1.0 + np.exp(-a.data))
    act = a.data * sig
    out = Tensor(act * b.data, dtype=a.dtype)

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad((g * b.data) * (sig * (1.0 + a.data * (1.0 - sig))))
        if b.requires_grad:
            b.accumulate_grad(g * act)

    return _finish(out, (a, b), bwd)


def absolute(a: Tensor) -> Tensor:
    out = Tensor(np.abs(a.data), dtype=a.dtype)

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(g * np.sign(a.data))

    return _finish(out, (a,), bwd)


def sum_all(a: Tensor) -> Tensor:
    out = Tensor(a.data.sum(), dtype=a.dtype)

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(np.broadcast_to(g, a.shape))

    return _finish(out, (a,), bwd)

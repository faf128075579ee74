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
backward rules only while a `Tape` context is open: an untaped call
(inference) records no backward rule and appends nothing to a tape, though
each op still pays for its `Tensor` wrapping and checks. `backward` frees
each node of the graph as soon as its rule has run, so a training step
peaks at about the memory its forward holds; only leaves (parameters, and
tensors made with `requires_grad=True`) keep a `.grad`.

Causal attention runs over tiles of `_QUERY_TILE` query rows, and may be
given queries for only the last M of its T positions (a model's last
layer, whose other rows nothing reads). A tile scores only the keys its
rows can see, so the blocks above the diagonal are never computed, and the
tape keeps the tiles' probabilities: about half of the (H, T, T) matrix at
long T with every query. While a `Tape` records, the full probability
tiles are recycled across taped calls: each is a view of a buffer taken
from a module-wide pool of spares, and the backward rule gives the buffer
back after the tile's last use, so the next step's forward finds the memory
already mapped instead of faulting it in afresh. The pool keeps every
buffer given back; since a training step gives back all it took before the
next one starts, its spares are the most full tiles of each width that any
one step took. Untaped calls (inference) allocate their tiles as plain
temporaries.

Broadcasting is restricted to leading batch dimensions: the smaller
operand's shape must equal the trailing dims of the larger one, e.g.
(T, d) + (d,) or (H, T, p) * (T, p). Anything else raises ShapeError.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

DEFAULT_DTYPE = np.float32
_RMS_NORM_EPS = 1e-5


class ShapeError(ValueError):
    """Operand shapes incompatible for the requested op."""


class GradError(RuntimeError):
    """Backward pass misuse (non-scalar loss, detached loss)."""


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
    """Accumulate into `.grad` of every leaf the scalar `loss` depends on.

    Leaves are the tensors no recorded op produced: parameters, and any
    tensor made with `requires_grad=True`. The sweep pops the tape's
    entries last to first and drops each output's gradient once its rule
    has run, so a node's gradient, its rule and the arrays only that rule
    holds are freed as soon as no earlier node needs them. The tape is
    empty afterwards, and no op output keeps a `.grad`.
    """
    if loss.data.size != 1:
        raise GradError(f"backward requires a scalar loss, got shape {loss.shape}")
    tape = loss._tape
    if tape is None:
        raise GradError("loss is not attached to a tape; run the forward inside `with Tape():`")
    loss.grad = np.ones_like(loss.data)
    entries = tape.entries
    while entries:
        # popping also frees the graph without the cyclic GC: entries and
        # outputs point at each other through `_tape`
        entry = entries.pop()
        g, entry.output.grad = entry.output.grad, None
        if g is not None:
            entry.backward(g)


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


def _swap_halves(x: np.ndarray) -> np.ndarray:
    half = x.shape[-1] // 2
    return np.concatenate([x[..., half:], x[..., :half]], axis=-1)


def _rotate(x: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """RoPE with half-split pairing: rotate (x1, x2) by the per-row angles,
    given full-width tables `cos` = [cos, cos] and `sin` = [-sin, sin]."""
    return x * cos + _swap_halves(x) * sin


def _rotate_back(x: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """The transpose of `_rotate` (for gradients): the rotation by minus the angles."""
    return x * cos - _swap_halves(x) * sin


_QUERY_TILE = 64  # query rows per attention tile
_FUTURE = np.triu(np.ones((_QUERY_TILE, _QUERY_TILE), dtype=bool), k=1)  # a tile's masked diagonal square


class _TilePool:
    """Spare buffers for the full probability tiles of taped attention
    calls, recycled across steps instead of returned to the allocator.

    A buffer is (*lead, H, _QUERY_TILE, W), where W is the tile's key count
    K rounded up to a multiple of `_QUERY_TILE`, so steps of different
    lengths share buffers, and the tile is its `[..., :K]` view. Spares are
    kept per (lead + heads, W, dtype), so float32 and float64 tiles never
    share one. `take` hands out a spare or a new buffer, and `give` keeps
    every buffer given back.

    The bound is how a training step uses the pool: a call with every
    query takes one full tile of each width 64, 128, ... up to the step's
    length, a call with the queries of the last M positions only the
    widths of those rows' full tiles, and the backward gives all of them
    back before the next step's forward. So the spares hold, for each
    width, the most buffers of that width that any one step took.
    """

    def __init__(self):
        self.spares: dict[tuple, list[np.ndarray]] = {}

    def take(self, lead: tuple[int, ...], cols: int, dtype: np.dtype) -> np.ndarray:
        """A (*lead, _QUERY_TILE, cols) tile whose `base` is its pool buffer."""
        width = -(-cols // _QUERY_TILE) * _QUERY_TILE
        spares = self.spares.get((lead, width, dtype))
        buf = spares.pop() if spares else np.empty((*lead, _QUERY_TILE, width), dtype=dtype)
        return buf[..., :cols]

    def give(self, buf: np.ndarray) -> None:
        self.spares.setdefault((buf.shape[:-2], buf.shape[-1], buf.dtype), []).append(buf)


_tiles = _TilePool()


def causal_attention(
    q: Tensor, k: Tensor, v: Tensor, n_heads: int, cos: np.ndarray, sin: np.ndarray,
    kv_cache: tuple[np.ndarray, np.ndarray] | None = None, start: int = 0,
) -> Tensor:
    """Multi-head causal self-attention of T new positions as one op, for
    the queries of the last M of them.

    `k` and `v` are (T, d) projections, or (B, T, d) for B independent
    lanes that share positions, and `q` is (M, d) or (B, M, d) with M <= T:
    the queries of the last M new positions. Each splits into `n_heads`
    heads of width dh; k is rotated by the position tables `cos`/`sin`
    (T, dh), which hold [cos, cos] and [-sin, sin] of the angles (T, dh/2),
    q by their last M rows, q is scaled by dh**-0.5, and every position
    attends to itself and all earlier ones of its lane. The heads' outputs
    merge back to q's shape. With M == T every position has its query.

    `kv_cache` is a pair of (n_heads, L, dh) buffers, or (B, n_heads, L, dh)
    with lanes, whose rows before `start` hold the rotated keys and values
    of earlier positions. The new keys and values are written at rows
    start..start+T-1 and the queries attend over all rows up to their own.
    Cached rows are constants: gradients reach only `q`, `k` and `v`.

    The queries are processed in tiles of `_QUERY_TILE` rows. With `off =
    start + T - M` the position of the first query, tile [i0, i1) scores
    keys 0..off+i1-1 only; of those, only the (i1-i0)-square on the
    diagonal has masked entries. Each row sees all its keys, so the tile's
    softmax is exact, with no running max or sum across tiles. The tape
    keeps every tile's probabilities, and the backward applies the softmax
    rule tile by tile, summing each tile's key and value gradients over
    the rows it scored.

    While a `Tape` records the call, each full tile's probabilities are
    written into a view of a buffer from the module's tile pool
    (`_TilePool`), and the backward gives the buffer back right after the
    tile's last use, so consecutive training steps reuse the same memory.
    A training step gives back every tile before the next forward, so the
    pool holds, of each width, the most full tiles that one step took. A
    short last tile, and every tile of an untaped call, is allocated afresh.
    """
    *lead, m, d = q.shape
    t = k.shape[-2]
    if len(lead) > 1 or k.shape != (*lead, t, d) or v.shape != k.shape or m > t or d % n_heads:
        raise ShapeError(f"causal_attention: q {q.shape}, k {k.shape}, v {v.shape} with {n_heads} heads")
    dh = d // n_heads
    s = float(dh) ** -0.5
    off = start + t - m  # the position of the first query row

    def heads(x: np.ndarray) -> np.ndarray:
        return x.reshape(*x.shape[:-1], n_heads, dh).swapaxes(-2, -3)

    def merge(x: np.ndarray) -> np.ndarray:
        return x.swapaxes(-2, -3).reshape(*lead, x.shape[-2], d)

    q_cos, q_sin = cos[t - m:], sin[t - m:]
    qh = _rotate(heads(q.data), q_cos, q_sin) * s
    kh = _rotate(heads(k.data), cos, sin)
    vh = heads(v.data)
    if kv_cache is None:
        keys, values = kh, vh
    else:
        k_buf, v_buf = kv_cache
        k_buf[..., start:start + t, :] = kh
        v_buf[..., start:start + t, :] = vh
        keys, values = k_buf[..., :start + t, :], v_buf[..., :start + t, :]
    taped = _active_tape is not None and (q.requires_grad or k.requires_grad or v.requires_grad)
    probs = []  # each tile's (..., H, i1-i0, off+i1) probabilities, kept for the backward
    ctx = np.empty((*lead, n_heads, m, dh), dtype=np.result_type(qh, keys, values))
    for i0 in range(0, m, _QUERY_TILE):
        i1 = min(i0 + _QUERY_TILE, m)
        n = i1 - i0
        keys_t = keys[..., :off + i1, :].swapaxes(-1, -2)
        if not taped or n < _QUERY_TILE:
            # a short last tile is not recycled: padded to full rows, its
            # buffer would keep up to _QUERY_TILE - 1 unused rows resident
            att = np.matmul(qh[..., i0:i1, :], keys_t)
        else:
            tile = _tiles.take((*lead, n_heads), off + i1, np.result_type(qh, keys))
            att = np.matmul(qh[..., i0:i1, :], keys_t, out=tile)
        if n > 1:  # hide the diagonal square's future keys (a single row has none), then softmax in place
            np.copyto(att[..., off + i0:], -np.inf, where=_FUTURE[:n, :n])
        # the ufunc reductions give the .max()/.sum() bits without their Python-level wrappers
        att -= np.maximum.reduce(att, axis=-1, keepdims=True)
        np.exp(att, out=att)
        att /= np.add.reduce(att, axis=-1, keepdims=True)
        probs.append(att)
        np.matmul(att, values[..., :off + i1, :], out=ctx[..., i0:i1, :])
    out = Tensor(merge(ctx), dtype=q.dtype)

    def bwd(g):
        gh = heads(g)
        gq = np.empty_like(qh)
        gk = np.zeros_like(kh)
        gv = np.zeros_like(vh)
        for i0, att in zip(range(0, m, _QUERY_TILE), probs):
            i1 = i0 + att.shape[-2]
            g_tile = gh[..., i0:i1, :]
            g_scores = np.matmul(g_tile, values[..., :off + i1, :].swapaxes(-1, -2))
            # row sums of g_scores * att, as (1, k) @ (k, 1) products
            g_scores -= np.matmul(g_scores[..., None, :], att[..., :, None])[..., 0]
            g_scores *= att
            np.matmul(g_scores, keys[..., :off + i1, :], out=gq[..., i0:i1, :])
            # the new keys and values seen by the tile: rows 0..off-start+i1-1
            gk[..., :off - start + i1, :] += np.matmul(g_scores[..., start:].swapaxes(-1, -2), qh[..., i0:i1, :])
            gv[..., :off - start + i1, :] += np.matmul(att[..., start:].swapaxes(-1, -2), g_tile)
            if att.base is not None:  # a recycled tile
                _tiles.give(att.base)
        if q.requires_grad:
            gq *= s
            q.accumulate_grad(merge(_rotate_back(gq, q_cos, q_sin)))
        if k.requires_grad:
            k.accumulate_grad(merge(_rotate_back(gk, cos, sin)))
        if v.requires_grad:
            v.accumulate_grad(merge(gv))

    return _finish(out, (q, k, v), bwd)


def rms_norm(a: Tensor, gain: Tensor) -> Tensor:
    """Scale rows of the last axis to unit root-mean-square, then by the
    per-feature `gain` (d,): `(a * inv) * gain`, with the products of a
    separate normalization and gain multiply in the same order."""
    n = a.shape[-1]
    if gain.shape != (n,):
        raise ShapeError(f"rms_norm: gain {gain.shape} for rows of width {n}")
    # add.reduce / n gives np.mean's bits without its Python-level wrapper
    ms = np.add.reduce(a.data * a.data, axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(ms + _RMS_NORM_EPS)
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

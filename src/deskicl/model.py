"""Policy network: modality encoders, causal transformer, prediction heads.

Each environment step embeds to the role-embedded token triple [state,
reasoning, action]; `step_tokens` lays recorded steps out as the (3S, d)
sequence that training and the closed-loop prompt prefill share. State
tokens pool patch embeddings of both camera views plus a proprio embedding
through single-query softmax attention; reasoning and action tokens come
from small MLPs. Views arrive as `sim.observe` gives them and episodes keep
them, uint8 indices into `sim.PALETTE`; `patchify` is the one place that
looks them up, gathering each patch's colours straight from the index grid.
The trunk is a pre-norm decoder stack with RMSNorm gains,
rotary positions, and SiLU-gated feedforwards, built from fused ops: the
norm and its gain are one `tensor.rms_norm`, the gated product one
`tensor.swiglu` and the attention one `tensor.causal_attention`, so a block
is 13 tensor ops; its FFN width (SwiGLU's 8/3 rule) and RoPE base are fixed,
not settings. `transformer_hidden` is the only trunk:
training runs it over whole sequences, with its last block only on the
target steps' rows that the loss reads, and closed-loop decoding runs it
over a few new tokens at a time against a `KVCache`. `trace_head` reads
hidden states at state positions (the next token is the step's trace);
`chunk_head` reads them at reasoning positions and emits the next
`chunk_h` actions at once.

Baseline variants are configuration, not code paths: turning prompt or
target reasoning off substitutes the zero-vector trace everywhere in that
segment, so sequence geometry is identical across variants.
"""

from __future__ import annotations

import functools
import mmap
from dataclasses import dataclass

import numpy as np

from . import tensor as tn
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .data import TrainingSequence
from .settings import bounded, check_fields, write
from .sim import PALETTE
from .tensor import ShapeError, Tensor
from .traces import TRACE_DIM

TOKENS_PER_STEP = 3  # [state, reasoning, action]
ROLE_STATE, ROLE_REASONING, ROLE_ACTION = range(TOKENS_PER_STEP)
PROPRIO_DIM = 4
ACTION_DIM = 4
ROPE_BASE = 10000.0  # rotary frequency base (Su et al. 2021, arXiv:2104.09864)


@dataclass(frozen=True)
class ModelConfig:
    d_model: int = bounded(128, ge=1)
    n_layers: int = bounded(4, ge=1)
    n_heads: int = bounded(4, ge=1)
    patch_size: int = bounded(8, ge=1)
    third_resolution: int = bounded(32, ge=8)
    wrist_resolution: int = bounded(16, ge=8)
    max_context: int = bounded(2048, ge=TOKENS_PER_STEP)
    chunk_h: int = bounded(8, ge=1)
    lambda_r: float = bounded(0.3, ge=0.0)
    prompt_reasoning: bool = True
    target_reasoning: bool = True

    def __post_init__(self):
        check_fields(self)  # before the rules below divide by n_heads and patch_size
        # each rule names its fields as `name = value`, for parse_config to qualify with the section
        if self.d_model % self.n_heads:
            raise ValueError(f"d_model = {self.d_model} is not a multiple of n_heads = {self.n_heads}")
        if self.head_dim % 2:
            raise ValueError(
                f"d_model = {self.d_model} and n_heads = {self.n_heads} give an odd head_dim; RoPE rotates pairs of features"
            )
        for name in ("third_resolution", "wrist_resolution"):
            if getattr(self, name) % self.patch_size:
                raise ValueError(f"{name} = {getattr(self, name)} is not a multiple of patch_size = {self.patch_size}")

    @property
    def head_dim(self) -> int:
        return self.d_model // self.n_heads

    @property
    def d_ff(self) -> int:  # SwiGLU's 8/3 * d_model, rounded up to a multiple of 16
        return ((8 * self.d_model // 3 + 15) // 16) * 16

    @property
    def n_third_patches(self) -> int:
        return (self.third_resolution // self.patch_size) ** 2

    @property
    def n_wrist_patches(self) -> int:
        return (self.wrist_resolution // self.patch_size) ** 2

    @property
    def patch_dim(self) -> int:
        return self.patch_size * self.patch_size * 3


def _declare(config: ModelConfig, weight, constant) -> dict:
    """Every parameter by name, in the order `init` draws them:
    `weight(shape, bound)` makes one drawn uniformly in ±bound, and
    `constant(shape, value)` one filled with `value`."""
    params = {}

    def linear(name: str, fan_in: int, fan_out: int, bias: bool = True):
        params[f"{name}.w"] = weight((fan_in, fan_out), 1.0 / np.sqrt(fan_in))
        if bias:
            params[f"{name}.b"] = constant((fan_out,), 0.0)

    def table(name: str, rows: int, cols: int):
        params[name] = weight((rows, cols), 1.0 / np.sqrt(cols))

    def gain(name: str, size: int):
        params[name] = constant((size,), 1.0)

    d = config.d_model
    # per-patch MLP: the nonlinearity over (content + position) is what
    # lets one pooled vector carry which color sits where
    linear("third_patch.fc1", config.patch_dim, d)
    linear("third_patch.fc2", d, d)
    linear("wrist_patch.fc1", config.patch_dim, d)
    linear("wrist_patch.fc2", d, d)
    table("third_pos", config.n_third_patches, d)
    table("wrist_pos", config.n_wrist_patches, d)
    linear("proprio_mlp.fc1", PROPRIO_DIM, d)
    linear("proprio_mlp.fc2", d, d)
    table("pool.query", 1, d)
    linear("pool.key", d, d, bias=False)
    linear("trace_mlp.fc1", TRACE_DIM, d)
    linear("trace_mlp.fc2", d, d)
    linear("action_mlp.fc1", ACTION_DIM, d)
    linear("action_mlp.fc2", d, d)
    table("role_embed", 3, d)
    for i in range(config.n_layers):
        gain(f"blocks.{i}.attn_norm.g", d)
        linear(f"blocks.{i}.attn.wq", d, d, bias=False)
        linear(f"blocks.{i}.attn.wk", d, d, bias=False)
        linear(f"blocks.{i}.attn.wv", d, d, bias=False)
        linear(f"blocks.{i}.attn.wo", d, d, bias=False)
        gain(f"blocks.{i}.ffn_norm.g", d)
        linear(f"blocks.{i}.ffn.w_gate", d, config.d_ff, bias=False)
        linear(f"blocks.{i}.ffn.w_up", d, config.d_ff, bias=False)
        linear(f"blocks.{i}.ffn.w_down", config.d_ff, d, bias=False)
    gain("final_norm.g", d)
    linear("reasoning_head", d, TRACE_DIM)
    linear("action_head", d, config.chunk_h * ACTION_DIM)
    return params


class PolicyModel:
    """Named parameters plus the configuration that shapes them."""

    def __init__(self, config: ModelConfig, params: dict[str, Tensor]):
        self.config = config
        self.params = params

    @classmethod
    def init(cls, config: ModelConfig, seed: int) -> "PolicyModel":
        rng = np.random.default_rng(seed)
        arrays = _declare(
            config,
            weight=lambda shape, bound: rng.uniform(-bound, bound, size=shape).astype(np.float32),
            constant=lambda shape, value: np.full(shape, value, dtype=np.float32),
        )
        return cls(config, {k: Tensor(v, requires_grad=True) for k, v in arrays.items()})

    @property
    def dtype(self):
        return next(iter(self.params.values())).dtype

    def astype(self, dtype) -> "PolicyModel":
        """Same parameter values at another dtype (finite-difference twin)."""
        return PolicyModel(
            self.config,
            {k: Tensor(p.data.astype(dtype), requires_grad=p.requires_grad, dtype=dtype) for k, p in self.params.items()},
        )

    def save(self, path, extra_header: dict[str, str] | None = None) -> None:
        header = write(self.config)
        if extra_header:
            header.update(extra_header)
        save_checkpoint(path, {k: p.data for k, p in self.params.items()}, header)

    @classmethod
    def load(cls, path, config: ModelConfig) -> tuple["PolicyModel", dict[str, str]]:
        """The model of `config` that a checkpoint holds, and the checkpoint's
        header. The header must hold every field of `settings.write(config)`
        at the config's value; the error names each field it differs in, with
        both values ('none' where the header lacks it). The arrays must then be
        exactly the parameters, at the shapes, that the config declares, with
        finite values."""
        arrays, header = load_checkpoint(path)
        differ = [f"{k} = {header.get(k, 'none')} (config: {v})" for k, v in write(config).items() if header.get(k) != v]
        if differ:
            raise CheckpointError(f"{path}: not a checkpoint of the config's model: {', '.join(differ)}")
        shapes = _declare(config, weight=lambda shape, bound: shape, constant=lambda shape, value: shape)
        for name, shape in shapes.items():
            if name not in arrays:
                raise CheckpointError(f"{path}: missing parameter {name} of shape {shape}")
            if arrays[name].shape != shape:
                raise CheckpointError(f"{path}: parameter {name} has shape {arrays[name].shape}, its header's config declares {shape}")
            if not np.isfinite(arrays[name]).all():
                raise CheckpointError(f"{path}: parameter {name} holds a value that is not finite")
        unexpected = sorted(arrays.keys() - shapes.keys())
        if unexpected:
            raise CheckpointError(f"{path}: unexpected parameter {unexpected[0]}, which its header's config does not declare")
        params = {k: Tensor(v, requires_grad=True) for k, v in arrays.items()}
        return cls(config, params), header


# ---------------------------------------------------------------------------
# encoders
# ---------------------------------------------------------------------------


def patchify(images: np.ndarray, patch: int) -> np.ndarray:
    """(S, R, R) uint8 PALETTE indices -> (S, (R/p)^2, p*p*3) float32
    colours, row-major over the patch grid. The index grid is put in patch
    order first, so the one colour lookup writes the patches in place.
    Unchecked: `encode_state_batch`, its caller, checks the views, and
    `ModelConfig` makes every resolution a multiple of the patch size."""
    s, r, _ = images.shape
    n = r // patch
    grid = images.reshape(s, n, patch, n, patch).transpose(0, 1, 3, 2, 4)
    return PALETTE.take(grid, axis=0).reshape(s, n * n, patch * patch * 3)


def _mlp(model: PolicyModel, prefix: str, x: Tensor) -> Tensor:
    p = model.params
    h = tn.add(tn.matmul(x, p[f"{prefix}.fc1.w"]), p[f"{prefix}.fc1.b"])
    return tn.add(tn.matmul(tn.silu(h), p[f"{prefix}.fc2.w"]), p[f"{prefix}.fc2.b"])


def attention_pool(items: Tensor, query: Tensor, key_w: Tensor) -> Tensor:
    """Single-query softmax pooling over (..., N, d) items -> (..., d).

    An item's score is its key `item @ key_w` dotted with the query, scaled
    by d**-0.5. The keys are never formed: the items are scored against
    `key_w @ query`, one (d, d) @ (d, 1) product, which is the same sum
    reassociated. The pooled vector is a convex combination of the raw
    items: the learned query only shapes the weights, so identical items
    pool to themselves.
    """
    *lead, n, d = items.shape
    key_query = tn.matmul(key_w, tn.reshape(query, (d, 1)))  # (d, 1)
    scores = tn.matmul(items, key_query)  # (..., N, 1)
    scores = tn.scale(scores, float(d) ** -0.5)
    weights = tn.softmax(tn.reshape(scores, (*lead, n)))
    pooled = tn.matmul(tn.reshape(weights, (*lead, 1, n)), items)
    return tn.reshape(pooled, (*lead, d))


def _with_role(model: PolicyModel, tokens: Tensor, role: int) -> Tensor:
    """Add the role embedding of `role`, one (d,) row, to every (..., d) token."""
    return tn.add(tokens, tn.gather_rows(model.params["role_embed"], np.asarray(role)))


def encode_state_batch(model: PolicyModel, third: np.ndarray, wrist: np.ndarray, proprio: np.ndarray) -> Tensor:
    """Role-embedded state tokens for S steps: (S, d_model).

    Views are (S, R, R) uint8 `sim.PALETTE` indices, R the view's configured
    resolution; any other view raises a ShapeError naming it. Views
    (B, S, R, R) and proprio (B, S, 4) give (B, S, d_model) for B lanes.
    Each lane's products are computed as for its own (S, ...) batch, so a
    lane's tokens do not depend on the other lanes.
    """
    cfg = model.config
    p = model.params
    dtype = model.dtype
    for name, images, r in (("third", third, cfg.third_resolution), ("wrist", wrist, cfg.wrist_resolution)):
        if images.ndim < 3 or images.dtype != np.uint8 or images.shape[-2:] != (r, r):
            raise ShapeError(f"encode_state: {name} view is {images.dtype} {images.shape}, not (..., {r}, {r}) uint8")
    *lead, s = third.shape[:-2]

    def view_items(images: np.ndarray, prefix: str, pos_name: str, n_patches: int) -> Tensor:
        flat = patchify(images.reshape(-1, *images.shape[-2:]), cfg.patch_size).astype(dtype, copy=False)
        patches = Tensor(flat.reshape(*lead, s * n_patches, cfg.patch_dim), dtype=dtype)
        emb = tn.add(tn.matmul(patches, p[f"{prefix}.fc1.w"]), p[f"{prefix}.fc1.b"])
        emb = tn.add(tn.reshape(emb, (*lead, s, n_patches, cfg.d_model)), p[pos_name])
        emb = tn.reshape(tn.silu(emb), (*lead, s * n_patches, cfg.d_model))
        emb = tn.add(tn.matmul(emb, p[f"{prefix}.fc2.w"]), p[f"{prefix}.fc2.b"])
        return tn.reshape(emb, (*lead, s, n_patches, cfg.d_model))

    third_items = view_items(third, "third_patch", "third_pos", cfg.n_third_patches)
    wrist_items = view_items(wrist, "wrist_patch", "wrist_pos", cfg.n_wrist_patches)
    prop = _mlp(model, "proprio_mlp", Tensor(proprio.astype(dtype, copy=False), dtype=dtype))
    prop_items = tn.reshape(prop, (*lead, s, 1, cfg.d_model))
    items = tn.concat([third_items, wrist_items, prop_items], axis=-2)
    pooled = attention_pool(items, tn.reshape(p["pool.query"], (cfg.d_model,)), p["pool.key.w"])
    return _with_role(model, pooled, ROLE_STATE)


def encode_reasoning_batch(model: PolicyModel, traces: np.ndarray, masked: np.ndarray) -> Tensor:
    """Role-embedded reasoning tokens (..., S, d_model) of traces (..., S,
    10) in [0, 1], computed from range-checked proprio or clipped to it;
    masked rows encode the zero vector."""
    dtype = model.dtype
    traces = np.asarray(traces, dtype=dtype)
    masked = np.asarray(masked, dtype=bool).reshape(traces.shape[:-1])
    inputs = np.where(masked[..., None], np.zeros((), dtype=dtype), traces)
    return _with_role(model, _mlp(model, "trace_mlp", Tensor(inputs, dtype=dtype)), ROLE_REASONING)


def encode_action_batch(model: PolicyModel, actions: np.ndarray) -> Tensor:
    """Role-embedded action tokens (..., S, d_model) of actions (..., S, 4)."""
    return _with_role(model, _mlp(model, "action_mlp", Tensor(actions, dtype=model.dtype)), ROLE_ACTION)


def interleave_tokens(f_s: Tensor, f_r: Tensor, f_a: Tensor) -> Tensor:
    """Stack per-step [state, reasoning, action] tokens into (3S, d): row s
    of the (S, 3d) concat holds step s's three tokens, which its (3S, d)
    view puts at rows 3s, 3s+1 and 3s+2."""
    s, d = f_s.shape
    return tn.reshape(tn.concat([f_s, f_r, f_a], axis=-1), (TOKENS_PER_STEP * s, d))


# ---------------------------------------------------------------------------
# transformer trunk
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=8)
def _rope_table(head_dim: int, max_context: int, dtype: np.dtype) -> tuple[np.ndarray, np.ndarray]:
    """Read-only rotation tables (max_context, head_dim) of every position:
    [cos, cos] and [-sin, sin] of the (max_context, head_dim/2) angles."""
    half = head_dim // 2
    freqs = ROPE_BASE ** (-np.arange(half, dtype=np.float64) * 2.0 / head_dim)
    angles = np.arange(max_context, dtype=np.float64)[:, None] * freqs[None, :]
    cos, sin = np.cos(angles).astype(dtype), np.sin(angles).astype(dtype)
    tables = np.concatenate([cos, cos], axis=1), np.concatenate([-sin, sin], axis=1)
    for table in tables:
        table.flags.writeable = False
    return tables


def rope_tables(config: ModelConfig, start: int, length: int, dtype) -> tuple[np.ndarray, np.ndarray]:
    """Rotation tables (length, head_dim), [cos, cos] and [-sin, sin], for
    absolute positions start..start+length: read-only row slices of one
    table per (head_dim, max_context, dtype), computed on first use."""
    cos, sin = _rope_table(config.head_dim, config.max_context, np.dtype(dtype))
    return cos[start:start + length], sin[start:start + length]


class ContextOverflowError(ShapeError):
    """Sequence would exceed the model's maximum context length."""


class KVCache:
    """Per-layer rotated key/value buffers of `lanes` sequences that share
    one length: one lane until `select_lanes` sets them.

    They are allocated on first use, at the dtype of the tokens decoded into
    them. Storage is position-major, (n_layers, max_context, lanes, n_heads,
    head_dim), and only rows below `length` are ever written or copied, so
    the memory in use is a prefix of each layer's buffer. The buffers are
    anonymous mappings, which the kernel fills with zero pages on first
    touch at the base page size; `np.zeros` would advise huge pages for
    arrays this large, and each 2 MB page touched would then be resident
    in full.
    """

    def __init__(self, config: ModelConfig):
        self.config = config
        self.lanes = 1
        self.k: np.ndarray | None = None
        self.v: np.ndarray | None = None
        self.length = 0

    def _alloc(self, dtype) -> tuple[np.ndarray, np.ndarray]:
        cfg = self.config
        shape = (cfg.n_layers, cfg.max_context, self.lanes, cfg.n_heads, cfg.head_dim)
        size = int(np.prod(shape)) * np.dtype(dtype).itemsize
        return tuple(np.frombuffer(mmap.mmap(-1, size), dtype=dtype).reshape(shape) for _ in range(2))

    def layer(self, i: int, dtype) -> tuple[np.ndarray, np.ndarray]:
        """Layer i's key and value buffers, as (lanes, n_heads, max_context,
        head_dim) views."""
        if self.k is None:
            self.k, self.v = self._alloc(dtype)
        return self.k[i].transpose(1, 2, 0, 3), self.v[i].transpose(1, 2, 0, 3)

    def select_lanes(self, lanes: np.ndarray) -> None:
        """Keep the lanes at the indices `lanes`, in that order; an index may
        repeat, so one lane's prefix can be copied into several. The identity
        selection (every lane, in order) keeps the buffers as they are."""
        lanes = np.asarray(lanes, dtype=np.intp)
        if np.array_equal(lanes, np.arange(self.lanes)):
            return
        old_k, old_v, n = self.k, self.v, self.length
        self.lanes = len(lanes)
        if old_k is None:
            return
        self.k, self.v = self._alloc(old_k.dtype)
        self.k[:, :n] = old_k[:, :n, lanes]
        self.v[:, :n] = old_v[:, :n, lanes]

    @property
    def remaining(self) -> int:
        return self.config.max_context - self.length


def transformer_hidden(model: PolicyModel, tokens: Tensor, cache: KVCache | None = None, rows: int | None = None) -> Tensor:
    """Causal trunk over (T, d) tokens; returns the final-norm hidden states
    (T, d), or with `rows` those of the last `rows` positions only.

    (B, T, d) tokens are B independent lanes at the same positions and give
    (B, T, d); every product keeps the lane axis as a leading batch axis, so
    a lane's outputs are bit-identical to running it alone. Without a cache
    the tokens sit at positions 0..T-1. With one they follow the cache's
    `length` positions: their rotated keys and values are appended to it
    and they attend over everything it holds. (T, d) tokens need a 1-lane
    cache and (B, T, d) tokens a B-lane one.

    Each block is `x + attn(rms_norm(x, g_attn))`, then `x + swiglu(h @
    w_gate, h @ w_up) @ w_down` with `h = rms_norm(x, g_ffn)`, and a final
    `rms_norm` with its gain closes the stack. With `rows`, the last
    block projects keys and values from every position, which its rows
    attend to, and runs the rest of the block and the final norm on its
    rows only: no later layer reads the others.
    """
    cfg = model.config
    p = model.params
    if tokens.ndim not in (2, 3) or tokens.shape[-1] != cfg.d_model:
        raise ShapeError(f"transformer_hidden: tokens {tokens.shape}, expected (T, {cfg.d_model}) or (B, T, {cfg.d_model})")
    lanes = tokens.shape[0] if tokens.ndim == 3 else 1
    if cache is not None and cache.lanes != lanes:
        raise ShapeError(f"transformer_hidden: {lanes} token lanes against a {cache.lanes}-lane cache")
    t = tokens.shape[-2]
    start = 0 if cache is None else cache.length
    if start + t > cfg.max_context:
        raise ContextOverflowError(f"{start} cached plus {t} new tokens exceed max context {cfg.max_context}")
    cos, sin = rope_tables(cfg, start, t, tokens.dtype)

    x = tokens
    for i in range(cfg.n_layers):
        h = tn.rms_norm(x, p[f"blocks.{i}.attn_norm.g"])
        k, v = (tn.matmul(h, p[f"blocks.{i}.attn.{w}.w"]) for w in ("wk", "wv"))
        if rows is not None and i == cfg.n_layers - 1:
            x, h = (tn.narrow(a, -2, t - rows, rows) for a in (x, h))
        q = tn.matmul(h, p[f"blocks.{i}.attn.wq.w"])
        kv_cache = None
        if cache is not None:
            k_buf, v_buf = cache.layer(i, tokens.dtype)
            kv_cache = (k_buf, v_buf) if tokens.ndim == 3 else (k_buf[0], v_buf[0])
        ctx = tn.causal_attention(q, k, v, cfg.n_heads, cos, sin, kv_cache, start)
        x = tn.add(x, tn.matmul(ctx, p[f"blocks.{i}.attn.wo.w"]))

        h2 = tn.rms_norm(x, p[f"blocks.{i}.ffn_norm.g"])
        gate = tn.matmul(h2, p[f"blocks.{i}.ffn.w_gate.w"])
        up = tn.matmul(h2, p[f"blocks.{i}.ffn.w_up.w"])
        x = tn.add(x, tn.matmul(tn.swiglu(gate, up), p[f"blocks.{i}.ffn.w_down.w"]))

    if cache is not None:
        cache.length = start + t
    return tn.rms_norm(x, p["final_norm.g"])


def trace_head(model: PolicyModel, hidden: Tensor) -> Tensor:
    """Trace predictions (..., 10) from state-position hidden states (..., d)."""
    p = model.params
    return tn.add(tn.matmul(hidden, p["reasoning_head.w"]), p["reasoning_head.b"])


def chunk_head(model: PolicyModel, hidden: Tensor) -> Tensor:
    """Action chunks (..., chunk_h, 4) from reasoning-position hidden states (..., d)."""
    p = model.params
    flat = tn.add(tn.matmul(hidden, p["action_head.w"]), p["action_head.b"])
    return tn.reshape(flat, (*hidden.shape[:-1], model.config.chunk_h, ACTION_DIM))


def prediction_heads(model: PolicyModel, hidden: Tensor, n_steps: int) -> tuple[Tensor, Tensor]:
    """Per step of a (3S, d) hidden sequence: the trace prediction (S, 10)
    and the chunk prediction (S, chunk_h, 4)."""
    state_rows = np.arange(n_steps) * TOKENS_PER_STEP + ROLE_STATE
    h_state = tn.gather_rows(hidden, state_rows)
    h_reason = tn.gather_rows(hidden, state_rows + ROLE_REASONING)
    return trace_head(model, h_state), chunk_head(model, h_reason)


# ---------------------------------------------------------------------------
# sequence assembly and the combined loss
# ---------------------------------------------------------------------------


def effective_trace_mask(config: ModelConfig, n_steps: int, target_mask: np.ndarray) -> np.ndarray:
    """Which of `n_steps` steps feed the zero-vector trace token, given the
    variant flags: the steps before the last len(target_mask), a prompt's,
    unless `prompt_reasoning`; the target steps that `target_mask` marks,
    or all of them unless `target_reasoning`."""
    masked = np.full(n_steps, not config.prompt_reasoning)
    masked[n_steps - len(target_mask):] = target_mask | (not config.target_reasoning)
    return masked


def step_tokens(model: PolicyModel, third, wrist, proprio, traces, actions, target_mask) -> Tensor:
    """The (3S, d) token sequence of S recorded steps, the last
    len(target_mask) of them a target's. The steps that feed the
    zero-vector trace follow `effective_trace_mask`; a closed-loop prompt
    has no target steps, so an empty mask."""
    masked = effective_trace_mask(model.config, len(proprio), target_mask)
    return interleave_tokens(
        encode_state_batch(model, third, wrist, proprio),
        encode_reasoning_batch(model, traces, masked),
        encode_action_batch(model, actions),
    )


def forward_sequence(model: PolicyModel, seq: TrainingSequence) -> tuple[Tensor, Tensor]:
    """Teacher-forced forward: embed every step's ground-truth tokens, run
    the trunk, and return the predictions of the N target steps only,
    which the sequence lays out last: (trace predictions (N, 10), chunk
    predictions (N, H, 4)). The trunk's last block runs for the target
    steps' rows alone."""
    tokens = step_tokens(model, seq.third, seq.wrist, seq.proprio, seq.traces, seq.actions, seq.reasoning_input_mask)
    hidden = transformer_hidden(model, tokens, rows=TOKENS_PER_STEP * seq.n_target)
    return prediction_heads(model, hidden, seq.n_target)


def _masked_l1(pred: Tensor, labels: np.ndarray, mask: np.ndarray) -> tuple[Tensor, int]:
    """Mean |pred - labels| over the elements that `mask`, broadcast to
    pred's shape, selects, and their count; the mean is 0 when it selects
    none."""
    weights = np.broadcast_to(mask, pred.shape).astype(pred.dtype)
    count = int(np.count_nonzero(weights))
    diff = tn.absolute(tn.sub(pred, Tensor(labels, dtype=pred.dtype)))
    total = tn.sum_all(tn.mul(diff, Tensor(weights, dtype=pred.dtype)))
    return tn.scale(total, 1.0 / max(count, 1)), count


def combined_loss(
    trace_pred: Tensor,
    chunk_pred: Tensor,
    trace_labels: np.ndarray,
    chunk_labels: np.ndarray,
    chunk_valid: np.ndarray,
    lambda_r: float,
    target_reasoning: bool,
) -> tuple[Tensor, float, float]:
    """Mean L1 over the valid chunk elements plus, if `target_reasoning`,
    lambda_r times the mean L1 over the trace elements, of steps that all
    carry loss.

    Returns (loss, action term, reasoning term). The reasoning term is 0
    without `target_reasoning` (the no-reasoning baseline); having no valid
    action element at all is an error.
    """
    l_action, action_count = _masked_l1(chunk_pred, chunk_labels, chunk_valid[:, :, None])
    if action_count == 0:
        raise ValueError("loss: no valid action elements")
    if not target_reasoning:
        return l_action, float(l_action.data), 0.0
    l_reason, _ = _masked_l1(trace_pred, trace_labels, np.True_)
    loss = tn.add(l_action, tn.scale(l_reason, lambda_r))
    return loss, float(l_action.data), float(l_reason.data)


def sequence_loss(model: PolicyModel, seq: TrainingSequence) -> tuple[Tensor, float, float]:
    """Teacher-forced loss of one training sequence, scored on its target
    steps only, whose labels the sequence holds: prompt steps carry no loss.
    The trace labels are the target's trace inputs, the last N rows of
    `seq.traces`."""
    trace_pred, chunk_pred = forward_sequence(model, seq)
    return combined_loss(
        trace_pred,
        chunk_pred,
        seq.traces[-seq.n_target:],
        seq.chunk_actions,
        seq.chunk_valid,
        model.config.lambda_r,
        model.config.target_reasoning,
    )

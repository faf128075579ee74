"""Policy network: modality encoders, causal transformer, prediction heads.

Each environment step embeds to a token triple [state, reasoning, action].
State tokens pool patch embeddings of both camera views plus a proprio
embedding through single-query softmax attention. Reasoning and action
tokens come from small MLPs. The trunk is a pre-norm decoder stack with
RMSNorm gains, rotary positions, and SiLU-gated feedforwards; its
attention is the fused `tensor.causal_attention` op. `transformer_hidden`
is the only trunk: training runs it over whole sequences, and closed-loop
decoding runs it over a few new tokens at a time against a `KVCache`. The
reasoning head reads hidden states at state-token positions (the next
token is the step's trace); the action head reads hidden states at
reasoning-token positions and emits the next `chunk_h` actions at once.

Baseline variants are configuration, not code paths: turning prompt or
target reasoning off substitutes the zero-vector trace everywhere in that
segment, so sequence geometry is identical across variants.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import tensor as tn
from .checkpoint import load_checkpoint, save_checkpoint
from .data import TrainingSequence
from .tensor import ShapeError, Tensor
from .traces import TRACE_DIM

ROLE_STATE, ROLE_REASONING, ROLE_ACTION = 0, 1, 2
PROPRIO_DIM = 4
ACTION_DIM = 4


@dataclass(frozen=True)
class ModelConfig:
    d_model: int = 128
    n_layers: int = 4
    n_heads: int = 4
    d_ff: int = 0  # 0 = derive: 8/3 * d_model rounded up to a multiple of 16
    patch_size: int = 8
    third_resolution: int = 32
    wrist_resolution: int = 16
    max_context: int = 2048
    chunk_h: int = 8
    lambda_r: float = 0.3
    prompt_reasoning: bool = True
    target_reasoning: bool = True
    rope_base: float = 10000.0

    def __post_init__(self):
        if self.d_model % self.n_heads:
            raise ValueError(f"d_model {self.d_model} not divisible by {self.n_heads} heads")
        if self.third_resolution % self.patch_size or self.wrist_resolution % self.patch_size:
            raise ValueError("camera resolutions must be multiples of the patch size")
        if self.lambda_r < 0:
            raise ValueError("reasoning loss weight must be nonnegative")
        if self.chunk_h < 1:
            raise ValueError("chunk horizon must be at least 1")
        if self.d_ff == 0:
            object.__setattr__(self, "d_ff", ((8 * self.d_model // 3 + 15) // 16) * 16)

    @property
    def head_dim(self) -> int:
        return self.d_model // self.n_heads

    @property
    def n_third_patches(self) -> int:
        return (self.third_resolution // self.patch_size) ** 2

    @property
    def n_wrist_patches(self) -> int:
        return (self.wrist_resolution // self.patch_size) ** 2

    @property
    def patch_dim(self) -> int:
        return self.patch_size * self.patch_size * 3

    def to_header(self) -> dict[str, str]:
        return {
            "d_model": str(self.d_model),
            "n_layers": str(self.n_layers),
            "n_heads": str(self.n_heads),
            "d_ff": str(self.d_ff),
            "patch_size": str(self.patch_size),
            "third_resolution": str(self.third_resolution),
            "wrist_resolution": str(self.wrist_resolution),
            "max_context": str(self.max_context),
            "chunk_h": str(self.chunk_h),
            "lambda_r": repr(self.lambda_r),
            "prompt_reasoning": str(int(self.prompt_reasoning)),
            "target_reasoning": str(int(self.target_reasoning)),
            "rope_base": repr(self.rope_base),
        }

    @classmethod
    def from_header(cls, header: dict[str, str]) -> "ModelConfig":
        return cls(
            d_model=int(header["d_model"]),
            n_layers=int(header["n_layers"]),
            n_heads=int(header["n_heads"]),
            d_ff=int(header["d_ff"]),
            patch_size=int(header["patch_size"]),
            third_resolution=int(header["third_resolution"]),
            wrist_resolution=int(header["wrist_resolution"]),
            max_context=int(header["max_context"]),
            chunk_h=int(header["chunk_h"]),
            lambda_r=float(header["lambda_r"]),
            prompt_reasoning=bool(int(header["prompt_reasoning"])),
            target_reasoning=bool(int(header["target_reasoning"])),
            rope_base=float(header["rope_base"]),
        )


class PolicyModel:
    """Named parameters plus the configuration that shapes them."""

    def __init__(self, config: ModelConfig, params: dict[str, Tensor]):
        self.config = config
        self.params = params

    @classmethod
    def init(cls, config: ModelConfig, seed: int) -> "PolicyModel":
        rng = np.random.default_rng(seed)
        params: dict[str, Tensor] = {}

        def linear(name: str, fan_in: int, fan_out: int, bias: bool = True):
            bound = 1.0 / np.sqrt(fan_in)
            params[f"{name}.w"] = Tensor(rng.uniform(-bound, bound, size=(fan_in, fan_out)).astype(np.float32), requires_grad=True)
            if bias:
                params[f"{name}.b"] = Tensor(np.zeros(fan_out, dtype=np.float32), requires_grad=True)

        def table(name: str, rows: int, cols: int):
            bound = 1.0 / np.sqrt(cols)
            params[name] = Tensor(rng.uniform(-bound, bound, size=(rows, cols)).astype(np.float32), requires_grad=True)

        def gain(name: str, size: int):
            params[name] = Tensor(np.ones(size, dtype=np.float32), requires_grad=True)

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
        return cls(config, params)

    def param_arrays(self) -> dict[str, np.ndarray]:
        return {k: p.data for k, p in self.params.items()}

    def astype(self, dtype) -> "PolicyModel":
        """Same parameter values at another dtype (finite-difference twin)."""
        return PolicyModel(
            self.config,
            {k: Tensor(p.data.astype(dtype), requires_grad=p.requires_grad, dtype=dtype) for k, p in self.params.items()},
        )

    def clone(self) -> "PolicyModel":
        return PolicyModel(self.config, {k: Tensor(p.data.copy(), requires_grad=p.requires_grad) for k, p in self.params.items()})

    def save(self, path, extra_header: dict[str, str] | None = None) -> None:
        header = self.config.to_header()
        if extra_header:
            header.update(extra_header)
        save_checkpoint(path, self.param_arrays(), header)

    @classmethod
    def load(cls, path) -> tuple["PolicyModel", dict[str, str]]:
        arrays, header = load_checkpoint(path)
        config = ModelConfig.from_header(header)
        params = {k: Tensor(v, requires_grad=True) for k, v in arrays.items()}
        return cls(config, params), header


# ---------------------------------------------------------------------------
# encoders
# ---------------------------------------------------------------------------


def patchify(images: np.ndarray, patch: int) -> np.ndarray:
    """(S, R, R, 3) -> (S, (R/p)^2, p*p*3), row-major over the patch grid."""
    s, r, r2, ch = images.shape
    if r != r2 or ch != 3 or r % patch:
        raise ShapeError(f"patchify: bad image batch shape {images.shape} for patch {patch}")
    n = r // patch
    x = images.reshape(s, n, patch, n, patch, 3)
    return np.ascontiguousarray(x.transpose(0, 1, 3, 2, 4, 5)).reshape(s, n * n, patch * patch * 3)


def _mlp(model: PolicyModel, prefix: str, x: Tensor) -> Tensor:
    p = model.params
    h = tn.add(tn.matmul(x, p[f"{prefix}.fc1.w"]), p[f"{prefix}.fc1.b"])
    return tn.add(tn.matmul(tn.silu(h), p[f"{prefix}.fc2.w"]), p[f"{prefix}.fc2.b"])


def attention_pool(items: Tensor, query: Tensor, key_w: Tensor) -> Tensor:
    """Single-query softmax pooling over (S, N, d) items -> (S, d).

    The pooled vector is a convex combination of the raw items: the learned
    query only shapes the weights, so identical items pool to themselves.
    """
    s, n, d = items.shape
    keys = tn.matmul(items, key_w)  # (S, N, d)
    scores = tn.matmul(keys, tn.reshape(query, (d, 1)))  # (S, N, 1)
    scores = tn.scale(scores, float(d) ** -0.5)
    weights = tn.softmax(tn.reshape(scores, (s, n)))
    pooled = tn.matmul(tn.reshape(weights, (s, 1, n)), items)
    return tn.reshape(pooled, (s, d))


def encode_state_batch(
    model: PolicyModel,
    third: np.ndarray,
    wrist: np.ndarray,
    proprio: np.ndarray,
    use_positions: bool = True,
) -> Tensor:
    """State tokens for S steps: (S, d_model)."""
    cfg = model.config
    p = model.params
    dtype = next(iter(p.values())).dtype
    if third.shape[1:] != (cfg.third_resolution, cfg.third_resolution, 3):
        raise ShapeError(f"encode_state: third view {third.shape[1:]} vs configured {cfg.third_resolution}")
    if wrist.shape[1:] != (cfg.wrist_resolution, cfg.wrist_resolution, 3):
        raise ShapeError(f"encode_state: wrist view {wrist.shape[1:]} vs configured {cfg.wrist_resolution}")
    s = third.shape[0]

    def view_items(images: np.ndarray, prefix: str, pos_name: str, n_patches: int) -> Tensor:
        patches = Tensor(patchify(images.astype(dtype, copy=False), cfg.patch_size), dtype=dtype)
        flat = tn.reshape(patches, (s * n_patches, cfg.patch_dim))
        emb = tn.add(tn.matmul(flat, p[f"{prefix}.fc1.w"]), p[f"{prefix}.fc1.b"])
        emb = tn.reshape(emb, (s, n_patches, cfg.d_model))
        if use_positions:
            emb = tn.add(emb, p[pos_name])
        emb = tn.reshape(tn.silu(emb), (s * n_patches, cfg.d_model))
        emb = tn.add(tn.matmul(emb, p[f"{prefix}.fc2.w"]), p[f"{prefix}.fc2.b"])
        return tn.reshape(emb, (s, n_patches, cfg.d_model))

    third_items = view_items(third, "third_patch", "third_pos", cfg.n_third_patches)
    wrist_items = view_items(wrist, "wrist_patch", "wrist_pos", cfg.n_wrist_patches)
    prop = _mlp(model, "proprio_mlp", Tensor(proprio.astype(dtype, copy=False), dtype=dtype))
    prop_items = tn.reshape(prop, (s, 1, cfg.d_model))
    items = tn.concat([third_items, wrist_items, prop_items], axis=1)
    return attention_pool(items, tn.reshape(p["pool.query"], (cfg.d_model,)), p["pool.key.w"])


def encode_state(model: PolicyModel, third: np.ndarray, wrist: np.ndarray, proprio: np.ndarray) -> Tensor:
    """Single-step state token (d_model,)."""
    out = encode_state_batch(model, third[None], wrist[None], proprio[None].reshape(1, PROPRIO_DIM))
    return tn.reshape(out, (model.config.d_model,))


def encode_reasoning_batch(model: PolicyModel, traces: np.ndarray, masked: np.ndarray) -> Tensor:
    """Reasoning tokens (S, d_model); masked rows encode the zero vector."""
    dtype = next(iter(model.params.values())).dtype
    traces = np.asarray(traces, dtype=dtype).reshape(-1, TRACE_DIM)
    masked = np.asarray(masked, dtype=bool).reshape(-1)
    live = ~masked
    if np.any((traces[live] < 0.0) | (traces[live] > 1.0)):
        raise ValueError("encode_reasoning: trace values outside [0, 1]")
    inputs = np.where(masked[:, None], np.zeros((), dtype=dtype), traces)
    return _mlp(model, "trace_mlp", Tensor(inputs, dtype=dtype))


def encode_reasoning(model: PolicyModel, trace: np.ndarray, masked: bool = False) -> Tensor:
    out = encode_reasoning_batch(model, np.asarray(trace).reshape(1, TRACE_DIM), np.array([masked]))
    return tn.reshape(out, (model.config.d_model,))


def encode_action_batch(model: PolicyModel, actions: np.ndarray) -> Tensor:
    dtype = next(iter(model.params.values())).dtype
    return _mlp(model, "action_mlp", Tensor(np.asarray(actions, dtype=dtype).reshape(-1, ACTION_DIM), dtype=dtype))


def interleave_tokens(model: PolicyModel, f_s: Tensor, f_r: Tensor, f_a: Tensor) -> Tensor:
    """Stack per-step [state, reasoning, action] tokens into (3S, d) and add
    role embeddings."""
    s, d = f_s.shape
    stacked = tn.concat(
        [tn.reshape(f_s, (s, 1, d)), tn.reshape(f_r, (s, 1, d)), tn.reshape(f_a, (s, 1, d))],
        axis=1,
    )
    tokens = tn.reshape(stacked, (3 * s, d))
    role_ids = np.tile(np.array([ROLE_STATE, ROLE_REASONING, ROLE_ACTION]), s)
    return tn.add(tokens, tn.embedding(model.params["role_embed"], role_ids))


# ---------------------------------------------------------------------------
# transformer trunk
# ---------------------------------------------------------------------------


def rope_tables(head_dim: int, start: int, length: int, base: float, dtype) -> tuple[np.ndarray, np.ndarray]:
    """cos/sin tables (length, head_dim/2) for absolute positions start..start+length."""
    half = head_dim // 2
    freqs = base ** (-np.arange(half, dtype=np.float64) * 2.0 / head_dim)
    angles = np.arange(start, start + length, dtype=np.float64)[:, None] * freqs[None, :]
    return np.cos(angles).astype(dtype), np.sin(angles).astype(dtype)


class ContextOverflowError(ShapeError):
    """Sequence would exceed the model's maximum context length."""


class KVCache:
    """Per-layer rotated key/value buffers up to the current length."""

    def __init__(self, config: ModelConfig):
        self.config = config
        shape = (config.n_layers, config.n_heads, config.max_context, config.head_dim)
        self.k = np.zeros(shape, dtype=np.float32)
        self.v = np.zeros(shape, dtype=np.float32)
        self.length = 0

    @property
    def remaining(self) -> int:
        return self.config.max_context - self.length


def transformer_hidden(model: PolicyModel, tokens: Tensor, cache: KVCache | None = None) -> Tensor:
    """Causal trunk over (T, d) tokens; returns the final-norm hidden states (T, d).

    Without a cache the tokens sit at positions 0..T-1. With one they follow
    the cache's `length` positions: their rotated keys and values are
    appended to it and they attend over everything it holds.
    """
    cfg = model.config
    p = model.params
    t = tokens.shape[0]
    start = 0 if cache is None else cache.length
    if start + t > cfg.max_context:
        raise ContextOverflowError(f"{start} cached plus {t} new tokens exceed max context {cfg.max_context}")
    cos, sin = rope_tables(cfg.head_dim, start, t, cfg.rope_base, tokens.dtype)

    x = tokens
    for i in range(cfg.n_layers):
        h = tn.mul(tn.rms_norm(x), p[f"blocks.{i}.attn_norm.g"])
        q, k, v = (tn.matmul(h, p[f"blocks.{i}.attn.{w}.w"]) for w in ("wq", "wk", "wv"))
        kv_cache = None if cache is None else (cache.k[i], cache.v[i])
        ctx = tn.causal_attention(q, k, v, cfg.n_heads, cos, sin, kv_cache, start)
        x = tn.add(x, tn.matmul(ctx, p[f"blocks.{i}.attn.wo.w"]))

        h2 = tn.mul(tn.rms_norm(x), p[f"blocks.{i}.ffn_norm.g"])
        gate = tn.silu(tn.matmul(h2, p[f"blocks.{i}.ffn.w_gate.w"]))
        up = tn.matmul(h2, p[f"blocks.{i}.ffn.w_up.w"])
        x = tn.add(x, tn.matmul(tn.mul(gate, up), p[f"blocks.{i}.ffn.w_down.w"]))

    if cache is not None:
        cache.length = start + t
    return tn.mul(tn.rms_norm(x), p["final_norm.g"])


def prediction_heads(model: PolicyModel, hidden: Tensor, n_steps: int) -> tuple[Tensor, Tensor]:
    """Per step: trace prediction read at the state position, chunk
    prediction read at the reasoning position."""
    cfg = model.config
    p = model.params
    state_rows = np.arange(n_steps) * 3
    reason_rows = state_rows + 1
    h_state = tn.gather_rows(hidden, state_rows)
    h_reason = tn.gather_rows(hidden, reason_rows)
    trace_pred = tn.add(tn.matmul(h_state, p["reasoning_head.w"]), p["reasoning_head.b"])
    chunk_flat = tn.add(tn.matmul(h_reason, p["action_head.w"]), p["action_head.b"])
    return trace_pred, tn.reshape(chunk_flat, (n_steps, cfg.chunk_h, ACTION_DIM))


# ---------------------------------------------------------------------------
# sequence assembly and the combined loss
# ---------------------------------------------------------------------------


def effective_trace_mask(config: ModelConfig, step_is_target: np.ndarray, reasoning_input_mask: np.ndarray) -> np.ndarray:
    """Which steps feed the zero-vector trace token, given the variant flags."""
    masked = reasoning_input_mask & step_is_target
    if not config.prompt_reasoning:
        masked = masked | ~step_is_target
    if not config.target_reasoning:
        masked = masked | step_is_target
    return masked


def forward_sequence(model: PolicyModel, seq: TrainingSequence) -> tuple[Tensor, Tensor]:
    """Teacher-forced forward: embed ground-truth tokens, run the trunk,
    return (trace predictions (S, 10), chunk predictions (S, H, 4))."""
    f_s = encode_state_batch(model, seq.third, seq.wrist, seq.proprio)
    masked = effective_trace_mask(model.config, seq.step_is_target, seq.reasoning_input_mask)
    f_r = encode_reasoning_batch(model, seq.traces, masked)
    f_a = encode_action_batch(model, seq.actions)
    tokens = interleave_tokens(model, f_s, f_r, f_a)
    hidden = transformer_hidden(model, tokens)
    return prediction_heads(model, hidden, seq.n_steps)


def combined_loss(
    trace_pred: Tensor,
    chunk_pred: Tensor,
    trace_labels: np.ndarray,
    chunk_labels: np.ndarray,
    chunk_valid: np.ndarray,
    loss_mask: np.ndarray,
    lambda_r: float,
    reasoning_loss_mask: np.ndarray | None = None,
) -> tuple[Tensor, float, float]:
    """Mean L1 over unmasked valid chunk elements plus lambda_r times the
    mean L1 over unmasked trace elements.

    Returns (loss, action term, reasoning term). The reasoning term is 0
    when no trace positions carry loss (the no-reasoning baseline); having
    no action positions at all is an error.
    """
    dtype = trace_pred.dtype
    if reasoning_loss_mask is None:
        reasoning_loss_mask = loss_mask

    action_mask = (loss_mask[:, None, None] & chunk_valid[:, :, None]) & np.ones((1, 1, ACTION_DIM), dtype=bool)
    action_count = int(action_mask.sum())
    if action_count == 0:
        raise ValueError("loss: no unmasked action elements")
    diff = tn.absolute(tn.sub(chunk_pred, Tensor(chunk_labels, dtype=dtype)))
    diff = tn.mul(diff, Tensor(action_mask.astype(dtype), dtype=dtype))
    l_action = tn.scale(tn.sum_all(diff), 1.0 / action_count)

    trace_count = int(reasoning_loss_mask.sum()) * trace_labels.shape[1]
    if trace_count:
        tdiff = tn.absolute(tn.sub(trace_pred, Tensor(trace_labels, dtype=dtype)))
        tdiff = tn.mul(tdiff, Tensor(np.broadcast_to(reasoning_loss_mask[:, None], trace_labels.shape).astype(dtype), dtype=dtype))
        l_reason = tn.scale(tn.sum_all(tdiff), 1.0 / trace_count)
        loss = tn.add(l_action, tn.scale(l_reason, lambda_r))
        return loss, float(l_action.data), float(l_reason.data)
    return l_action, float(l_action.data), 0.0


def sequence_loss(model: PolicyModel, seq: TrainingSequence) -> tuple[Tensor, float, float]:
    """Full teacher-forced loss for one training sequence."""
    trace_pred, chunk_pred = forward_sequence(model, seq)
    reasoning_loss_mask = seq.loss_mask if model.config.target_reasoning else np.zeros_like(seq.loss_mask)
    return combined_loss(
        trace_pred,
        chunk_pred,
        seq.traces,
        seq.chunk_actions,
        seq.chunk_valid,
        seq.loss_mask,
        model.config.lambda_r,
        reasoning_loss_mask=reasoning_loss_mask,
    )

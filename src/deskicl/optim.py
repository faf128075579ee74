"""AdamW with decoupled weight decay and a global grad-norm clip."""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from .tensor import GradError, Tensor

_BETAS = (0.9, 0.95)
_EPS = 1e-8


class AdamW:
    """Decoupled-weight-decay Adam over a named parameter dict.

    The decay is applied directly to the parameters (independent of the
    adaptive step), then the bias-corrected Adam update follows. Moment
    buffers shape-match their parameters; `step_count` increases by one
    per `step()` call.
    """

    def __init__(
        self,
        params: Mapping[str, Tensor],
        lr: float,
        weight_decay: float,
    ):
        self.params = dict(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def step(self) -> None:
        self.step_count += 1
        b1, b2 = _BETAS
        bc1 = 1.0 - b1 ** self.step_count
        bc2 = 1.0 - b2 ** self.step_count
        for name, p in self.params.items():
            if p.grad is None:
                raise GradError(f"adamw: parameter '{name}' has no grad")
            g = p.grad
            if self.weight_decay:
                p.data *= 1.0 - self.lr * self.weight_decay
            m = self.m[name]
            v = self.v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + _EPS)

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None


def clip_grad_norm(params: Mapping[str, Tensor], max_norm: float) -> float:
    """Scale all grads so their global L2 norm is at most `max_norm`.

    Returns the pre-clip norm. Parameters without grads are an error,
    matching the optimizer contract.
    """
    total = 0.0
    for name, p in params.items():
        if p.grad is None:
            raise GradError(f"clip_grad_norm: parameter '{name}' has no grad")
        total += float(np.sum(p.grad.astype(np.float64) ** 2))
    norm = math.sqrt(total)
    if norm > max_norm and norm > 0.0:
        factor = max_norm / norm
        for p in params.values():
            p.grad *= factor
    return norm

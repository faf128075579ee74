"""AdamW with decoupled weight decay and a global grad-norm clip."""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from .tensor import Tensor

_BETAS = (0.9, 0.95)
_EPS = 1e-8


class AdamW:
    """Decoupled-weight-decay Adam over a named parameter dict.

    The decay is applied directly to the parameters (independent of the
    adaptive step), then the bias-corrected Adam update follows. The
    optimizer owns every parameter's gradient: it gives each one a zero
    `.grad` beside its moment buffers, `backward` adds into it in place, and
    `zero_grad` zeroes it in place, so a parameter no loss reaches steps on
    a zero gradient. `step_count` increases by one per `step()` call.
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
        for p in self.params.values():
            p.grad = np.zeros_like(p.data)

    def step(self) -> None:
        self.step_count += 1
        b1, b2 = _BETAS
        bc1 = 1.0 - b1 ** self.step_count
        bc2 = 1.0 - b2 ** self.step_count
        for name, p in self.params.items():
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
            p.grad.fill(0.0)


def clip_grad_norm(params: Mapping[str, Tensor], max_norm: float) -> float:
    """Scale all grads so their global L2 norm is at most `max_norm`.

    Returns the pre-clip norm. Every parameter holds a grad: `AdamW` gives
    each one its buffer.
    """
    total = 0.0
    for p in params.values():
        total += float(np.sum(p.grad.astype(np.float64) ** 2))
    norm = math.sqrt(total)
    if norm > max_norm and norm > 0.0:
        factor = max_norm / norm
        for p in params.values():
            p.grad *= factor
    return norm

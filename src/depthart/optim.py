"""Adaptive-moment optimizer with decoupled weight decay, plus the
step-decay learning-rate rule used by the trainers."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor

BETA1, BETA2 = 0.9, 0.95  # the GPT-2-lineage moment decays
EPS = 1e-8


class AdamW:
    """Decoupled-weight-decay Adam over a named parameter dict, with the
    fixed moment decays ``BETA1``/``BETA2`` and denominator epsilon
    ``EPS``. ``lr`` may be passed per step to follow an external schedule.
    """

    def __init__(self, params: dict[str, Tensor], lr: float = 1e-4,
                 weight_decay: float = 0.0):
        self.params = params
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self, lr: float | None = None) -> None:
        """Apply one update from the accumulated grads, then clear them."""
        eta = self.lr if lr is None else lr
        self.t += 1
        bc1 = 1.0 - BETA1 ** self.t
        bc2 = 1.0 - BETA2 ** self.t
        for k, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            m = self.m[k]
            v = self.v[k]
            m += (1 - BETA1) * (g - m)
            v += (1 - BETA2) * (g * g - v)
            update = (m / bc1) / (np.sqrt(v / bc2) + EPS)
            if self.weight_decay:
                p.data -= eta * self.weight_decay * p.data
            p.data -= eta * update
            p.grad = None


def step_lr(base_lr: float, step: int, period: int, gamma: float) -> float:
    """Multiply the base rate by ``gamma`` once per completed period."""
    return base_lr * gamma ** (step // period)

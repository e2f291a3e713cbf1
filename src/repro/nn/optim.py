"""Optimizers.

Optimizers operate on a flat list of :class:`~repro.nn.parameter.Parameter`
objects.  Non-trainable parameters (running statistics) are skipped.  An
optional per-parameter post-update hook supports BinaryNet's weight
clipping to [-1, 1].
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from .parameter import Parameter

__all__ = ["Optimizer", "SGD", "Adam"]

PostUpdateHook = Callable[[Parameter], None]


class Optimizer:
    def __init__(self, params: Iterable[Parameter], lr: float, post_update: PostUpdateHook | None = None):
        self.params = [p for p in params if p.trainable]
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.lr = lr
        self.post_update = post_update

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        for p in self.params:
            self._update(p)
            if self.post_update is not None:
                self.post_update(p)

    def _update(self, p: Parameter) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class SGD(Optimizer):
    """SGD with optional classical momentum and L2 weight decay."""

    def __init__(
        self,
        params: Iterable[Parameter],
        lr: float = 0.01,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
        post_update: PostUpdateHook | None = None,
    ):
        super().__init__(params, lr, post_update)
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = {id(p): np.zeros_like(p.value) for p in self.params}

    def _update(self, p: Parameter) -> None:
        grad = p.grad
        if self.weight_decay:
            grad = grad + self.weight_decay * p.value
        if self.momentum:
            v = self._velocity[id(p)]
            v *= self.momentum
            v -= self.lr * grad
            p.value = p.value + v
        else:
            p.value = p.value - self.lr * grad


class Adam(Optimizer):
    """Adam (Kingma & Ba) — BinaryNet's reference training recipe uses Adam."""

    def __init__(
        self,
        params: Iterable[Parameter],
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        weight_decay: float = 0.0,
        post_update: PostUpdateHook | None = None,
    ):
        super().__init__(params, lr, post_update)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = {id(p): np.zeros_like(p.value) for p in self.params}
        self._v = {id(p): np.zeros_like(p.value) for p in self.params}
        self._t = 0

    def step(self) -> None:
        self._t += 1
        super().step()

    def _update(self, p: Parameter) -> None:
        grad = p.grad
        if self.weight_decay:
            grad = grad + self.weight_decay * p.value
        m = self._m[id(p)]
        v = self._v[id(p)]
        m *= self.beta1
        m += (1 - self.beta1) * grad
        v *= self.beta2
        v += (1 - self.beta2) * grad**2
        mhat = m / (1 - self.beta1**self._t)
        vhat = v / (1 - self.beta2**self._t)
        p.value = p.value - self.lr * mhat / (np.sqrt(vhat) + self.eps)

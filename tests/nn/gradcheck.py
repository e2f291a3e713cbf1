"""Numerical gradient checking for the ``repro.nn`` tests (imported, not a conftest).

Validates every hand-written backward pass against central finite
differences.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.nn.layers.base import Layer


def numerical_gradient(
    f: Callable[[np.ndarray], float], x: np.ndarray, eps: float = 1e-5
) -> np.ndarray:
    """Central-difference gradient of scalar function ``f`` at ``x``."""
    x = x.astype(np.float64)
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + eps
        fp = f(x)
        x[idx] = orig - eps
        fm = f(x)
        x[idx] = orig
        grad[idx] = (fp - fm) / (2 * eps)
        it.iternext()
    return grad


def check_layer_gradients(
    layer: Layer,
    x: np.ndarray,
    rtol: float = 1e-4,
    atol: float = 1e-6,
    training: bool = True,
    check_params: bool = True,
) -> None:
    """Assert analytic input/parameter gradients match finite differences.

    Uses the scalar objective ``sum(w * layer(x))`` with a fixed random
    weighting ``w`` so every output element participates.
    """
    rng = np.random.default_rng(1234)
    if training:
        layer.train_mode()
    else:
        layer.eval_mode()

    out = layer.forward(x.copy())
    w = rng.normal(size=out.shape)

    for p in layer.params():
        p.zero_grad()
    out = layer.forward(x.copy())
    dx = layer.backward(w)

    def loss_wrt_input(xv: np.ndarray) -> float:
        return float((layer.forward(xv) * w).sum())

    num_dx = numerical_gradient(loss_wrt_input, x.copy())
    np.testing.assert_allclose(dx, num_dx, rtol=rtol, atol=atol)

    if not check_params:
        return
    for p in layer.params():
        if not p.trainable:
            continue
        analytic = p.grad.copy()
        original = p.value.copy()

        def loss_wrt_param(v: np.ndarray, p=p) -> float:
            p.value = v
            result = float((layer.forward(x.copy()) * w).sum())
            return result

        num = numerical_gradient(loss_wrt_param, original.copy())
        p.value = original
        np.testing.assert_allclose(analytic, num, rtol=rtol, atol=atol, err_msg=p.name)

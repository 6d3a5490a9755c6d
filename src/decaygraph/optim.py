"""Adam optimizer over a named parameter dict."""

from __future__ import annotations

import numpy as np

from .autodiff import ShapeError, Tensor


# the moment decay rates and the denominator guard of Kingma and Ba's defaults
BETA1, BETA2, EPSILON = 0.9, 0.999, 1e-8


class Adam:
    """Standard Adam with bias correction.

    Parameters are updated in place between forward passes. Parameters
    whose ``.grad`` is None (unused in the last graph) are left alone,
    including their moment estimates.
    """

    def __init__(self, params: dict[str, Tensor], lr: float = 0.005):
        self.params = params
        self.lr = lr
        self.step_count = 0
        self._m = {name: np.zeros_like(p.data) for name, p in params.items()}
        self._v = {name: np.zeros_like(p.data) for name, p in params.items()}

    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - BETA1 ** t
        bc2 = 1.0 - BETA2 ** t
        for name in sorted(self.params):
            p = self.params[name]
            g = p.grad
            if g is None:
                continue
            if g.shape != p.data.shape:
                raise ShapeError(f"gradient shape {g.shape} does not match "
                                 f"parameter {name} shape {p.data.shape}")
            m = self._m[name]
            v = self._v[name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g * g
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + EPSILON)

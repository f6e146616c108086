"""Adam optimizer over a flat list of parameter arrays."""

from __future__ import annotations

import numpy as np

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam:
    def __init__(self, learning_rate=1e-3):
        self.learning_rate = learning_rate
        self._m = None
        self._v = None
        self._t = 0

    def step(self, params, grads):
        """Update `params` in place from same-shaped `grads` (bias-corrected)."""
        if len(params) != len(grads):
            raise ValueError(f"{len(params)} params vs {len(grads)} grads")
        if self._m is None:
            self._m = [np.zeros_like(p) for p in params]
            self._v = [np.zeros_like(p) for p in params]
        self._t += 1
        b1, b2 = BETA1, BETA2
        for i, (p, g, m, v) in enumerate(zip(params, grads, self._m, self._v)):
            if p.shape != g.shape:
                raise ValueError(f"param {i}: shape {p.shape} vs grad {g.shape}")
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            m_hat = m / (1 - b1**self._t)
            v_hat = v / (1 - b2**self._t)
            p -= (self.learning_rate * m_hat / (np.sqrt(v_hat) + EPS)).astype(p.dtype)

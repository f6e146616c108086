"""Finite-difference verification of every analytic gradient in the stack.

Central differences with a fixed step in double precision, compared
per-component against the analytic gradients. The padding filter loss is
quadratic in the filter weights, so agreement there is limited only by
roundoff; the end-to-end network case goes through the softmax and carries
genuine truncation error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..padding_module import _pair_stats
from .layers import Conv2D, Dense, Flatten, MaxPool2x2, ReLU, ZeroPad, softmax_xent

STEP = 1e-4


@dataclass
class GradCheckCase:
    name: str
    max_rel_err: float


@dataclass
class GradCheckReport:
    cases: list

    @property
    def max_rel_err(self):
        return max(c.max_rel_err for c in self.cases)

    @property
    def worst(self):
        return max(self.cases, key=lambda c: c.max_rel_err)

    def passed(self, tol):
        return self.max_rel_err <= tol

    def summary(self, tol):
        worst = self.worst
        status = "PASS" if self.passed(tol) else "FAIL"
        return (f"{status}: {len(self.cases)} gradient checks, max rel err "
                f"{self.max_rel_err:.3e} (worst: {worst.name}) vs tol {tol:g}")


def rel_err(analytic, numeric):
    """Per-component |a-n| / max(|a|, |n|); exact zeros agree exactly."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-12)
    return float((np.abs(a - n) / denom).max()) if a.size else 0.0


def numeric_grad(fn, arr):
    """Central-difference gradient of scalar `fn()` w.r.t. `arr` (in place)."""
    grad = np.zeros(arr.shape, dtype=np.float64)
    flat = arr.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + STEP
        up = fn()
        flat[i] = orig - STEP
        down = fn()
        flat[i] = orig
        gflat[i] = (up - down) / (2.0 * STEP)
    return grad


def finite_diff_check(fn, checks):
    """Compare analytic gradients against central differences of `fn`.

    `checks` is a list of (name, array, analytic_gradient); arrays are
    perturbed in place and restored. Returns one GradCheckCase per check.
    """
    return [GradCheckCase(name, rel_err(analytic, numeric_grad(fn, arr)))
            for name, arr, analytic in checks]


def module_gradient_suite(trials=100, seed=0):
    """Filter-loss gradients of the padding kernel on random single-channel
    inputs and filters, double precision."""
    rng = np.random.default_rng(seed)
    cases = []
    for trial in range(trials):
        h = int(rng.integers(4, 9))
        w = int(rng.integers(4, 9))
        x = rng.uniform(0.0, 1.0, size=(h, w))[None, :, :, None]
        weights = rng.uniform(-1.0, 1.0, size=(1, 3))
        analytic = _pair_stats(weights, x)[1][0]
        numeric = numeric_grad(lambda: _pair_stats(weights, x)[0][0], weights)
        cases.append(GradCheckCase(f"filter_loss[{trial}] {h}x{w}",
                                   rel_err(analytic, numeric)))
    return GradCheckReport(cases)


def _fresh_sample(rng, shape, scale=1.0):
    return (rng.uniform(-1.0, 1.0, size=shape) * scale).astype(np.float64)


def layer_gradient_suite(seed=0):
    """Conv, dense, pooling, softmax loss and an end-to-end network check."""
    rng = np.random.default_rng(seed)
    cases = []

    def probe(name, layer, x, readout):
        # the layer's parameters, then its input, under a linear readout
        fn = lambda: float(np.sum(layer.forward(x) * readout))
        fn()
        dx = layer.backward(readout)
        checks = [(f"{name}.{p}", param, grad)
                  for p, param, grad in zip("wb", layer.params(), layer.grads())]
        cases.extend(finite_diff_check(fn, checks + [(f"{name}.x", x, dx)]))

    # conv with zero padding attached
    probe("conv", Conv2D(2, 3, ZeroPad(1), rng=rng, dtype=np.float64),
          _fresh_sample(rng, (2, 6, 6, 2)), _fresh_sample(rng, (2, 6, 6, 3)))
    probe("dense", Dense(7, 5, rng=rng, dtype=np.float64),
          _fresh_sample(rng, (4, 7)), _fresh_sample(rng, (4, 5)))

    # maxpool: resample until every 2x2 block is comfortably tie-free
    for attempt in range(50):
        xp = _fresh_sample(rng, (2, 4, 4, 3))
        blocks = xp.reshape(2, 2, 2, 2, 2, 3).transpose(0, 1, 3, 5, 2, 4).reshape(-1, 4)
        top2 = np.sort(blocks, axis=1)[:, -2:]
        if (top2[:, 1] - top2[:, 0]).min() > 100 * STEP:
            break
    probe("maxpool", MaxPool2x2(), xp, _fresh_sample(rng, (2, 2, 2, 3)))

    # relu away from the kink
    for attempt in range(50):
        xr = _fresh_sample(rng, (3, 9))
        if np.abs(xr).min() > 100 * STEP:
            break
    probe("relu", ReLU(), xr, _fresh_sample(rng, (3, 9)))

    # softmax cross-entropy
    logits = _fresh_sample(rng, (5, 10), scale=2.0)
    labels = rng.integers(0, 10, size=5)
    fn = lambda: softmax_xent(logits, labels)[0]
    _, dlogits = softmax_xent(logits, labels)
    cases += finite_diff_check(fn, [("softmax_xent.logits", logits, dlogits)])

    # end-to-end: conv-relu-pool-flatten-dense with cross-entropy loss
    for attempt in range(50):
        net_rng = np.random.default_rng(seed + 1000 + attempt)
        conv2 = Conv2D(2, 4, ZeroPad(1), rng=net_rng, dtype=np.float64)
        dense2 = Dense(4 * 4 * 4, 10, rng=net_rng, dtype=np.float64)
        layers = [conv2, ReLU(), MaxPool2x2(), Flatten(), dense2]
        xe = np.abs(_fresh_sample(net_rng, (2, 8, 8, 2)))
        ye = net_rng.integers(0, 10, size=2)

        def fwd():
            h = xe
            for layer in layers:
                h = layer.forward(h)
            return h

        preact = conv2.forward(xe)
        if np.abs(preact).min() > 100 * STEP:
            break
    fn = lambda: softmax_xent(fwd(), ye)[0]
    _, dy = softmax_xent(fwd(), ye)
    for layer in reversed(layers):
        dy = layer.backward(dy)
    cases += finite_diff_check(fn, [("net.conv.w", conv2.w, conv2.dw),
                                    ("net.conv.b", conv2.b, conv2.db),
                                    ("net.dense.w", dense2.w, dense2.dw),
                                    ("net.dense.b", dense2.b, dense2.db),
                                    ("net.x", xe, dy)])

    return GradCheckReport(cases)


def full_suite(trials=100, seed=0):
    report = module_gradient_suite(trials=trials, seed=seed)
    return GradCheckReport(report.cases + layer_gradient_suite(seed).cases)

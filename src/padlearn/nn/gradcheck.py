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
    return cases


def _fresh_sample(rng, shape, scale=1.0):
    return (rng.uniform(-1.0, 1.0, size=shape) * scale).astype(np.float64)


def layer_gradient_suite(seed=0):
    """Conv, dense, pooling, softmax loss and an end-to-end network check."""
    rng = np.random.default_rng(seed)
    cases = []

    def probe(named_layers, x, loss, x_name):
        # forward the chain, backprop `loss`'s gradient, then check each
        # named layer's parameters in forward order and the input
        def fwd():
            h = x
            for _, layer in named_layers:
                h = layer.forward(h)
            return h

        fn = lambda: loss(fwd())[0]
        dy = loss(fwd())[1]
        for _, layer in reversed(named_layers):
            dy = layer.backward(dy)
        checks = [(f"{name}.{p}", param, grad) for name, layer in named_layers
                  for p, param, grad in zip("wb", layer.params(), layer.grads())]
        cases.extend(GradCheckCase(name, rel_err(analytic, numeric_grad(fn, arr)))
                     for name, arr, analytic in checks + [(x_name, x, dy)])

    def readout(weights):
        # a linear readout: its gradient is the weights themselves
        return lambda out: (float(np.sum(out * weights)), weights)

    # conv with zero padding attached
    probe([("conv", Conv2D(2, 3, ZeroPad(1), rng=rng, dtype=np.float64))],
          _fresh_sample(rng, (2, 6, 6, 2)),
          readout(_fresh_sample(rng, (2, 6, 6, 3))), "conv.x")
    probe([("dense", Dense(7, 5, rng=rng, dtype=np.float64))],
          _fresh_sample(rng, (4, 7)), readout(_fresh_sample(rng, (4, 5))), "dense.x")

    # maxpool: resample until every 2x2 block is comfortably tie-free
    for attempt in range(50):
        xp = _fresh_sample(rng, (2, 4, 4, 3))
        blocks = xp.reshape(2, 2, 2, 2, 2, 3).transpose(0, 1, 3, 5, 2, 4).reshape(-1, 4)
        top2 = np.sort(blocks, axis=1)[:, -2:]
        if (top2[:, 1] - top2[:, 0]).min() > 100 * STEP:
            break
    probe([("maxpool", MaxPool2x2())], xp,
          readout(_fresh_sample(rng, (2, 2, 2, 3))), "maxpool.x")

    # relu away from the kink
    for attempt in range(50):
        xr = _fresh_sample(rng, (3, 9))
        if np.abs(xr).min() > 100 * STEP:
            break
    probe([("relu", ReLU())], xr, readout(_fresh_sample(rng, (3, 9))), "relu.x")

    # softmax cross-entropy
    logits = _fresh_sample(rng, (5, 10), scale=2.0)
    labels = rng.integers(0, 10, size=5)
    probe([], logits, lambda out: softmax_xent(out, labels), "softmax_xent.logits")

    # end-to-end: conv-relu-pool-flatten-dense with cross-entropy loss
    for attempt in range(50):
        net_rng = np.random.default_rng(seed + 1000 + attempt)
        conv = Conv2D(2, 4, ZeroPad(1), rng=net_rng, dtype=np.float64)
        dense = Dense(4 * 4 * 4, 10, rng=net_rng, dtype=np.float64)
        xe = np.abs(_fresh_sample(net_rng, (2, 8, 8, 2)))
        ye = net_rng.integers(0, 10, size=2)
        if np.abs(conv.forward(xe)).min() > 100 * STEP:
            break
    probe([("net.conv", conv), ("net.relu", ReLU()), ("net.pool", MaxPool2x2()),
           ("net.flatten", Flatten()), ("net.dense", dense)],
          xe, lambda out: softmax_xent(out, ye), "net.x")
    return cases

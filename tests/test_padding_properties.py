"""Property tests: the batched PaddingModule against the 2-D reference functions.

The module pads and trains a whole (N, H, W, C) batch at once; the module-level
functions work on one 2-D plane. These tests draw shapes, ranks, dtypes, ring
counts and data, and require the two to agree: bit for bit on the padded
output and the stripped gradient, and to 1e-12 relative on the local loss and
its gradient in float64.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given
from hypothesis import strategies as st

from padlearn.padding_module import (FilterBank, PaddingModule, assemble_padded,
                                     build_predictor, extract_borders,
                                     extract_neighbors, extract_target, local_mse,
                                     local_mse_grad, predict_borders)

DTYPES = (np.float32, np.float64)


@st.composite
def batches(draw, min_side, dtypes=DTYPES):
    """(x4, weights, ndim): a random batch, its filter bank, and the rank to
    hand it to the module in (2-D and 3-D inputs hold one image)."""
    ndim = draw(st.sampled_from((2, 3, 4)))
    n = draw(st.integers(1, 3)) if ndim == 4 else 1
    c = draw(st.integers(1, 5)) if ndim > 2 else 1
    h = draw(st.integers(min_side, 9))
    w = draw(st.integers(min_side, 9))
    x_dtype = draw(st.sampled_from(dtypes))
    w_dtype = draw(st.sampled_from(dtypes))
    zeros = draw(st.sampled_from((0.0, 0.3)))  # share of exact zeros, for signed-zero sums
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x4 = rng.normal(size=(n, h, w, c))
    x4[rng.random(x4.shape) < zeros] = 0.0
    weights = rng.uniform(-1, 1, size=(c, 3)).astype(w_dtype)
    return x4.astype(x_dtype), weights, ndim


def as_rank(x4, ndim):
    if ndim == 2:
        return x4[0, :, :, 0]
    if ndim == 3:
        return x4[0]
    return x4


def module_for(weights, pad_size=1):
    mod = PaddingModule(weights.shape[0], pad_size=pad_size, dtype=weights.dtype)
    mod.filters.weights = weights.copy()
    return mod


def reference_pad(x4, weights, rings):
    """Each image and channel padded ring by ring with the 2-D functions."""
    n, h, w, c = x4.shape
    fb = FilterBank(c, dtype=weights.dtype)
    fb.weights = weights
    planes = []
    for i in range(n):
        for ch in range(c):
            plane = x4[i, :, :, ch]
            for _ in range(rings):
                preds = predict_borders(fb, build_predictor(extract_borders(plane)), ch)
                plane = assemble_padded(plane, preds)
            planes.append(plane)
    return np.stack(planes).reshape(n, c, h + 2 * rings, w + 2 * rings).transpose(0, 2, 3, 1)


def reference_stats(x4, weights):
    """Per-channel local MSE and its gradient, averaged over the images."""
    n, _, _, c = x4.shape
    fb = FilterBank(c, dtype=weights.dtype)
    fb.weights = weights
    mse = np.zeros(c)
    grad = np.zeros((c, 3))
    for i in range(n):
        for ch in range(c):
            plane = x4[i, :, :, ch]
            pair = build_predictor(extract_neighbors(plane)), extract_target(plane)
            mse[ch] += local_mse(fb, *pair, ch) / n
            grad[ch] += local_mse_grad(fb, *pair, ch) / n
    return mse, grad


@st.composite
def pad_cases(draw):
    mode = draw(st.sampled_from(("train", "eval")))
    x4, weights, ndim = draw(batches(4 if mode == "train" else 2))
    return x4, weights, ndim, mode, draw(st.integers(1, 4))


@given(pad_cases())
def test_forward_matches_reference_chain(case):
    x4, weights, ndim, mode, rings = case
    mod = module_for(weights, rings)
    if mode == "eval":
        mod.eval()
    out = mod.forward(as_rank(x4, ndim))
    want = reference_pad(x4, weights, rings)
    assert out.dtype == want.dtype == np.result_type(x4, weights)
    assert out.shape == as_rank(want, ndim).shape
    assert out.tobytes() == as_rank(want, ndim).tobytes()
    s = rings
    interior = out[s:-s, s:-s] if ndim == 2 else out[..., s:-s, s:-s, :]
    assert interior.tobytes() == as_rank(x4, ndim).astype(out.dtype).tobytes()


@given(pad_cases())
def test_backward_strips_bit_exact(case):
    x4, weights, ndim, mode, rings = case
    mod = module_for(weights, rings)
    if mode == "eval":
        mod.eval()
    out = mod.forward(as_rank(x4, ndim))
    g = np.random.default_rng(rings).normal(size=out.shape).astype(out.dtype)
    before = mod.filters.weights.copy()
    got = mod.backward(g)
    s = rings
    want = g[s:-s, s:-s] if ndim == 2 else g[..., s:-s, s:-s, :]
    assert got.shape == as_rank(x4, ndim).shape
    assert got.tobytes() == np.ascontiguousarray(want).tobytes()
    assert np.array_equal(mod.filters.weights, before) == (mode == "eval")
    assert mod.cache is None


@given(batches(4, dtypes=(np.float64,)))
def test_local_update_matches_reference_gradient(case):
    x4, weights, ndim = case
    mod = module_for(weights)
    mod.forward(as_rank(x4, ndim))
    steps = []
    mod.filters.step = steps.append
    mod.local_update()
    mse, grad = reference_stats(x4, weights)
    np.testing.assert_allclose(steps[0], grad, rtol=1e-12,
                               atol=1e-12 * np.abs(grad).max())
    assert mod.last_local_mse == pytest.approx(mse.mean(), rel=1e-12)


@given(batches(4, dtypes=(np.float64,)))
def test_supervision_mse_matches_reference(case):
    x4, weights, ndim = case
    mod = module_for(weights)
    got = mod.supervision_mse(as_rank(x4, ndim))
    mse, _ = reference_stats(x4, weights)
    assert got == pytest.approx(mse.mean(), rel=1e-12)
    assert np.array_equal(mod.filters.weights, weights)
    assert mod.cache is None

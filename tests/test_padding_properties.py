"""Property tests: the batched PaddingModule against the loop-based reference.

The module pads and trains a whole (N, H, W, C) batch at once;
`padding_reference` works on one 2-D plane with explicit loops. These tests
draw shapes, ranks, dtypes, ring counts and data, and require the two to
agree: bit for bit on the padded output and the stripped gradient, and to
1e-12 relative on the local loss and its gradient in float64. A state
machine then drives one module through any sequence of mode switches,
passes and updates.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from conftest import module_with
from padding_reference import local_mse_and_grad, pad_plane
from padlearn.padding_module import PaddingModule

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


def reference_pad(x4, weights, rings):
    """Each image and channel padded ring by ring by the reference."""
    n, h, w, c = x4.shape
    planes = [pad_plane(x4[i, :, :, ch], weights[ch], rings)
              for i in range(n) for ch in range(c)]
    return np.stack(planes).reshape(n, c, h + 2 * rings, w + 2 * rings).transpose(0, 2, 3, 1)


def reference_stats(x4, weights):
    """Per-channel local MSE and its gradient, averaged over the images."""
    n, _, _, c = x4.shape
    mse = np.zeros(c)
    grad = np.zeros((c, 3))
    for i in range(n):
        for ch in range(c):
            plane_mse, plane_grad = local_mse_and_grad(x4[i, :, :, ch], weights[ch])
            mse[ch] += plane_mse / n
            grad[ch] += plane_grad / n
    return mse, grad


@st.composite
def pad_cases(draw):
    mode = draw(st.sampled_from(("train", "eval")))
    x4, weights, ndim = draw(batches(4 if mode == "train" else 2))
    return x4, weights, ndim, mode, draw(st.integers(1, 4))


@given(pad_cases())
def test_forward_matches_reference_chain(case):
    x4, weights, ndim, mode, rings = case
    mod = module_with(weights, pad_size=rings)
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
    mod = module_with(weights, pad_size=rings)
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
    assert not np.shares_memory(got, g)
    assert np.array_equal(mod.filters.weights, before) == (mode == "eval")
    assert mod.cache is None


@given(batches(4, dtypes=(np.float64,)))
def test_local_update_matches_reference_gradient(case):
    x4, weights, ndim = case
    mod = module_with(weights)
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
    mod = module_with(weights)
    got = mod.supervision_mse(as_rank(x4, ndim))
    mse, _ = reference_stats(x4, weights)
    assert got == pytest.approx(mse.mean(), rel=1e-12)
    assert np.array_equal(mod.filters.weights, weights)
    assert mod.cache is None


class ModuleStateMachine(RuleBasedStateMachine):
    """One module through any sequence of mode switches, passes and updates.

    `armed` models the cache: set by a train-mode forward that succeeded,
    dropped by eval, a forward that raises and whatever consumes the cache
    (the update, and a train-mode backward). Every run starts armed, so
    that eval often meets a cache to drop.
    """

    X_SHAPE = (2, 5, 6, 2)
    OUT_SHAPE = (2, 9, 10, 2)

    def __init__(self):
        super().__init__()
        self.mod = PaddingModule(2, pad_size=2, learning_rate=0.05)
        self.mod.filters.weights = np.random.default_rng(0).uniform(-0.1, 0.1, (2, 3))
        self.armed = False

    def updates(self):
        return self.mod.training

    @rule()
    def train(self):
        self.mod.train()

    @rule()
    def eval(self):
        self.mod.eval()
        self.armed = False

    @initialize(seed=st.integers(0, 2**16))
    def arm(self, seed):
        self.forward(seed, diverge=False)

    @rule(seed=st.integers(0, 2**16), diverge=st.booleans())
    def forward(self, seed, diverge):
        x = np.random.default_rng(seed).normal(size=self.X_SHAPE)
        self.armed = False
        if diverge:
            x[1, 2, 3, 1] = np.inf
            with pytest.raises(FloatingPointError):
                self.mod.forward(x)
            return
        assert self.mod.forward(x).shape == self.OUT_SHAPE
        self.armed = self.mod.training

    def _backward(self, g):
        before = self.mod.filters.weights.copy()
        if self.updates() and not self.armed:
            with pytest.raises(RuntimeError):
                self.mod.backward(g)
            assert np.array_equal(self.mod.filters.weights, before)
            return
        got = self.mod.backward(g)
        if g is None:
            assert got is None
        else:
            assert got.tobytes() == np.ascontiguousarray(g[:, 2:-2, 2:-2]).tobytes()
        if not self.updates():
            assert np.array_equal(self.mod.filters.weights, before)
        self.armed = False

    @rule(seed=st.integers(0, 2**16))
    def backward(self, seed):
        self._backward(np.random.default_rng(seed).normal(size=self.OUT_SHAPE))

    @rule()
    def backward_none(self):
        self._backward(None)

    @rule()
    def local_update(self):
        if not self.armed:
            with pytest.raises(RuntimeError):
                self.mod.local_update()
            return
        self.mod.local_update()
        self.armed = False

    @rule(seed=st.integers(0, 2**16))
    def supervision_mse(self, seed):
        x = np.random.default_rng(seed).normal(size=self.X_SHAPE)
        mod = self.mod
        before = (mod.filters.weights.copy(), mod.cache, mod.training,
                  mod.last_local_mse)
        assert np.isfinite(mod.supervision_mse(x))
        assert np.array_equal(mod.filters.weights, before[0])
        assert mod.cache is before[1]
        assert mod.training == before[2]
        assert np.array_equal(mod.last_local_mse, before[3], equal_nan=True)

    @invariant()
    def cache_tracks_the_last_train_forward(self):
        assert (self.mod.cache is not None) == self.armed


ModuleStateMachine.TestCase.settings = settings(max_examples=50, stateful_step_count=30)
TestModuleStateMachine = ModuleStateMachine.TestCase

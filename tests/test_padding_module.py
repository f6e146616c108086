import warnings

import numpy as np
import pytest

from conftest import IDENTITY, module_with, random_module
from padding_reference import local_mse_and_grad, pad_plane, slide
from padlearn.padding_module import (FilterBank, PaddingModule, _pair_stats,
                                     load_weights, save_weights)

MEAN = (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)


def stats(theta, m):
    """The kernel's local MSE and filter gradient of plane m."""
    mse, grad = _pair_stats(np.array([theta], dtype=np.float64),
                            np.asarray(m, dtype=np.float64)[None, :, :, None])
    return mse[0], grad[0]


class TestExtractTarget:
    """Targets: the outermost rows and columns, as the kernel slices them."""

    def test_undersized(self):
        with pytest.raises(ValueError):
            module_with(IDENTITY).supervision_mse(np.ones((3, 4)))


class TestExtractNeighbors:
    """Predictor rows: the rows and columns just inside the targets, with
    the ends that overlap the perpendicular borders dropped."""

    def test_undersized(self):
        with pytest.raises(ValueError):
            module_with(IDENTITY).supervision_mse(np.ones((4, 3)))
        with pytest.raises(ValueError):
            module_with(IDENTITY).forward(np.ones((4, 3)))


class TestExtractBorders:
    """Each ring is predicted from the full outermost rows and columns of
    the current block, corners included."""

    def test_equals_target_on_original(self, m4):
        # the identity filter copies a row's own values into the middle of
        # its prediction, so the first ring's edges are the targets
        out = module_with(IDENTITY).eval().forward(m4)
        edges = [out[0, 1:-1], out[-1, 1:-1], out[1:-1, 0], out[1:-1, -1]]
        assert [list(e) for e in edges] == [[1, 2, 3, 4], [13, 14, 15, 16],
                                            [1, 5, 9, 13], [4, 8, 12, 16]]

    def test_constant_3x3(self):
        # the four borders are the same row, so rows and columns pad alike
        out = module_with((0.3, -0.2, 0.6)).eval().forward(np.full((3, 3), 5.0))
        assert np.array_equal(out, out.T)
        assert not np.all(out == 5.0)

    def test_2x2(self):
        out = module_with(IDENTITY).eval().forward(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert out.tolist() == [[2.5, 1, 2, 2.5],
                                [1, 1, 2, 2],
                                [3, 3, 4, 4],
                                [2.5, 3, 4, 2.5]]

    def test_undersized(self):
        with pytest.raises(ValueError):
            module_with(IDENTITY).eval().forward(np.ones((1, 5)))


class TestPredictBorders:
    def test_channel_out_of_range(self):
        # channel 1 has no filter in a one-filter bank, which would
        # otherwise broadcast over both channels
        with pytest.raises(ValueError):
            module_with(IDENTITY).eval().forward(np.ones((4, 4, 2)))


class TestForward:
    def test_shape_law(self):
        mod = module_with(MEAN, channels=3, pad_size=2).eval()
        out = mod.forward(np.zeros((32, 32, 3)))
        assert out.shape == (36, 36, 3)

    def test_identity_constant_multi_ring(self):
        mod = module_with(IDENTITY, pad_size=3).eval()
        out = mod.forward(np.full((3, 3), 5.0))
        assert out.shape == (9, 9)
        assert np.all(out == 5.0)

    def test_train_forward_keeps_supervision(self, m4):
        theta = (0.1, 0.7, 0.2)
        mod = module_with(theta)
        mod.eval()
        mod.forward(m4)
        assert mod.cache is None
        mod.train()
        mod.forward(m4)
        assert mod.cache is not None
        steps = []
        mod.filters.step = steps.append
        mod.local_update()
        mse, grad = local_mse_and_grad(m4, theta)
        np.testing.assert_allclose(steps[0][0], grad, rtol=1e-12)
        assert mod.last_local_mse == pytest.approx(mse, rel=1e-12)
        assert mod.cache is None

    def test_eval_mode_does_not_cache(self, m4):
        mod = module_with(IDENTITY).eval()
        mod.forward(m4)
        assert mod.cache is None

    def test_eval_forward_clears_stale_cache(self, m4):
        mod = module_with(IDENTITY)
        mod.forward(m4)
        assert mod.cache is not None
        mod.eval()
        mod.forward(m4)
        assert mod.cache is None

    def test_train_needs_4(self):
        mod = module_with(IDENTITY)
        with pytest.raises(ValueError):
            mod.forward(np.ones((3, 5)))

    def test_eval_allows_2(self):
        mod = module_with(IDENTITY).eval()
        assert mod.forward(np.ones((2, 2))).shape == (4, 4)
        with pytest.raises(ValueError):
            mod.forward(np.ones((1, 5)))

    def test_channel_mismatch(self):
        mod = module_with(IDENTITY, channels=3)
        with pytest.raises(ValueError):
            mod.forward(np.ones((4, 4, 2)))
        # a 5-D input is refused by its rank, though its axis 3 matches
        with pytest.raises(ValueError, match="2-D..4-D"):
            mod.forward(np.ones((1, 4, 4, 3, 3)))

    def test_divergent_filters_flagged(self):
        mod = module_with((1e200, 1e200, 1e200), pad_size=3).eval()
        with pytest.raises(FloatingPointError):
            mod.forward(np.full((4, 4), 1e200))

    def test_raising_forward_leaves_no_cache(self, m4):
        mod = module_with(MEAN, pad_size=3)
        mod.forward(m4)
        assert mod.cache is not None
        mod.filters.weights[:] = 1e200
        with pytest.raises(FloatingPointError):
            mod.forward(np.full((4, 4), 1e200))
        assert mod.cache is None
        before = mod.filters.weights.copy()
        with pytest.raises(RuntimeError, match="backward without a train-mode forward"):
            mod.backward(None)
        assert np.array_equal(mod.filters.weights, before)


class TestLocalMse:
    """`_pair_stats`: the mean squared error over all 2(H+W) border values."""

    def test_constant_input_is_exact_fit(self):
        assert stats(IDENTITY, np.full((4, 4), 5.0))[0] == 0.0

    def test_perfect_fit(self):
        # borders built as the filter's own predictions from the rows just
        # inside them; a zero middle tap and equal outer taps make the two
        # predictions that meet at each corner the same value
        rng = np.random.default_rng(5)
        theta = (0.35, 0.0, 0.35)
        m = rng.uniform(size=(6, 7))
        m[0] = slide(theta, m[1, 1:-1])
        m[-1] = slide(theta, m[-2, 1:-1])
        m[1:-1, 0] = slide(theta, m[1:-1, 1])[1:-1]
        m[1:-1, -1] = slide(theta, m[1:-1, -2])[1:-1]
        mse, grad = stats(theta, m)
        assert mse == 0.0
        assert np.array_equal(grad, np.zeros(3))


class TestLocalMseGrad:
    def test_symmetry_under_window_reversal(self):
        # every row and column of m is a palindrome, so is every predictor
        # row and target; with a symmetric filter and dyadic values the
        # mirror-image sums are exact
        m = np.array([[4.0, 1, 6, 1, 4],
                      [2, 7, 1, 7, 2],
                      [3, 5, 9, 5, 3],
                      [2, 7, 1, 7, 2],
                      [4, 1, 6, 1, 4]])
        _, g = stats((0.25, 0.5, 0.25), m)
        assert g[0] == g[2]


class TestLocalUpdate:
    def test_zero_gradient_fixed_point(self):
        mod = module_with(IDENTITY)
        mod.forward(np.full((4, 4), 5.0))  # identity filter fits constants
        before = mod.filters.weights.copy()
        mod.local_update()
        assert np.array_equal(mod.filters.weights, before)
        assert mod.cache is None

    def test_sgd_step_matches_reference_gradient(self, m4):
        theta = (0.1, 0.7, 0.2)
        mod = module_with(theta, learning_rate=0.01)
        _, ref_grad = local_mse_and_grad(m4, theta)
        before = mod.filters.weights.copy()
        mod.forward(m4)
        mod.local_update()
        np.testing.assert_allclose(mod.filters.weights[0],
                                   before[0] - 0.01 * ref_grad, rtol=1e-12)

    def test_update_without_forward(self):
        mod = module_with(IDENTITY)
        with pytest.raises(RuntimeError):
            mod.local_update()

    def test_repeated_updates_reduce_mse(self, batch64):
        mod = random_module(3, seed=9, learning_rate=0.005)
        losses = []
        for _ in range(10):
            mod.forward(batch64)
            mod.local_update()
            losses.append(mod.last_local_mse)
        assert all(b <= a for a, b in zip(losses, losses[1:]))

    def test_divergence_raises_only_floating_point_error(self):
        # lr times the local loss's largest curvature is about 2.6 here, so
        # fixed-step SGD from the mean filter diverges within 200 updates;
        # the float32 cast of the last, overflowing gradient must not warn;
        # the step that raises keeps the last finite weights and consumes
        # the cache
        x = np.random.default_rng(0).uniform(0, 1, (8, 8, 8, 1)) * 12
        mod = PaddingModule(1, learning_rate=0.01)
        with warnings.catch_warnings(), pytest.raises(FloatingPointError):
            warnings.simplefilter("error")
            for _ in range(300):
                before = mod.filters.weights.copy()
                mod.forward(x)
                mod.local_update()
        assert np.array_equal(mod.filters.weights, before)
        assert np.all(np.isfinite(before))
        assert mod.cache is None

    def test_update_ignores_a_later_change_to_the_input(self):
        # the update's statistics are taken in forward, so an input changed
        # in place before backward leaves the step as it was
        x = np.random.default_rng(6).uniform(size=(2, 6, 7, 1))
        mod, twin = module_with((0.9, -0.2, 0.1)), module_with((0.9, -0.2, 0.1))
        mod.forward(x)
        twin.forward(x.copy())
        x[:] = 0.0
        mod.backward(None)
        twin.backward(None)
        assert np.array_equal(mod.filters.weights, twin.filters.weights)


class TestBackward:
    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_strip_is_bit_exact(self, size):
        rng = np.random.default_rng(size)
        mod = module_with(MEAN, channels=2, pad_size=size)
        x = rng.uniform(size=(3, 8, 9, 2))
        out = mod.forward(x)
        g = rng.uniform(size=out.shape)
        got = mod.backward(g)
        assert np.array_equal(got, g[:, size:-size, size:-size, :])

    def test_eval_mode_leaves_filters(self):
        rng = np.random.default_rng(1)
        mod = module_with(MEAN).eval()
        out = mod.forward(rng.uniform(size=(6, 6)))
        before = mod.filters.weights.copy()
        mod.backward(rng.uniform(size=out.shape))
        assert np.array_equal(mod.filters.weights, before)

    def test_train_mode_updates_filters(self):
        rng = np.random.default_rng(2)
        mod = module_with((0.9, -0.2, 0.1))
        out = mod.forward(rng.uniform(size=(6, 6)))
        before = mod.filters.weights.copy()
        mod.backward(rng.uniform(size=out.shape))
        assert not np.array_equal(mod.filters.weights, before)

    def test_backward_without_forward(self):
        mod = module_with(MEAN)
        with pytest.raises(RuntimeError):
            mod.backward(np.ones((6, 6)))

    def test_shape_mismatch(self):
        # the update is refused whole: the filters stay and the cache is
        # kept, so a correct gradient afterwards still updates
        rng = np.random.default_rng(4)
        mod = module_with((0.9, -0.2, 0.1), channels=3, pad_size=2)
        out = mod.forward(rng.uniform(size=(2, 6, 7, 3)))
        before = mod.filters.weights.copy()
        with pytest.raises(ValueError, match=r"padded output shape \(2, 10, 11, 3\)"):
            mod.backward(rng.uniform(size=(2, 10, 10, 3)))
        assert np.array_equal(mod.filters.weights, before)
        assert mod.cache is not None
        mod.backward(rng.uniform(size=out.shape))
        assert not np.array_equal(mod.filters.weights, before)

    @pytest.mark.parametrize("shape", [(4, 9), (9, 4)])
    def test_eval_gradient_too_small_to_strip(self, shape):
        mod = module_with(MEAN, pad_size=2).eval()
        with pytest.raises(ValueError, match="too small to strip 2 rings"):
            mod.backward(np.ones(shape))

    def test_eval_drops_the_supervision_cache(self):
        rng = np.random.default_rng(3)
        mod = module_with((0.9, -0.2, 0.1))
        out = mod.forward(rng.uniform(size=(6, 6)))
        mod.eval()
        mod.train()
        before = mod.filters.weights.copy()
        with pytest.raises(RuntimeError, match="backward without a train-mode forward"):
            mod.backward(rng.uniform(size=out.shape))
        assert np.array_equal(mod.filters.weights, before)


class TestInvariants:
    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_shape_law_random(self, size):
        rng = np.random.default_rng(size * 7)
        for _ in range(5):
            h, w = (int(v) for v in rng.integers(4, 17, size=2))
            mod = module_with(MEAN, channels=3, pad_size=size)
            out = mod.forward(rng.uniform(size=(h, w, 3)))
            assert out.shape == (h + 2 * size, w + 2 * size, 3)

    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_interior_preserved(self, size):
        rng = np.random.default_rng(size)
        x = (rng.uniform(size=(7, 11, 2)) * 100).astype(np.float32)
        mod = random_module(2, seed=0, pad_size=size)
        out = mod.forward(x)
        assert np.array_equal(out[size:-size, size:-size, :], x)

    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_identity_filter_constancy(self, size):
        mod = module_with(IDENTITY, pad_size=size).eval()
        out = mod.forward(np.full((5, 6), 3.25))
        assert np.all(out == 3.25)

    def test_channel_permutation_commutes(self):
        rng = np.random.default_rng(42)
        x = rng.uniform(size=(8, 8, 4))
        weights = rng.uniform(-1, 1, size=(4, 3))
        perm = np.array([2, 0, 3, 1])
        base = module_with(weights).eval().forward(x)
        permuted = module_with(weights[perm]).eval().forward(x[:, :, perm])
        assert np.array_equal(permuted, base[:, :, perm])

    def test_batched_matches_composed_2d_ops(self):
        rng = np.random.default_rng(77)
        x = rng.uniform(size=(3, 6, 9, 2))
        weights = rng.uniform(-1, 1, size=(2, 3))
        got = module_with(weights, pad_size=2).eval().forward(x)
        for n in range(3):
            for c in range(2):
                want = pad_plane(x[n, :, :, c], weights[c], 2)
                assert got[n, :, :, c].tobytes() == want.tobytes()


class TestWeightsFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        weights = rng.uniform(-1, 1, size=(5, 3)).astype(np.float32)
        path = tmp_path / "bank.padmod"
        save_weights(path, weights)
        assert np.array_equal(load_weights(path), weights)

    def test_layout(self, tmp_path):
        path = tmp_path / "bank.padmod"
        save_weights(path, np.array([[1.0, 2.0, 3.0]], dtype=np.float32))
        blob = path.read_bytes()
        assert blob[:8] == b"PADMOD1\n"
        assert blob[8:12] == (1).to_bytes(4, "little")
        assert np.array_equal(np.frombuffer(blob[12:], dtype="<f4"), [1, 2, 3])
        # a bank of other than 3 weights per channel does not fit the layout
        bad = tmp_path / "bad.padmod"
        with pytest.raises(ValueError, match="expected"):
            save_weights(bad, np.ones((2, 4)))
        assert not bad.exists()

    def test_bad_magic(self, tmp_path):
        # long enough for a header and payload, so only the magic is wrong
        path = tmp_path / "junk"
        path.write_bytes(b"NOTAMOD\n" + (1).to_bytes(4, "little") + bytes(12))
        with pytest.raises(ValueError, match="not a padding-filter"):
            load_weights(path)

    def test_truncated(self, tmp_path):
        # one weight short of the declared payload, and one past it
        path = tmp_path / "trunc"
        save_weights(path, np.ones((2, 3), dtype=np.float32))
        blob = path.read_bytes()
        for bad in (blob[:-4], blob + bytes(4)):
            path.write_bytes(bad)
            with pytest.raises(ValueError, match="payload bytes"):
                load_weights(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_weights(self, tmp_path, value):
        # written by hand: save_weights refuses non-finite weights
        path = tmp_path / "bank.padmod"
        weights = np.ones((2, 3), dtype="<f4")
        weights[1, 2] = value
        path.write_bytes(b"PADMOD1\n" + (2).to_bytes(4, "little") + weights.tobytes())
        with pytest.raises(ValueError, match="non-finite"):
            load_weights(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e39])
    def test_save_refuses_non_finite_weights(self, tmp_path, value):
        # 1e39 is finite in float64 but overflows the file's float32
        path = tmp_path / "bank.padmod"
        weights = np.ones((2, 3))
        weights[1, 2] = value
        with pytest.raises(ValueError, match="non-finite"):
            save_weights(path, weights)
        assert not path.exists()

    @pytest.mark.parametrize("size", [8, 9, 11])
    def test_shorter_than_header(self, tmp_path, size):
        path = tmp_path / "short.padmod"
        path.write_bytes((b"PADMOD1\n" + bytes(4))[:size])
        with pytest.raises(ValueError):
            load_weights(path)


class TestFilterBank:
    def test_mean_init(self):
        fb = FilterBank(2)
        assert fb.weights.dtype == np.float32
        np.testing.assert_array_equal(fb.weights, np.full((2, 3), np.float32(1.0) / 3))

    def test_bad_config(self):
        with pytest.raises(ValueError):
            FilterBank(0)

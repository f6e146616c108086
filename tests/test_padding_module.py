import numpy as np
import pytest

from padlearn.padding_module import (BorderBundle, FilterBank, PaddingModule,
                                     PredictorBundle, assemble_padded,
                                     build_predictor, extract_borders,
                                     extract_neighbors, extract_target,
                                     load_weights, local_mse, local_mse_grad,
                                     predict_borders, save_weights)
from padlearn.tensor_core import interior


def bank(theta, channels=1, **kwargs):
    fb = FilterBank(channels, dtype=np.float64, **kwargs)
    fb.weights = np.tile(np.asarray(theta, dtype=np.float64), (channels, 1))
    return fb


def module_with(theta, channels=1, **kwargs):
    mod = PaddingModule(channels, dtype=np.float64, **kwargs)
    mod.filters.weights = np.tile(np.asarray(theta, dtype=np.float64), (channels, 1))
    return mod


IDENTITY = (0.0, 1.0, 0.0)
MEAN = (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)


def slide(theta, padded_row):
    # same arithmetic order as the implementation: t0*x0 + t1*x1 + t2*x2
    t0, t1, t2 = (np.float64(t) for t in theta)
    return [t0 * padded_row[j] + t1 * padded_row[j + 1] + t2 * padded_row[j + 2]
            for j in range(len(padded_row) - 2)]


class TestExtractTarget:
    def test_worked_example(self, m4):
        t = extract_target(m4)
        assert list(t.top) == [1, 2, 3, 4]
        assert list(t.bottom) == [13, 14, 15, 16]
        assert list(t.left) == [1, 5, 9, 13]
        assert list(t.right) == [4, 8, 12, 16]

    def test_constant_input(self):
        t = extract_target(np.full((4, 4), 5.0))
        for r in t:
            assert list(r) == [5.0] * 4

    def test_undersized(self):
        with pytest.raises(ValueError):
            extract_target(np.ones((3, 4)))


class TestExtractNeighbors:
    def test_worked_example(self, m4):
        n = extract_neighbors(m4)
        assert list(n.top) == [6, 7]
        assert list(n.bottom) == [10, 11]
        assert list(n.left) == [6, 10]
        assert list(n.right) == [7, 11]

    def test_constant_input(self):
        n = extract_neighbors(np.full((4, 4), 5.0))
        for r in n:
            assert list(r) == [5.0, 5.0]

    def test_length_law(self):
        n = extract_neighbors(np.zeros((5, 5)))
        assert n.lengths == (3, 3, 3, 3)

    def test_undersized(self):
        with pytest.raises(ValueError):
            extract_neighbors(np.ones((4, 3)))


class TestExtractBorders:
    def test_equals_target_on_original(self, m4):
        b = extract_borders(m4)
        t = extract_target(m4)
        for rb, rt in zip(b, t):
            assert np.array_equal(rb, rt)

    def test_constant_3x3(self):
        b = extract_borders(np.full((3, 3), 5.0))
        for r in b:
            assert list(r) == [5.0] * 3

    def test_2x2(self):
        b = extract_borders(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert list(b.top) == [1, 2]
        assert list(b.bottom) == [3, 4]
        assert list(b.left) == [1, 3]
        assert list(b.right) == [2, 4]

    def test_undersized(self):
        with pytest.raises(ValueError):
            extract_borders(np.ones((1, 5)))


class TestBuildPredictor:
    def test_row_values(self, m4):
        p = build_predictor(extract_neighbors(m4))
        assert list(p.top) == [0, 7, 6, 7, 6, 0]
        assert list(p.bottom) == [0, 11, 10, 11, 10, 0]
        assert list(p.left) == [0, 10, 6, 10, 6, 0]
        assert list(p.right) == [0, 11, 7, 11, 7, 0]

    def test_constant_row(self):
        p = build_predictor(BorderBundle(*(np.full(3, 5.0),) * 4))
        assert list(p.top) == [0, 5, 5, 5, 5, 5, 0]

    def test_length_law(self):
        p = build_predictor(BorderBundle(*(np.zeros(2),) * 4))
        assert p.lengths == (6, 6, 6, 6)

    def test_zero_ends(self):
        rng = np.random.default_rng(5)
        p = build_predictor(BorderBundle(*(rng.uniform(1, 2, size=6),) * 4))
        for r in p:
            assert r[0] == 0.0 and r[-1] == 0.0

    def test_short_row(self):
        with pytest.raises(ValueError):
            build_predictor(BorderBundle(*(np.ones(1),) * 4))


class TestPredictBorders:
    def test_identity_filter_picks_centers(self):
        p = PredictorBundle(*(np.array([0.0, 7, 6, 7, 6, 0]),) * 4)
        o = predict_borders(bank(IDENTITY), p, 0)
        assert list(o.top) == [7, 6, 7, 6]

    def test_mean_filter_hand_values(self):
        r = np.array([0.0, 7, 6, 7, 6, 0])
        o = predict_borders(bank(MEAN), PredictorBundle(r, r, r, r), 0)
        assert list(o.top) == slide(MEAN, r)

    def test_zero_filter(self):
        p = PredictorBundle(*(np.arange(6.0),) * 4)
        o = predict_borders(bank((0.0, 0.0, 0.0)), p, 0)
        assert all(np.all(r == 0.0) for r in o)

    def test_channel_out_of_range(self):
        p = PredictorBundle(*(np.arange(6.0),) * 4)
        with pytest.raises(IndexError):
            predict_borders(bank(IDENTITY), p, 1)


class TestAssemblePadded:
    def _one_ring(self, m, theta):
        fb = bank(theta)
        preds = predict_borders(fb, build_predictor(extract_borders(m)), 0)
        return assemble_padded(m, preds)

    def test_identity_on_constant(self):
        out = self._one_ring(np.full((3, 3), 5.0), IDENTITY)
        assert out.shape == (5, 5)
        assert np.all(out == 5.0)

    def test_mean_filter_values(self):
        out = self._one_ring(np.full((3, 3), 5.0), MEAN)
        edge = slide(MEAN, np.array([0.0, 5, 5, 5, 5, 5, 0]))
        corner = (edge[0] + edge[0]) / 2
        expected = np.full((5, 5), 5.0)
        for line in (expected[0], expected[-1], expected[:, 0], expected[:, -1]):
            line[:] = edge
        for idx in ((0, 0), (0, -1), (-1, 0), (-1, -1)):
            expected[idx] = corner
        assert np.array_equal(out, expected)

    def test_interior_round_trip(self):
        rng = np.random.default_rng(11)
        m = rng.uniform(size=(5, 8))
        out = self._one_ring(m, (0.4, -0.2, 0.7))
        assert np.array_equal(interior(out, 1), m)

    def test_length_mismatch(self):
        preds = BorderBundle(*(np.ones(4),) * 4)
        with pytest.raises(ValueError):
            assemble_padded(np.ones((3, 3)), preds)


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
        ref = local_mse_grad(bank(theta), build_predictor(extract_neighbors(m4)),
                             extract_target(m4), 0)
        np.testing.assert_allclose(steps[0][0], ref, rtol=1e-12)
        assert mod.last_local_mse == pytest.approx(
            local_mse(bank(theta), build_predictor(extract_neighbors(m4)),
                      extract_target(m4), 0), rel=1e-12)
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

    def test_divergent_filters_flagged(self):
        mod = module_with((1e200, 1e200, 1e200), pad_size=3).eval()
        with pytest.raises(FloatingPointError):
            mod.forward(np.full((4, 4), 1e200))


class TestLocalMse:
    def test_worked_loss(self, m4):
        fb = bank(IDENTITY)
        t = extract_target(m4)
        p = build_predictor(extract_neighbors(m4))
        assert local_mse(fb, p, t, 0) == 25.5
        assert local_mse(fb, p, t, 0, reduction="sum") == 408.0

    def test_constant_input_is_exact_fit(self):
        m = np.full((4, 4), 5.0)
        fb = bank(IDENTITY)
        assert local_mse(fb, build_predictor(extract_neighbors(m)),
                         extract_target(m), 0) == 0.0

    def test_perfect_fit(self):
        rng = np.random.default_rng(5)
        theta = (0.2, 0.5, 0.3)
        fb = bank(theta)
        rows = [rng.uniform(size=7) for _ in range(4)]
        preds = [np.array(slide(theta, r)) for r in rows]
        p = PredictorBundle(*rows)
        t = BorderBundle(*preds)
        assert local_mse(fb, p, t, 0) == 0.0
        assert np.array_equal(local_mse_grad(fb, p, t, 0), np.zeros(3))

    def test_length_mismatch(self, m4):
        fb = bank(IDENTITY)
        t = extract_target(m4)
        p = PredictorBundle(*(np.zeros(5),) * 4)
        with pytest.raises(ValueError):
            local_mse(fb, p, t, 0)


class TestLocalMseGrad:
    def test_finite_difference_match(self, m4):
        fb = bank((0.0, 1.0, 0.0))
        t = extract_target(m4)
        p = build_predictor(extract_neighbors(m4))
        analytic = local_mse_grad(fb, p, t, 0)
        step = 1e-4
        for k in range(3):
            fb.weights[0, k] += step
            up = local_mse(fb, p, t, 0)
            fb.weights[0, k] -= 2 * step
            down = local_mse(fb, p, t, 0)
            fb.weights[0, k] += step
            numeric = (up - down) / (2 * step)
            assert abs(analytic[k] - numeric) <= 1e-6 * max(abs(numeric), 1.0)

    def test_symmetry_under_window_reversal(self):
        # palindromic rows and targets with a symmetric filter; dyadic
        # weights keep the mirror-image arithmetic bit-exact
        fb = bank((0.25, 0.5, 0.25))
        r = np.array([0.0, 2.0, 7.0, 1.0, 7.0, 2.0, 0.0])
        t = np.array([4.0, 1.0, 6.0, 1.0, 4.0])
        g = local_mse_grad(fb, PredictorBundle(r, r, r, r),
                           BorderBundle(t, t, t, t), 0)
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
        ref_grad = local_mse_grad(bank(theta),
                                  build_predictor(extract_neighbors(m4)),
                                  extract_target(m4), 0)
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
        mod = PaddingModule(3, init="uniform", seed=9, learning_rate=0.005)
        losses = []
        for _ in range(10):
            mod.forward(batch64)
            mod.local_update()
            losses.append(mod.last_local_mse)
        assert all(b <= a for a, b in zip(losses, losses[1:]))


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
        mod = module_with(MEAN)
        mod.forward(np.ones((6, 6)))
        with pytest.raises(ValueError):
            mod.backward(np.ones((9, 9)))

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
            mod = PaddingModule(3, pad_size=size, dtype=np.float64)
            out = mod.forward(rng.uniform(size=(h, w, 3)))
            assert out.shape == (h + 2 * size, w + 2 * size, 3)

    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_interior_preserved(self, size):
        rng = np.random.default_rng(size)
        x = (rng.uniform(size=(7, 11, 2)) * 100).astype(np.float32)
        mod = PaddingModule(2, pad_size=size, init="uniform", seed=0)
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
        mod = PaddingModule(4, dtype=np.float64).eval()
        mod.filters.weights = weights.copy()
        base = mod.forward(x)
        mod_p = PaddingModule(4, dtype=np.float64).eval()
        mod_p.filters.weights = weights[perm].copy()
        permuted = mod_p.forward(x[:, :, perm])
        assert np.array_equal(permuted, base[:, :, perm])

    def test_batched_matches_composed_2d_ops(self):
        rng = np.random.default_rng(77)
        x = rng.uniform(size=(3, 6, 9, 2))
        weights = rng.uniform(-1, 1, size=(2, 3))
        mod = PaddingModule(2, pad_size=2, dtype=np.float64).eval()
        mod.filters.weights = weights.copy()
        got = mod.forward(x)
        for n in range(3):
            for c in range(2):
                fb = bank(weights[c])
                plane = x[n, :, :, c]
                for _ in range(2):
                    preds = predict_borders(
                        fb, build_predictor(extract_borders(plane)), 0)
                    plane = assemble_padded(plane, preds)
                assert np.array_equal(got[n, :, :, c], plane)


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

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk"
        path.write_bytes(b"NOTAMODULE")
        with pytest.raises(ValueError):
            load_weights(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "trunc"
        save_weights(path, np.ones((2, 3), dtype=np.float32))
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(ValueError):
            load_weights(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_weights(self, tmp_path, value):
        path = tmp_path / "bank.padmod"
        weights = np.ones((2, 3), dtype=np.float32)
        weights[1, 2] = value
        save_weights(path, weights)
        with pytest.raises(ValueError, match="non-finite"):
            load_weights(path)

    def test_module_channel_mismatch(self, tmp_path):
        path = tmp_path / "bank.padmod"
        save_weights(path, np.ones((2, 3), dtype=np.float32))
        mod = PaddingModule(3)
        with pytest.raises(ValueError):
            mod.load_weights(path)


class TestFilterBank:
    def test_mean_init(self):
        fb = FilterBank(2, dtype=np.float64)
        np.testing.assert_array_equal(fb.weights, np.full((2, 3), 1.0) / 3)

    def test_uniform_init_seeded(self):
        a = FilterBank(3, init="uniform", seed=4)
        b = FilterBank(3, init="uniform", seed=4)
        assert np.array_equal(a.weights, b.weights)
        assert np.all(np.abs(a.weights) <= 0.1)

    def test_adam_step_moves_weights(self):
        fb = FilterBank(1, optimizer="adam", learning_rate=0.5, dtype=np.float64)
        before = fb.weights.copy()
        fb.step(np.ones((1, 3)))
        delta = before - fb.weights
        np.testing.assert_allclose(delta, 0.5, rtol=1e-7)

    def test_bad_config(self):
        with pytest.raises(ValueError):
            FilterBank(0)
        with pytest.raises(ValueError):
            FilterBank(1, optimizer="rmsprop")
        with pytest.raises(ValueError):
            FilterBank(1, init="zeros")

import numpy as np
import pytest

from conftest import interior
from padlearn.baselines import pad_mean_interp, pad_reflect, pad_replicate, pad_zero
from padlearn.padding_module import PaddingModule


class TestPadZero:
    def test_ring_of_zeros(self):
        out = pad_zero(np.ones((2, 2)), 1)
        expected = np.zeros((4, 4))
        expected[1:3, 1:3] = 1.0
        assert np.array_equal(out, expected)

    def test_shape_law(self):
        assert pad_zero(np.zeros((32, 32, 3)), 5).shape == (42, 42, 3)

    def test_interior_round_trip(self):
        rng = np.random.default_rng(0)
        t = rng.uniform(size=(5, 6))
        assert np.array_equal(interior(pad_zero(t, 2), 2), t)


class TestPadReplicate:
    def test_nearest_edge(self):
        out = pad_replicate(np.array([[1.0, 2.0], [3.0, 4.0]]), 1)
        expected = np.array([
            [1, 1, 2, 2],
            [1, 1, 2, 2],
            [3, 3, 4, 4],
            [3, 3, 4, 4],
        ], dtype=float)
        assert np.array_equal(out, expected)

    def test_constant_invariance(self):
        out = pad_replicate(np.full((3, 3), 2.5), 2)
        assert np.all(out == 2.5)

    def test_ring_composition(self):
        rng = np.random.default_rng(1)
        t = rng.uniform(size=(4, 5))
        assert np.array_equal(pad_replicate(t, 2), pad_replicate(pad_replicate(t, 1), 1))


class TestPadReflect:
    def test_mirror_rule(self):
        out = pad_reflect(np.array([[1.0, 2.0], [3.0, 4.0]]), 1)
        expected = np.array([
            [4, 3, 4, 3],
            [2, 1, 2, 1],
            [4, 3, 4, 3],
            [2, 1, 2, 1],
        ], dtype=float)
        assert np.array_equal(out, expected)

    def test_matches_1d_reflection_on_rows(self):
        out = pad_reflect(np.arange(18.0).reshape(3, 6), 1)
        assert out[1:4].tolist() == [[1, 0, 1, 2, 3, 4, 5, 4],
                                     [7, 6, 7, 8, 9, 10, 11, 10],
                                     [13, 12, 13, 14, 15, 16, 17, 16]]

    def test_size_too_large(self):
        with pytest.raises(ValueError):
            pad_reflect(np.ones((3, 5)), 3)


class TestPadMeanInterp:
    def test_constant_3x3_values(self):
        out = pad_mean_interp(np.full((3, 3), 5.0), 1)
        # the mean filter is float32; a float64 input pads in float64
        th = np.float64(np.float32(1.0) / 3)
        end = th * 0.0 + th * 5.0 + th * 5.0
        mid = th * 5.0 + th * 5.0 + th * 5.0
        expected = np.full((5, 5), 5.0)
        for line in (expected[0], expected[-1], expected[:, 0], expected[:, -1]):
            line[:] = mid
            line[0] = end
            line[-1] = end
        assert np.array_equal(out, expected)

    def test_equals_frozen_module(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(size=(6, 7, 3)).astype(np.float32)
        module = PaddingModule(3, pad_size=2).eval()
        assert np.array_equal(pad_mean_interp(x, 2), module.forward(x))

    def test_shape_law(self):
        assert pad_mean_interp(np.zeros((32, 32, 3), dtype=np.float32), 3).shape \
            == (38, 38, 3)


def test_replicate_and_reflect_agree_on_constant():
    t = np.full((4, 6), 1.5)
    assert np.array_equal(pad_replicate(t, 2), pad_reflect(t, 2))


@pytest.mark.parametrize("padder", [
    pytest.param(pad_zero, id="zero"),
    pytest.param(pad_replicate, id="replicate"),
    pytest.param(pad_reflect, id="reflect"),
    pytest.param(pad_mean_interp, id="mean_interp"),
])
@pytest.mark.parametrize("size", [1, 2])
def test_shape_and_round_trip_all_methods(padder, size):
    rng = np.random.default_rng(size)
    t = rng.uniform(size=(6, 8, 3)).astype(np.float32)
    out = padder(t, size)
    assert out.shape == (6 + 2 * size, 8 + 2 * size, 3)
    assert np.array_equal(interior(out, size), t)
    with pytest.raises(ValueError):
        padder(t, 0)

import numpy as np
import pytest

from padlearn.baselines import pad_reflect, pad_replicate, pad_zero
from padlearn.tensor_core import (col_t, interior, reflect_pad_1d, row,
                                  vconcat, zero_pad_1d)


class TestRowCol:
    def test_row(self, m4):
        assert list(row(m4, 0)) == [1, 2, 3, 4]
        assert list(row(m4, 3)) == [13, 14, 15, 16]

    def test_col_t(self, m4):
        assert list(col_t(m4, 0)) == [1, 5, 9, 13]
        assert list(col_t(m4, 3)) == [4, 8, 12, 16]

    def test_out_of_range(self, m4):
        with pytest.raises(IndexError):
            row(m4, 4)
        with pytest.raises(IndexError):
            col_t(m4, -1)

    def test_returns_copy(self, m4):
        r = row(m4, 0)
        r[0] = 99
        assert m4[0, 0] == 1


class TestVconcat:
    def test_row_counts_add(self):
        out = vconcat(np.ones((1, 4)), np.zeros((2, 4)))
        assert out.shape == (3, 4)

    def test_builds_square(self):
        edge = np.full(5, 5.0)
        out = vconcat(vconcat(edge, np.zeros((3, 5))), edge)
        assert out.shape == (5, 5)

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            vconcat(np.ones((1, 4)), np.ones((1, 5)))

    def test_shape_associative(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            rows = [rng.uniform(size=(int(rng.integers(1, 4)), 6)) for _ in range(3)]
            left = vconcat(vconcat(rows[0], rows[1]), rows[2])
            right = vconcat(rows[0], vconcat(rows[1], rows[2]))
            assert np.array_equal(left, right)


class TestReflectPad:
    def test_two_element(self):
        assert list(reflect_pad_1d(np.array([6.0, 7.0]))) == [7, 6, 7, 6]

    def test_three_element(self):
        a, b, c = 1.5, 2.5, -3.0
        assert list(reflect_pad_1d(np.array([a, b, c]))) == [b, a, b, c, b]

    def test_constant_invariant(self):
        assert list(reflect_pad_1d(np.array([5.0, 5.0, 5.0]))) == [5.0] * 5

    def test_too_short(self):
        with pytest.raises(ValueError):
            reflect_pad_1d(np.array([1.0]))


class TestZeroPad:
    def test_definition(self):
        assert list(zero_pad_1d(np.array([7.0, 6.0, 7.0, 6.0]))) == [0, 7, 6, 7, 6, 0]

    def test_empty(self):
        assert list(zero_pad_1d(np.array([]))) == [0, 0]

    def test_single(self):
        assert list(zero_pad_1d(np.array([5.0]))) == [0, 5, 0]


def test_reflect_then_zero_length_law():
    rng = np.random.default_rng(0)
    for n in range(2, 41):
        v = rng.uniform(size=n)
        assert len(zero_pad_1d(reflect_pad_1d(v))) == n + 4


class TestInterior:
    def test_central_slice(self):
        t = np.arange(36.0).reshape(6, 6)
        assert np.array_equal(interior(t, 1), t[1:5, 1:5])

    def test_margin_two(self):
        t = np.arange(64.0).reshape(8, 8)
        got = interior(t, 2)
        assert got.shape == (4, 4)
        assert np.array_equal(got, t[2:6, 2:6])

    def test_margin_too_large(self):
        with pytest.raises(ValueError):
            interior(np.ones((4, 4)), 2)

    def test_channels_preserved(self):
        t = np.arange(48.0).reshape(4, 4, 3)
        assert np.array_equal(interior(t, 1), t[1:3, 1:3, :])

    def test_returns_copy(self):
        t = np.zeros((4, 4))
        sub = interior(t, 1)
        sub[0, 0] = 7
        assert t[1, 1] == 0


@pytest.mark.parametrize("padder", [pad_zero, pad_reflect, pad_replicate])
@pytest.mark.parametrize("margin", [1, 2, 3])
def test_pad_interior_round_trip(padder, margin):
    rng = np.random.default_rng(margin)
    t = rng.uniform(size=(6, 7, 3))
    assert np.array_equal(interior(padder(t, margin), margin), t)

"""The array helpers the other tests stand on, and the pad/interior round trip.

`row`, `col_t`, `vconcat`, `reflect_row` and `zero_row` are the building
blocks of the loop-based padding reference, and `interior` crops what
every padding method added back off.
"""
import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given
from hypothesis import strategies as st

from conftest import interior
from padding_reference import col_t, reflect_row, row, vconcat, zero_row
from padlearn.padding_module import PaddingModule


class TestRowCol:
    def test_row(self, m4):
        assert row(m4, 0) == [1, 2, 3, 4]
        assert row(m4, 3) == [13, 14, 15, 16]

    def test_col_t(self, m4):
        assert col_t(m4, 0) == [1, 5, 9, 13]
        assert col_t(m4, 3) == [4, 8, 12, 16]

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
        assert reflect_row([6.0, 7.0]) == [7, 6, 7, 6]

    def test_three_element(self):
        a, b, c = 1.5, 2.5, -3.0
        assert reflect_row([a, b, c]) == [b, a, b, c, b]

    def test_constant_invariant(self):
        assert reflect_row([5.0, 5.0, 5.0]) == [5.0] * 5

    def test_too_short(self):
        with pytest.raises(ValueError):
            reflect_row([1.0])


class TestZeroPad:
    def test_definition(self):
        assert zero_row([7.0, 6.0, 7.0, 6.0]) == [0, 7, 6, 7, 6, 0]

    def test_empty(self):
        assert zero_row([]) == [0, 0]

    def test_single(self):
        assert zero_row([5.0]) == [0, 5, 0]


def test_reflect_then_zero_length_law():
    rng = np.random.default_rng(0)
    for n in range(2, 41):
        v = list(rng.uniform(size=n))
        assert len(zero_row(reflect_row(v))) == n + 4


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
        b = np.arange(96.0).reshape(2, 4, 4, 3)
        assert np.array_equal(interior(b, 1), b[:, 1:3, 1:3, :])

    def test_returns_copy(self):
        t = np.zeros((4, 4))
        sub = interior(t, 1)
        sub[0, 0] = 7
        assert t[1, 1] == 0


def pad_module(m, size):
    """`padlearn pad --method module`: a frozen module with drawn filters."""
    channels = 1 if m.ndim == 2 else m.shape[-1]
    module = PaddingModule(channels, pad_size=size).freeze()
    module.filters.weights = np.random.default_rng(size).uniform(
        -0.1, 0.1, (channels, 3)).astype(m.dtype)
    return module.forward(m)


@st.composite
def images(draw, margin):
    """A 2-D, 3-D or 4-D float32/float64 input with both sides above `margin`."""
    ndim = draw(st.sampled_from((2, 3, 4)))
    h = draw(st.integers(margin + 1, 9))
    w = draw(st.integers(margin + 1, 9))
    n = draw(st.integers(1, 3))
    c = draw(st.integers(1, 4))
    shape = {2: (h, w), 3: (h, w, c), 4: (n, h, w, c)}[ndim]
    dtype = draw(st.sampled_from((np.float32, np.float64)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.normal(size=shape).astype(dtype)


@pytest.mark.parametrize("padder", [pad_module])
@pytest.mark.parametrize("margin", [1, 2, 3])
@given(data=st.data())
def test_pad_interior_round_trip(padder, margin, data):
    t = data.draw(images(margin))
    out = padder(t, margin)
    spatial = 1 if t.ndim == 4 else 0
    want = list(t.shape)
    want[spatial] += 2 * margin
    want[spatial + 1] += 2 * margin
    assert out.shape == tuple(want)
    assert interior(out, margin).tobytes() == t.astype(out.dtype).tobytes()

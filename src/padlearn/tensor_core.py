"""Dense-array primitives: row and column copies, row concatenation, 1-D
reflect and zero padding, and the interior crop.

Arrays are plain numpy ndarrays, row-major, channel-last: (H, W) or
(H, W, C). Every function treats its inputs as immutable and returns a new
array; callers can share results across threads freely.
"""

from __future__ import annotations

import numpy as np


def row(t, i):
    """Row `i` of a 2-D tensor as a 1-D vector (copy)."""
    t = np.asarray(t)
    if t.ndim != 2:
        raise ValueError(f"expected a 2-D tensor, got ndim={t.ndim}")
    if not 0 <= i < t.shape[0]:
        raise IndexError(f"row index {i} out of range for {t.shape[0]} rows")
    return t[i, :].copy()


def col_t(t, j):
    """Column `j` of a 2-D tensor, transposed to a 1-D row vector (copy)."""
    t = np.asarray(t)
    if t.ndim != 2:
        raise ValueError(f"expected a 2-D tensor, got ndim={t.ndim}")
    if not 0 <= j < t.shape[1]:
        raise IndexError(f"column index {j} out of range for {t.shape[1]} columns")
    return t[:, j].copy()


def vconcat(a, b):
    """Stack `a` on top of `b`. 1-D inputs count as single rows.

    Column counts must match.
    """
    a = np.atleast_2d(np.asarray(a))
    b = np.atleast_2d(np.asarray(b))
    if a.shape[1] != b.shape[1]:
        raise ValueError(
            f"width mismatch: {a.shape[1]} vs {b.shape[1]} columns"
        )
    return np.concatenate([a, b], axis=0)


def reflect_pad_1d(v):
    """Mirror-pad a vector by one element on each side, excluding the edge.

    [a, b, c] -> [b, a, b, c, b]. Needs at least 2 elements.
    """
    v = np.asarray(v)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got ndim={v.ndim}")
    if v.shape[0] < 2:
        raise ValueError(f"need length >= 2 to reflect, got {v.shape[0]}")
    return np.concatenate([v[1:2], v, v[-2:-1]])


def zero_pad_1d(v):
    """Pad a vector with one zero on each side. [x..] -> [0, x.., 0]."""
    v = np.asarray(v)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got ndim={v.ndim}")
    zero = np.zeros(1, dtype=v.dtype)
    return np.concatenate([zero, v, zero])


def interior(t, margin):
    """Centered sub-tensor with `margin` rows/columns removed per side.

    Values are copied bit-exactly. Both spatial dims must exceed 2*margin.
    Channel axis, when present, is preserved.
    """
    t = np.asarray(t)
    m = int(margin)
    if m < 1:
        raise ValueError(f"margin must be >= 1, got {margin}")
    if t.ndim not in (2, 3):
        raise ValueError(f"expected a 2-D or 3-D tensor, got ndim={t.ndim}")
    h, w = t.shape[0], t.shape[1]
    if h <= 2 * m or w <= 2 * m:
        raise ValueError(
            f"margin {m} too large for spatial shape {(h, w)}"
        )
    return t[m : h - m, m : w - m].copy()

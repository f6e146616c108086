"""Loop-based reference for the padding layer, one 2-D plane at a time.

Written with explicit Python loops over numpy scalars and sharing no code
with padlearn's batched kernel, so the property tests can compare the two.
Arithmetic runs in the dtype numpy gives the plane and the filter together,
summing each filter window as t0*x0 + t1*x1 + t2*x2, so a kernel that does
the same math gives the same bytes.
"""

import numpy as np


def row(t, i):
    """Row `i` of a 2-D plane as a list (a copy)."""
    if not 0 <= i < t.shape[0]:
        raise IndexError(f"row index {i} out of range for {t.shape[0]} rows")
    return [t[i, j] for j in range(t.shape[1])]


def col_t(t, j):
    """Column `j` of a 2-D plane, top to bottom, as a list (a copy)."""
    if not 0 <= j < t.shape[1]:
        raise IndexError(f"column index {j} out of range for {t.shape[1]} columns")
    return [t[i, j] for i in range(t.shape[0])]


def vconcat(a, b):
    """Stack `a` on top of `b`; a 1-D input counts as one row. Widths must match."""
    a = np.atleast_2d(np.asarray(a))
    b = np.atleast_2d(np.asarray(b))
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"width mismatch: {a.shape[1]} vs {b.shape[1]} columns")
    return np.concatenate([a, b], axis=0)


def reflect_row(v):
    """Mirror one value over each end, excluding the end: [a, b, c] -> [b, a, b, c, b]."""
    if len(v) < 2:
        raise ValueError(f"need length >= 2 to reflect, got {len(v)}")
    return [v[1], *v, v[-2]]


def zero_row(v):
    """One zero on each side: [x..] -> [0, x.., 0]."""
    return [0.0, *v, 0.0]


def slide(theta, v):
    """theta's 1x3 filter over the reflect-then-zero padded row: len(v)+2 values."""
    t0, t1, t2 = theta
    x = zero_row(reflect_row(v))
    return [t0 * x[j] + t1 * x[j + 1] + t2 * x[j + 2] for j in range(len(x) - 2)]


def _in_common_dtype(plane, theta):
    """The plane as a copy and theta as scalars, both in the dtype numpy
    gives their mix, which is the dtype the padded output has."""
    dtype = np.result_type(np.asarray(plane), np.asarray(theta))
    return np.array(plane, dtype=dtype), [dtype.type(t) for t in theta]


def pad_plane(plane, theta, rings):
    """Pad a 2-D plane by `rings` rings, each predicted from the current border.

    Edge values come from the row or column they continue; each corner is
    the mean of the horizontal and the vertical prediction that meet there.
    """
    p, theta = _in_common_dtype(plane, theta)
    for _ in range(rings):
        h, w = p.shape
        top, bottom = slide(theta, row(p, 0)), slide(theta, row(p, h - 1))
        left, right = slide(theta, col_t(p, 0)), slide(theta, col_t(p, w - 1))
        first = [(top[0] + left[0]) / 2, *top[1:-1], (top[-1] + right[0]) / 2]
        last = [(bottom[0] + left[-1]) / 2, *bottom[1:-1], (bottom[-1] + right[-1]) / 2]
        middle = [[left[i + 1], *row(p, i), right[i + 1]] for i in range(h)]
        p = vconcat(vconcat(first, middle), last)
    return p


def supervision(plane):
    """(targets, predictor rows) of a plane, top, bottom, left, right order.

    The targets are the outermost rows and columns; each predictor row is
    the row or column just inside its target with both ends dropped.
    """
    h, w = plane.shape
    targets = [row(plane, 0), row(plane, h - 1), col_t(plane, 0), col_t(plane, w - 1)]
    rows = [row(plane, 1), row(plane, h - 2), col_t(plane, 1), col_t(plane, w - 2)]
    return targets, [r[1:-1] for r in rows]


def local_mse_and_grad(plane, theta):
    """Mean squared prediction error of a plane's supervision pairs and its
    gradient with respect to the three filter weights, in float64."""
    plane, theta = _in_common_dtype(plane, theta)
    targets, rows = supervision(plane)
    total, count = 0.0, 0
    grad = [0.0, 0.0, 0.0]
    for target, v in zip(targets, rows):
        x = zero_row(reflect_row(v))
        pred = slide(theta, v)
        for j in range(len(target)):
            r = float(pred[j] - target[j])
            total += r * r
            count += 1
            for m in range(3):
                grad[m] += 2.0 * r * float(x[j + m])
    return total / count, np.array(grad) / count

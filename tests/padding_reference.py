"""Loop-based reference for the padding layer, one 2-D plane at a time.

Written with explicit Python loops over numpy scalars and sharing no code
with padlearn's batched kernel, so the property tests can compare the two.
Arithmetic runs in the dtype numpy gives the plane and the filter together,
summing each filter window as t0*x0 + t1*x1 + t2*x2, so a kernel that does
the same math gives the same bytes.
"""

import numpy as np


def _predictor(v):
    # mirror one value over each end (the end itself excluded), then a zero
    return [0.0, v[1], *v, v[-2], 0.0]


def slide(theta, v):
    """theta's 1x3 filter over the reflect-then-zero padded row: len(v)+2 values."""
    t0, t1, t2 = theta
    x = _predictor(v)
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
        top, bottom = slide(theta, p[0]), slide(theta, p[-1])
        left, right = slide(theta, p[:, 0]), slide(theta, p[:, -1])
        grown = np.empty((h + 2, w + 2), dtype=p.dtype)
        grown[1:-1, 1:-1] = p
        grown[0], grown[-1] = top, bottom
        grown[1:-1, 0], grown[1:-1, -1] = left[1:-1], right[1:-1]
        grown[0, 0] = (top[0] + left[0]) / 2
        grown[0, -1] = (top[-1] + right[0]) / 2
        grown[-1, 0] = (bottom[0] + left[-1]) / 2
        grown[-1, -1] = (bottom[-1] + right[-1]) / 2
        p = grown
    return p


def supervision(plane):
    """(targets, predictor rows) of a plane, top, bottom, left, right order.

    The targets are the outermost rows and columns; each predictor row is
    the row or column just inside its target with both ends dropped.
    """
    targets = [plane[0], plane[-1], plane[:, 0], plane[:, -1]]
    rows = [plane[1, 1:-1], plane[-2, 1:-1], plane[1:-1, 1], plane[1:-1, -2]]
    return targets, rows


def local_mse_and_grad(plane, theta):
    """Mean squared prediction error of a plane's supervision pairs and its
    gradient with respect to the three filter weights, in float64."""
    plane, theta = _in_common_dtype(plane, theta)
    targets, rows = supervision(plane)
    total, count = 0.0, 0
    grad = [0.0, 0.0, 0.0]
    for target, v in zip(targets, rows):
        x = _predictor(v)
        pred = slide(theta, v)
        for j in range(len(target)):
            r = float(pred[j] - target[j])
            total += r * r
            count += 1
            for m in range(3):
                grad[m] += 2.0 * r * float(x[j + m])
    return total / count, np.array(grad) / count

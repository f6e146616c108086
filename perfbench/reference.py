"""Independent references the benchmark checks the library's outputs against.

None of this calls into padlearn: each function recomputes a result from its
definition, by a different route from the library's own code.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

RECORD = 3073  # CIFAR-10 binary: label byte, then 3 planes of 32x32 bytes


def decode_records(blob, start, stop):
    """(x, y) of CIFAR-10 binary records start..stop, by per-pixel offsets."""
    raw = np.frombuffer(blob, dtype=np.uint8).reshape(-1, RECORD)[start:stop]
    r, c, ch = np.ix_(np.arange(32), np.arange(32), np.arange(3))
    pixels = raw[:, 1 + ch * 1024 + r * 32 + c]
    return pixels / 255.0, raw[:, 0].astype(np.int64)


def _slide(theta, row):
    return [theta[0] * row[j] + theta[1] * row[j + 1] + theta[2] * row[j + 2]
            for j in range(len(row) - 2)]


def _predictor(border):
    # mirror one element over each end (the end itself excluded), then a zero
    return [0.0, border[1], *border, border[-2], 0.0]


def module_pad(image, weights, rings):
    """Eval-mode learnable padding of one (H, W, C) image, ring by ring.

    Each ring predicts its four sides from the current outermost rows and
    columns, reflect-then-zero padded and slid under the channel's 1x3
    filter; each corner is the mean of the two predictions that meet there.
    """
    out = np.asarray(image, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    for _ in range(rings):
        h, w, channels = out.shape
        grown = np.zeros((h + 2, w + 2, channels))
        grown[1:-1, 1:-1] = out
        for ch in range(channels):
            m = out[:, :, ch].tolist()
            columns = [list(col) for col in zip(*m)]
            top, bottom, left, right = (
                _slide(weights[ch], _predictor(border))
                for border in (m[0], m[-1], columns[0], columns[-1])
            )
            for j in range(w + 2):
                grown[0, j, ch] = top[j]
                grown[-1, j, ch] = bottom[j]
            for i in range(1, h + 1):
                grown[i, 0, ch] = left[i]
                grown[i, -1, ch] = right[i]
            grown[0, 0, ch] = (top[0] + left[0]) / 2
            grown[0, -1, ch] = (top[-1] + right[0]) / 2
            grown[-1, 0, ch] = (bottom[0] + left[-1]) / 2
            grown[-1, -1, ch] = (bottom[-1] + right[-1]) / 2
        out = grown
    return out


def sgd_update(x, theta, learning_rate):
    """One local SGD step: theta - lr * 2 (G theta - b) / n, per channel.

    G is the Gram matrix of every 1x3 predictor window over the four borders
    of every map in the batch, b the windows' cross vector with their target
    values, and n the number of targets.
    """
    x = np.asarray(x, dtype=np.float64)
    pairs = (
        (x[:, 0, :, :], x[:, 1, 1:-1, :]),
        (x[:, -1, :, :], x[:, -2, 1:-1, :]),
        (x[:, :, 0, :], x[:, 1:-1, 1, :]),
        (x[:, :, -1, :], x[:, 1:-1, -2, :]),
    )
    channels = x.shape[3]
    gram = np.zeros((channels, 3, 3))
    cross = np.zeros((channels, 3))
    count = 0
    for target, neighbour in pairs:
        zero = np.zeros_like(neighbour[:, :1])
        row = np.concatenate([zero, neighbour[:, 1:2], neighbour,
                              neighbour[:, -2:-1], zero], axis=1)
        windows = sliding_window_view(row, 3, axis=1)  # (N, L, C, 3)
        gram += np.einsum("nlci,nlcj->cij", windows, windows)
        cross += np.einsum("nlci,nlc->ci", windows, target)
        count += target.shape[0] * target.shape[1]
    theta = np.asarray(theta, dtype=np.float64)
    grad = 2.0 * (np.einsum("cij,cj->ci", gram, theta) - cross) / count
    return theta - learning_rate * grad


def conv_valid(xp, w, b):
    """Valid cross-correlation in float64 over (N, H, W, C) input."""
    k = w.shape[0]
    windows = sliding_window_view(np.asarray(xp, np.float64), (k, k), axis=(1, 2))
    return np.einsum("nhwcij,ijco->nhwo", windows, np.asarray(w, np.float64)) + b


def close(actual, expected, rel):
    """True when every entry is within `rel` of the largest |expected|."""
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    if actual.shape != expected.shape:
        return False
    scale = max(float(np.max(np.abs(expected), initial=0.0)), 1e-30)
    return bool(np.all(np.abs(actual - expected) <= rel * scale))

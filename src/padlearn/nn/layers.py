"""Minimal CNN layers over (N, H, W, C) arrays, with exact analytic backward.

A layer caches what its backward pass needs during forward in train mode
only, and every forward drops the old cache first. Eval mode keeps nothing,
and switching to eval mode drops any cache; a backward then raises until
the next train-mode forward that returns.

Convolution is valid cross-correlation after the attached padding strategy
has run. Its train-mode forward writes the im2col columns into a buffer the
layer owns, allocated again only when their shape or dtype changes, and
caches that buffer. Switching to eval mode drops the cache but keeps the
buffer, so the next training step faults no fresh pages in; an eval-mode
forward allocates its columns fresh and never writes to the buffer. The
buffer is internal: no returned array shares its memory. Backward computes
the input gradient of the unpadded interior only, tap by tap, so the
gradients of the padded rings are never formed, and it calls the strategy's
``backward(None)``.

A padding's ``backward(None)`` means "update only": no gradient is wanted,
so the strategy runs its train-mode local update, if one is due, and
returns None.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class ZeroPad:
    """Static zero padding with the surface a convolution needs of its
    padding: ``pad_size``, ``forward`` and an update-only ``backward``."""

    def __init__(self, pad_size):
        self.pad_size = int(pad_size)

    def forward(self, x):
        s = self.pad_size
        return np.pad(x, ((0, 0), (s, s), (s, s), (0, 0)))

    def backward(self, g):
        # nothing to learn; the convolution forms the interior gradient
        return None


class Layer:
    """Mode switch and parameter surface shared by the layers below.

    ``_cache`` holds what backward needs from the latest train-mode forward,
    or None.
    """

    training = True
    _cache = None

    def train(self):
        self.training = True
        return self

    def eval(self):
        """Switch to eval mode and drop the cache, so a backward raises
        until the next train-mode forward. A Conv2D keeps its column
        buffer, which is not a cache: the next train-mode forward
        overwrites it."""
        self.training = False
        self._cache = None
        return self

    def _cached(self):
        if self._cache is None:
            raise RuntimeError(
                f"{type(self).__name__}.backward without a train-mode forward"
            )
        return self._cache

    def params(self):
        return []

    def grads(self):
        return []


def _windows(xp, k):
    # (N, Hp, Wp, C) -> (N, Ho, Wo, k, k, C), a strided view of xp; its
    # reshape to (N*Ho*Wo, k*k*C) gives the window-major im2col rows
    return sliding_window_view(xp, (k, k), axis=(1, 2)).transpose(0, 1, 2, 4, 5, 3)


class Conv2D(Layer):
    """3x3 convolution, stride 1, with an attached padding strategy.

    `padding` (ZeroPad or a PaddingModule) exposes ``pad_size``,
    ``forward`` and ``backward(None)``. It runs before the valid
    cross-correlation; backward calls ``padding.backward(None)`` for the
    padding's update and returns the gradient of the unpadded input only.
    """

    k = 3
    _cols = None  # the train-mode columns' buffer, kept through eval()

    def __init__(self, in_channels, out_channels, padding, rng, dtype=np.float32):
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.padding = padding
        fan_in = self.k * self.k * in_channels
        self.w = (rng.normal(0.0, 1.0, size=(self.k, self.k, in_channels, out_channels))
                  * np.sqrt(2.0 / fan_in)).astype(dtype)
        self.b = np.zeros(out_channels, dtype=dtype)
        self.dw = None
        self.db = None

    def forward(self, x):
        self._cache = None
        if x.shape[3] != self.in_channels:
            raise ValueError(
                f"expected {self.in_channels} input channels, got {x.shape[3]}"
            )
        xp = self.padding.forward(x)
        windows = _windows(xp, self.k)
        n, ho, wo = windows.shape[:3]
        shape = (n * ho * wo, self.k * self.k * self.in_channels)
        if self.training:
            cols = self._cols
            if cols is None or cols.shape != shape or cols.dtype != xp.dtype:
                cols = self._cols = np.empty(shape, dtype=xp.dtype)
            np.copyto(cols.reshape(windows.shape), windows)
            self._cache = cols
        else:
            cols = windows.reshape(shape)  # a fresh copy
        y = cols @ self.w.reshape(-1, self.out_channels)
        y += self.b  # in place: one output-sized array fewer at peak
        return y.reshape(n, ho, wo, self.out_channels)

    def backward(self, dy, need_dx=True):
        """Set dw and db, let the padding update, and return the gradient
        of the unpadded input, or None with ``need_dx=False``.

        Each tap's product lands straight in the interior, added in
        row-major tap order to zeros: the same sums, in the same order, as
        scattering all taps into the padded shape and cutting the rings off.
        """
        cols = self._cached()
        n, ho, wo, _ = dy.shape
        dy_flat = dy.reshape(-1, self.out_channels)
        self.dw = (cols.T @ dy_flat).reshape(self.w.shape)
        self.db = np.einsum("mc->c", dy_flat)
        self.padding.backward(None)
        if not need_dx:
            return None
        s, k = self.padding.pad_size, self.k
        h, w = ho + k - 1 - 2 * s, wo + k - 1 - 2 * s
        dtype = np.result_type(dy, self.w)
        dx = np.zeros((n, h, w, self.in_channels), dtype=dtype)
        tap = np.empty((n * ho * wo, self.in_channels), dtype=dtype)
        for i in range(k):
            # output rows whose tap-i input row lies inside the interior
            y0, y1 = max(0, s - i), min(ho, h + s - i)
            for j in range(k):
                x0, x1 = max(0, s - j), min(wo, w + s - j)
                np.matmul(dy_flat, self.w[i, j].T, out=tap)
                dx[:, y0 + i - s : y1 + i - s, x0 + j - s : x1 + j - s] += \
                    tap.reshape(n, ho, wo, -1)[:, y0:y1, x0:x1]
        return dx

    def params(self):
        return [self.w, self.b]

    def grads(self):
        return [self.dw, self.db]


class ReLU(Layer):
    def forward(self, x):
        self._cache = None
        if self.training:
            self._cache = x > 0
        return np.maximum(x, 0)

    def backward(self, dy):
        return dy * self._cached()


def _quarter(a, k):
    # block position k = 2*row + col of every 2x2 block, as a strided view
    return a[:, k // 2 :: 2, k % 2 :: 2]


class MaxPool2x2(Layer):
    """2x2 max pooling, stride 2; backward routes to the first maximum of
    each block, in row-major block order, as ``argmax`` would."""

    def forward(self, x):
        self._cache = None
        _, h, w, _ = x.shape
        if h % 2 or w % 2:
            raise ValueError(f"spatial dims must be even, got {h}x{w}")
        q0, q1, q2, q3 = (_quarter(x, k) for k in range(4))
        top = np.maximum(q0, q1)
        bottom = np.maximum(q2, q3)
        if self.training:
            # strict comparisons keep the first of equal maxima, in each
            # pair and between the pairs: index = a + b * (c + 2 - a)
            a = (q1 > q0).view(np.uint8)
            b = (bottom > top).view(np.uint8)
            c = (q3 > q2).view(np.uint8)
            c += 2
            c -= a
            c *= b
            a += c
            self._cache = a
        return np.maximum(top, bottom, out=top)

    def backward(self, dy):
        index = self._cached()
        n, h, w, c = dy.shape
        dx = np.empty((n, 2 * h, 2 * w, c), dtype=dy.dtype)
        for k in range(4):
            np.multiply(dy, index == k, out=_quarter(dx, k))
        return dx


class Flatten(Layer):
    def forward(self, x):
        self._cache = None
        if self.training:
            self._cache = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, dy):
        return dy.reshape(self._cached())


class Dense(Layer):
    def __init__(self, in_features, out_features, rng, dtype=np.float32):
        self.w = (rng.normal(0.0, 1.0, size=(in_features, out_features))
                  * np.sqrt(2.0 / in_features)).astype(dtype)
        self.b = np.zeros(out_features, dtype=dtype)
        self.dw = None
        self.db = None

    def forward(self, x):
        self._cache = None
        y = x @ self.w + self.b
        if self.training:
            self._cache = x
        return y

    def backward(self, dy):
        self.dw = self._cached().T @ dy
        self.db = np.einsum("mc->c", dy)
        return dy @ self.w.T

    def params(self):
        return [self.w, self.b]

    def grads(self):
        return [self.dw, self.db]


def softmax_xent(logits, labels):
    """Mean cross-entropy over the batch and its gradient w.r.t. logits."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    total = exp.sum(axis=1, keepdims=True)
    probs = exp / total
    n = logits.shape[0]
    # log-sum-exp form: a log of the picked probability underflows to
    # log(0) = -inf in float32 once a logit gap passes about 104
    loss = float((np.log(total[:, 0]) - shifted[np.arange(n), labels]).mean())
    dlogits = probs.copy()
    dlogits[np.arange(n), labels] -= 1.0
    dlogits /= n
    return loss, dlogits.astype(logits.dtype)

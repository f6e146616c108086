"""Minimal CNN layers over (N, H, W, C) arrays, with exact analytic backward.

A layer caches what its backward pass needs during forward in train mode
only. In eval mode forward computes the output and keeps nothing, and
switching to eval mode drops any cache a train-mode forward left; a
backward then raises until the next train-mode forward. Convolution
is valid cross-correlation after the attached padding strategy has run; its
input gradient flows back through the same strategy, which for all supported
paddings passes only the interior gradient upstream.

A padding's ``backward(None)`` means "update only": no gradient is wanted,
so the strategy runs its train-mode local update, if one is due, and
returns None. The network's first convolution uses it, since nothing
consumes the gradient with respect to the network's input.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..baselines import pad_zero


class ZeroPad:
    """Static zero padding with the same forward/backward surface as the
    learnable module: backward keeps only the interior gradient (exact, since
    the zero rings receive none of the input)."""

    def __init__(self, pad_size):
        self.pad_size = int(pad_size)

    def forward(self, x):
        s = self.pad_size
        if s == 0:
            return x
        return pad_zero(x, s)

    def backward(self, g):
        s = self.pad_size
        if g is None or s == 0:
            return g
        return g[:, s:-s, s:-s, :]


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


def _im2col(xp, k):
    # (N, Hp, Wp, C) -> (N*Ho*Wo, k*k*C), window-major rows; the reshape of
    # the transposed window view is the only copy
    n, hp, wp, c = xp.shape
    ho, wo = hp - k + 1, wp - k + 1
    windows = sliding_window_view(xp, (k, k), axis=(1, 2))  # (N, Ho, Wo, C, k, k)
    cols = windows.transpose(0, 1, 2, 4, 5, 3).reshape(n * ho * wo, k * k * c)
    return cols, ho, wo


def _col2im(dcols, shape, k, ho, wo):
    n, hp, wp, c = shape
    dxp = np.zeros(shape, dtype=dcols.dtype)
    d6 = dcols.reshape(n, ho, wo, k, k, c)
    for i in range(k):
        for j in range(k):
            dxp[:, i : i + ho, j : j + wo, :] += d6[:, :, :, i, j, :]
    return dxp


class Conv2D(Layer):
    """k x k convolution, stride 1, with an attached padding strategy.

    `padding` is any object with forward/backward (ZeroPad or a
    PaddingModule); it runs before the valid cross-correlation, and the
    input gradient is routed back through it.
    """

    def __init__(self, in_channels, out_channels, padding, kernel_size=3,
                 rng=None, dtype=np.float32):
        if kernel_size % 2 != 1:
            raise ValueError(f"kernel size must be odd, got {kernel_size}")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.k = kernel_size
        self.padding = padding
        rng = rng or np.random.default_rng()
        fan_in = kernel_size * kernel_size * in_channels
        self.w = (rng.normal(0.0, 1.0, size=(kernel_size, kernel_size,
                                             in_channels, out_channels))
                  * np.sqrt(2.0 / fan_in)).astype(dtype)
        self.b = np.zeros(out_channels, dtype=dtype)
        self.dw = None
        self.db = None

    def forward(self, x):
        if x.shape[3] != self.in_channels:
            raise ValueError(
                f"expected {self.in_channels} input channels, got {x.shape[3]}"
            )
        xp = self.padding.forward(x)
        cols, ho, wo = _im2col(xp, self.k)
        y = cols @ self.w.reshape(-1, self.out_channels)
        y += self.b  # in place: one output-sized array fewer at peak
        if self.training:
            self._cache = cols
        return y.reshape(x.shape[0], ho, wo, self.out_channels)

    def backward(self, dy, need_dx=True):
        """Set dw and db; return the input gradient.

        With ``need_dx=False`` the input gradient is skipped: the padding
        still gets its ``backward(None)`` call, so a learnable padding takes
        its local update, and None is returned.
        """
        cols = self._cached()
        n, ho, wo, _ = dy.shape
        dy_flat = dy.reshape(-1, self.out_channels)
        self.dw = (cols.T @ dy_flat).reshape(self.w.shape)
        self.db = dy_flat.sum(axis=0)
        if not need_dx:
            return self.padding.backward(None)
        dcols = dy_flat @ self.w.reshape(-1, self.out_channels).T
        xp_shape = (n, ho + self.k - 1, wo + self.k - 1, self.in_channels)
        dxp = _col2im(dcols, xp_shape, self.k, ho, wo)
        return self.padding.backward(dxp)

    def params(self):
        return [self.w, self.b]

    def grads(self):
        return [self.dw, self.db]

    def set_params(self, values):
        self.w, self.b = values


class ReLU(Layer):
    def forward(self, x):
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
        n, h, w, c = x.shape
        if h % 2 or w % 2:
            raise ValueError(f"spatial dims must be even, got {h}x{w}")
        q0, q1, q2, q3 = (_quarter(x, k) for k in range(4))
        top = np.maximum(q0, q1)
        bottom = np.maximum(q2, q3)
        if self.training:
            # strict comparisons keep the first of equal maxima, in each
            # pair and between the pairs
            self._cache = np.where(bottom > top,
                                   (q3 > q2).view(np.uint8) + np.uint8(2),
                                   (q1 > q0).view(np.uint8))
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
        if self.training:
            self._cache = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, dy):
        return dy.reshape(self._cached())


class Dense(Layer):
    def __init__(self, in_features, out_features, rng=None, dtype=np.float32):
        rng = rng or np.random.default_rng()
        self.w = (rng.normal(0.0, 1.0, size=(in_features, out_features))
                  * np.sqrt(2.0 / in_features)).astype(dtype)
        self.b = np.zeros(out_features, dtype=dtype)
        self.dw = None
        self.db = None

    def forward(self, x):
        if self.training:
            self._cache = x
        return x @ self.w + self.b

    def backward(self, dy):
        self.dw = self._cached().T @ dy
        self.db = dy.sum(axis=0)
        return dy @ self.w.T

    def params(self):
        return [self.w, self.b]

    def grads(self):
        return [self.dw, self.db]

    def set_params(self, values):
        self.w, self.b = values


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

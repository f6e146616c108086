"""Trainable padding layer that learns to extrapolate an input's borders.

The layer supervises itself: the outermost rows/columns of the input are
the targets, and the rows/columns just inside them are the predictor. Each
channel owns a 1x3 filter that slides (stride 1) over the reflect-then-zero
padded predictor rows to produce border predictions; the squared prediction
error is driven down by a local SGD step, independent of whatever loss the
surrounding network trains on. At padding time the same filters extrapolate
outward one ring at a time from the current outermost border, and the ring
corners average the two predictions (horizontal and vertical) that meet
there.

On the way back, gradients arriving for the padded rings are discarded:
``backward`` steps the filters with the gradient the train-mode forward
cached and passes only the interior gradient to the previous layer.

:class:`PaddingModule` runs this math as one batched kernel over a whole
(N, H, W, C) batch and all channels at once. The kernel is the only
implementation: the tests check it against an independent loop-based
reference, one 2-D plane at a time.
"""

from __future__ import annotations

import struct

import numpy as np

WEIGHTS_MAGIC = b"PADMOD1\n"


class FilterBank:
    """Per-channel 1x3 filter weights and their local SGD step.

    ``weights`` has shape (channels, 3) and starts as the float32 local-mean
    extrapolator, every tap 1/3; other filters are assigned to ``weights``.
    ``step`` applies one update given a same-shaped gradient array; an
    update that would leave a non-finite weight raises FloatingPointError
    and keeps the weights as they were.
    """

    def __init__(self, channels, learning_rate=0.01):
        if channels < 1:
            raise ValueError(f"need at least one channel, got {channels}")
        self.channels = int(channels)
        self.learning_rate = float(learning_rate)
        self.weights = np.full((channels, 3), 1.0, dtype=np.float32) / 3

    def step(self, grads):
        # a gradient past the float32 range casts to inf, which the
        # finiteness check below reports
        with np.errstate(over="ignore"):
            grads = np.asarray(grads, dtype=self.weights.dtype)
        if grads.shape != self.weights.shape:
            raise ValueError(
                f"gradient shape {grads.shape} != weights shape {self.weights.shape}"
            )
        weights = self.weights - self.learning_rate * grads
        if not np.all(np.isfinite(weights)):
            raise FloatingPointError("filter weights diverged to non-finite values")
        self.weights = weights


# --- batched kernel ----------------------------------------------------------
#
# Border rows travel in pairs, top+bottom and left+right, stacked on axis 1
# as (N, 2, L, C) arrays whose axis 2 runs along the border. Each filter tap
# is tiled along the border length before it multiplies, so numpy's inner
# loop runs over a whole row of L*C values rather than C at a time.


def _taps(weights, dtype, length):
    """(3, length, C): tap k of every channel's filter, repeated `length` times."""
    w = weights.T.astype(dtype)
    return np.broadcast_to(w[:, None, :], (3, length, w.shape[1])).copy()


def _reflected(rows):
    """(N, 2, L, C) -> (N, 2, L+4, C): each row as [0, r1, r0..r_{L-1}, r_{L-2}, 0]."""
    n, k, length, c = rows.shape
    out = np.empty((n, k, length + 4, c), dtype=rows.dtype)
    out[:, :, 2:-2] = rows
    out[:, :, 1] = rows[:, :, 1]
    out[:, :, -2] = rows[:, :, -2]
    out[:, :, 0] = 0
    out[:, :, -1] = 0
    return out


def _slide(taps, rows, out):
    """Valid 1x3 correlation along axis 2, written into ``out``.

    rows (N, 2, L, C) -> out (N, 2, L-2, C), each value summed in the order
    t0*x0 + t1*x1 + t2*x2.
    """
    n = out.shape[2]
    np.multiply(taps[0, :n], rows[:, :, :-2], out=out)
    term = taps[1, :n] * rows[:, :, 1:-1]
    out += term
    np.multiply(taps[2, :n], rows[:, :, 2:], out=term)
    out += term
    return out


def _predict(taps, rows):
    """Predictions from stacked border rows (N, 2, L, C) -> (N, 2, L+2, C)."""
    padded = _reflected(rows)
    n, k, length, c = padded.shape
    out = np.empty((n, k, length - 2, c), dtype=np.result_type(taps, padded))
    return _slide(taps, padded, out), padded


def _pad_ring(out, o, h, w, taps):
    """Fill the ring around the h x w block at offset ``o`` of ``out``.

    The block's borders are read from views of ``out`` and the predictions
    are written straight into the ring: the full top and bottom rows first,
    then the left and right columns between them, and the corners become
    the mean of the horizontal and vertical predictions that meet there.
    """
    _slide(taps, _reflected(out[:, o : o + h : h - 1, o : o + w]),
           out[:, o - 1 : o + h + 1 : h + 1, o - 1 : o + w + 1])
    sides, _ = _predict(taps, out[:, o : o + h, o : o + w : w - 1].transpose(0, 2, 1, 3))
    out[:, o : o + h, o - 1 : o + w + 1 : w + 1] = sides[:, :, 1:-1].transpose(0, 2, 1, 3)
    corners = out[:, o - 1 : o + h + 1 : h + 1, o - 1 : o + w + 1 : w + 1]
    corners += sides[:, :, :: h + 1].transpose(0, 2, 1, 3)
    corners /= 2


def _pairs(x):
    """The two supervision pairs of x (N, H, W, C), as (target, rows) views.

    The targets are the outermost rows and columns of x, the predictor rows
    are the ones just inside them with their ends dropped. Top+bottom comes
    first, then left+right, each stacked on axis 1 as in the ring code.
    """
    _, h, w, _ = x.shape
    return (
        (x[:, 0:h:h - 1], x[:, 1 : h - 1 : h - 3, 1 : w - 1]),
        (x[:, :, 0:w:w - 1].transpose(0, 2, 1, 3),
         x[:, 1 : h - 1, 1 : w - 1 : w - 3].transpose(0, 2, 1, 3)),
    )


def _pair_stats(weights, x):
    """Per-channel mean MSE and filter gradient of the supervision pairs of x.

    Residuals are taken in the filters' arithmetic, then summed in float64.
    The mean runs over all 2(H+W) border values of every image.
    """
    n, h, w, c = x.shape
    taps = _taps(weights, np.result_type(weights, x), max(h, w))
    mse = np.zeros(c)
    grad = np.zeros((c, 3))
    for target, rows in _pairs(x):
        res, padded = _predict(taps, rows)
        res -= target
        res = res.astype(np.float64)
        windows = padded.astype(np.float64)
        length = res.shape[2]
        mse += np.einsum("nklc,nklc->c", res, res)
        for m in range(3):
            grad[:, m] += np.einsum("nklc,nklc->c", res, windows[:, :, m : m + length])
    count = n * 2 * (h + w)
    return mse / count, 2.0 * grad / count


class PaddingModule:
    """Learnable padding layer for (H,W), (H,W,C) or (N,H,W,C) inputs.

    In train mode, ``forward`` caches the local MSE and filter gradient of
    the original input's supervision pairs; ``backward`` then steps the
    filters with that gradient and strips the padded-ring gradients,
    returning only the interior. In eval mode ``forward`` is pure and
    ``backward`` only strips. Switching to eval mode drops the cache, and so
    does a ``forward`` that raises, so a later train-mode ``backward`` needs
    a new train-mode ``forward`` that succeeded.

    ``forward`` allocates the padded output once, copies the input into its
    interior and writes each ring's predictions straight into it.

    ``training`` is True in train mode, as on the network's layers; a
    module with fixed filters is one held in eval mode.
    """

    def __init__(self, channels, pad_size=1, learning_rate=0.01):
        if pad_size < 1:
            raise ValueError(f"pad_size must be >= 1, got {pad_size}")
        self.filters = FilterBank(channels, learning_rate=learning_rate)
        self.pad_size = int(pad_size)
        self.training = True
        self.cache = None
        self.last_local_mse = float("nan")

    # -- mode control ---------------------------------------------------------

    def train(self):
        self.training = True
        return self

    def eval(self):
        self.training = False
        self.cache = None
        return self

    # -- shape plumbing -------------------------------------------------------

    def _as_batch(self, x, what):
        x = np.asarray(x)
        if x.ndim == 2:
            x4 = x[None, :, :, None]
        elif x.ndim == 3:
            x4 = x[None, :, :, :]
        elif x.ndim == 4:
            x4 = x
        else:
            raise ValueError(f"{what} expects 2-D..4-D input, got ndim={x.ndim}")
        if x4.shape[3] != self.filters.channels:
            raise ValueError(
                f"{what} got {x4.shape[3]} channels, filter bank has {self.filters.channels}"
            )
        return x4, x.ndim

    @staticmethod
    def _as_rank(x4, ndim):
        """Drop the axes ``_as_batch`` added to an input of rank ``ndim``."""
        if ndim == 2:
            return x4[0, :, :, 0]
        return x4[0] if ndim == 3 else x4

    # -- forward --------------------------------------------------------------

    def forward(self, x):
        self.cache = None  # a forward that raises leaves nothing to update from
        x4, ndim = self._as_batch(x, "forward")
        n, h, w, _ = x4.shape
        min_side, mode = (4, "train") if self.training else (2, "eval")
        if h < min_side or w < min_side:
            raise ValueError(
                f"{mode}-mode forward needs H,W >= {min_side}, got {h}x{w}"
            )
        s = self.pad_size
        dtype = np.result_type(x4, self.filters.weights)
        out = np.empty((n, h + 2 * s, w + 2 * s, x4.shape[3]), dtype=dtype)
        out[:, s : s + h, s : s + w] = x4
        taps = _taps(self.filters.weights, dtype, max(h, w) + 2 * s)
        # divergence is detected by the finiteness check below, so let any
        # intermediate overflow pass through silently as inf
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(s):
                _pad_ring(out, s - k, h + 2 * k, w + 2 * k, taps)
        if not np.all(np.isfinite(out)):
            raise FloatingPointError(
                "padding produced non-finite values (divergent local filters?)"
            )
        if self.training:
            # supervision comes from the original input only, never from
            # already-padded rings
            self.cache = (_pair_stats(self.filters.weights, x4), x4.shape)
        return self._as_rank(out, ndim)

    # -- local training -------------------------------------------------------

    def supervision_mse(self, x):
        """Mean border-prediction MSE of `x` under the current filters.

        Pure measurement: neither the cache nor the filters are touched.
        """
        x4, _ = self._as_batch(x, "supervision_mse")
        if x4.shape[1] < 4 or x4.shape[2] < 4:
            raise ValueError(
                f"supervision needs H,W >= 4, got {x4.shape[1]}x{x4.shape[2]}"
            )
        mse, _ = _pair_stats(self.filters.weights, x4)
        return float(mse.mean())

    def local_update(self):
        """One SGD step on the filters with the gradient forward cached.

        The per-channel gradient is averaged over the batch of the last
        train-mode forward; the cache is consumed, also by a step that raises.
        """
        if self.cache is None:
            raise RuntimeError("local_update without a train-mode forward")
        (mse, grad), _ = self.cache
        self.cache = None
        self.last_local_mse = float(mse.mean())
        self.filters.step(grad)

    def backward(self, g):
        """Strip padded-ring gradients; update filters first in train mode.

        Returns the interior of ``g``, bit-exact: gradients for the rings
        this layer fabricated are discarded, not propagated. ``g=None``
        means no gradient is wanted: the train-mode update still runs and
        None is returned.
        """
        if g is not None:
            g4, ndim = self._as_batch(g, "backward")
        if self.training:
            if self.cache is None:
                raise RuntimeError("backward without a train-mode forward")
            n, h, w, c = self.cache[1]
            padded = (n, h + 2 * self.pad_size, w + 2 * self.pad_size, c)
            if g is not None and g4.shape != padded:
                raise ValueError(
                    f"gradient shape {g4.shape} != padded output shape {padded}"
                )
            self.local_update()
        if g is None:
            return None
        s = self.pad_size
        n, h, w, _ = g4.shape
        if h <= 2 * s or w <= 2 * s:
            raise ValueError(
                f"gradient spatial shape {h}x{w} too small to strip {s} rings"
            )
        return self._as_rank(g4[:, s : h - s, s : w - s, :].copy(), ndim)


def save_weights(path, weights):
    """Write a filter bank: magic, u32-LE channel count, 3 f32-LE per channel.

    Non-finite weights, including values that overflow float32, raise
    ValueError before the file is opened.
    """
    weights = np.asarray(weights)
    if weights.ndim != 2 or weights.shape[1] != 3:
        raise ValueError(f"expected (channels, 3) weights, got {weights.shape}")
    with np.errstate(over="ignore"):  # an overflow is reported just below
        payload = weights.astype("<f4")
    if not np.all(np.isfinite(payload)):
        raise ValueError(f"{path}: refusing to write non-finite weights")
    with open(path, "wb") as f:
        f.write(WEIGHTS_MAGIC)
        f.write(struct.pack("<I", weights.shape[0]))
        f.write(payload.tobytes())


def load_weights(path):
    """Read a filter bank written by :func:`save_weights` -> (channels, 3) f32."""
    with open(path, "rb") as f:
        blob = f.read()
    if not blob.startswith(WEIGHTS_MAGIC):
        raise ValueError(f"{path}: not a padding-filter weights file")
    header = len(WEIGHTS_MAGIC) + 4
    if len(blob) < header:
        raise ValueError(
            f"{path}: weights file ends inside its {header}-byte header"
        )
    (channels,) = struct.unpack_from("<I", blob, len(WEIGHTS_MAGIC))
    body = blob[header:]
    if len(body) != channels * 12:
        raise ValueError(
            f"{path}: expected {channels * 12} payload bytes, found {len(body)}"
        )
    weights = np.frombuffer(body, dtype="<f4").reshape(channels, 3).copy()
    if not np.all(np.isfinite(weights)):
        raise ValueError(f"{path}: weights file holds non-finite values")
    return weights

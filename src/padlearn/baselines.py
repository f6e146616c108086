"""Reference padding methods: zero, replicate, reflect, mean interpolation.

All pad the two spatial axes of (H, W), (H, W, C) or (N, H, W, C) arrays by
`size` rings and preserve the interior bit-exactly. The mean-interpolation
method keeps border statistics consistent by extrapolating with a local
mean; it is the learnable padding layer frozen at its mean-filter
initialization, so the two are bit-identical by construction.
"""

from __future__ import annotations

import numpy as np

from .padding_module import PaddingModule


def _spatial_pad_width(arr, size):
    if arr.ndim == 2:
        return ((size, size), (size, size))
    if arr.ndim == 3:
        return ((size, size), (size, size), (0, 0))
    if arr.ndim == 4:
        return ((0, 0), (size, size), (size, size), (0, 0))
    raise ValueError(f"expected 2-D..4-D input, got ndim={arr.ndim}")


def _check_size(size):
    if size < 1:
        raise ValueError(f"padding size must be >= 1, got {size}")


def pad_zero(m, size):
    """Surround the input with `size` rings of zeros."""
    m = np.asarray(m)
    _check_size(size)
    return np.pad(m, _spatial_pad_width(m, size), mode="constant")


def pad_replicate(m, size):
    """Copy the nearest edge value outward; corners copy the nearest corner."""
    m = np.asarray(m)
    _check_size(size)
    return np.pad(m, _spatial_pad_width(m, size), mode="edge")


def pad_reflect(m, size):
    """Mirror rows/columns over the borders, excluding the border itself.

    Ring k repeats the row/column at distance k inside the edge, so `size`
    must stay below both spatial dims.
    """
    m = np.asarray(m)
    _check_size(size)
    h, w = (m.shape[0], m.shape[1]) if m.ndim < 4 else (m.shape[1], m.shape[2])
    if size >= min(h, w):
        raise ValueError(
            f"reflect padding of {size} needs spatial dims > {size}, got {h}x{w}"
        )
    return np.pad(m, _spatial_pad_width(m, size), mode="reflect")


def pad_mean_interp(m, size):
    """Extrapolate borders with a sliding local mean, ring by ring.

    Runs the learnable padding pipeline with its filters fixed at the
    mean-extrapolator initialization; no supervision is collected and no
    update happens.
    """
    m = np.asarray(m)
    _check_size(size)
    channels = 1 if m.ndim == 2 else m.shape[-1]
    return PaddingModule(channels, pad_size=size).freeze().forward(m)

"""Reference convolution backward: the padded-gradient path.

Forms every tap's product at once as im2col column gradients, scatters
them into the padded shape tap by tap, and cuts the padded rings off
afterwards: a learnable padding strips them in its own ``backward(g)``,
zero padding by slicing. ``Conv2D.backward`` forms only the interior and
must give the same bytes.
"""

import numpy as np

from padlearn.padding_module import PaddingModule


def col2im(dcols, shape, k, ho, wo):
    """Add each tap's column gradients into a zeroed padded-input array."""
    n, hp, wp, c = shape
    dxp = np.zeros(shape, dtype=dcols.dtype)
    d6 = dcols.reshape(n, ho, wo, k, k, c)
    for i in range(k):
        for j in range(k):
            dxp[:, i : i + ho, j : j + wo, :] += d6[:, :, :, i, j, :]
    return dxp


def conv_backward(conv, dy):
    """(dx, dw, db) of `conv` for output gradient `dy`, by the padded path.

    Reads the columns the conv cached in its train-mode forward and leaves
    the conv's own ``dw``/``db`` untouched. A PaddingModule takes its
    train-mode update inside ``backward(g)``, as it does in the conv's path.
    """
    cols = conv._cached()
    n, ho, wo, cout = dy.shape
    k = conv.k
    dy_flat = dy.reshape(-1, cout)
    dw = (cols.T @ dy_flat).reshape(conv.w.shape)
    db = dy_flat.sum(axis=0)
    dcols = dy_flat @ conv.w.reshape(-1, cout).T
    shape = (n, ho + k - 1, wo + k - 1, conv.in_channels)
    dxp = col2im(dcols, shape, k, ho, wo)
    if isinstance(conv.padding, PaddingModule):
        return conv.padding.backward(dxp), dw, db
    s = conv.padding.pad_size
    return dxp[:, s : shape[1] - s, s : shape[2] - s, :].copy(), dw, db

import os
from pathlib import Path

import numpy as np
import pytest

from padlearn.data_io import load_cifar10_dir
from padlearn.padding_module import PaddingModule
from padlearn.synthetic import make_synthetic_cifar


def _valid_data_dir(path):
    p = Path(path)
    return (p / "test_batch.bin").exists() and list(p.glob("data_batch_*.bin"))


@pytest.fixture(scope="session")
def cifar_dir(tmp_path_factory):
    """Directory of CIFAR-10-format binary batches.

    Uses the real dataset when present (CIFAR10_DIR env var or
    data/cifar-10-batches-bin); otherwise generates the deterministic
    synthetic corpus in the same binary layout.
    """
    for candidate in (os.environ.get("CIFAR10_DIR"),
                      Path(__file__).resolve().parent.parent / "data" / "cifar-10-batches-bin"):
        if candidate and _valid_data_dir(candidate):
            return Path(candidate)
    out = tmp_path_factory.mktemp("cifar_synth")
    make_synthetic_cifar(out, n_train=6000, n_test=1000, seed=2024)
    return out


@pytest.fixture(scope="session")
def batch64(cifar_dir):
    """A fixed batch of 64 training images, (64, 32, 32, 3) float32."""
    (x, _), _ = load_cifar10_dir(cifar_dir, train_limit=64, test_limit=1)
    return x


def random_module(channels, seed, **kwargs):
    """A PaddingModule whose filters are float32 uniform(-0.1, 0.1) draws of
    ``default_rng(seed)``, in place of the mean filter it starts as."""
    module = PaddingModule(channels, **kwargs)
    module.filters.weights = (np.random.default_rng(seed)
                              .uniform(-0.1, 0.1, (channels, 3)).astype(np.float32))
    return module


M4 = np.arange(1.0, 17.0).reshape(4, 4)


@pytest.fixture
def m4():
    """The 4x4 worked example: [[1..4],[5..8],[9..12],[13..16]]."""
    return M4.copy()


def interior(t, margin):
    """Centered copy of (H, W), (H, W, C) or (N, H, W, C) `t` with `margin`
    rows and columns removed from each side of the spatial axes.

    Values are copied bit-exactly. Both spatial dims must exceed 2*margin.
    """
    t = np.asarray(t)
    m = int(margin)
    if m < 1:
        raise ValueError(f"margin must be >= 1, got {margin}")
    if t.ndim not in (2, 3, 4):
        raise ValueError(f"expected a 2-D..4-D tensor, got ndim={t.ndim}")
    batch = (slice(None),) if t.ndim == 4 else ()
    h, w = t.shape[len(batch) : len(batch) + 2]
    if h <= 2 * m or w <= 2 * m:
        raise ValueError(f"margin {m} too large for spatial shape {(h, w)}")
    return t[batch + (slice(m, h - m), slice(m, w - m))].copy()


try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    pass
else:
    # derandomized and without an example database: every run draws the
    # same examples, so tier-1 stays reproducible; no deadline, since a
    # loaded host can stall any example
    settings.register_profile("tier1", derandomize=True, deadline=None, database=None)
    settings.load_profile("tier1")

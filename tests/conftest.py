import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

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


def module_with(filters, channels=1, **kwargs):
    """A PaddingModule with the given filters: one 3-tap filter, tiled in
    float64 over ``channels``, or a copy of a (C, 3) bank, which sets C."""
    filters = np.asarray(filters)
    if filters.ndim == 1:
        filters = np.tile(filters.astype(np.float64), (channels, 1))
    module = PaddingModule(filters.shape[0], **kwargs)
    module.filters.weights = filters.copy()
    return module


def random_module(channels, seed, **kwargs):
    """A PaddingModule whose filters are float32 uniform(-0.1, 0.1) draws of
    ``default_rng(seed)``, in place of the mean filter it starts as."""
    rng = np.random.default_rng(seed)
    return module_with(rng.uniform(-0.1, 0.1, (channels, 3)).astype(np.float32), **kwargs)


M4 = np.arange(1.0, 17.0).reshape(4, 4)
IDENTITY = (0.0, 1.0, 0.0)


@pytest.fixture
def m4():
    """The 4x4 worked example: [[1..4],[5..8],[9..12],[13..16]]."""
    return M4.copy()


# derandomized and without an example database: every run draws the same
# examples, so tier-1 stays reproducible; no deadline, since a loaded host
# can stall any example
settings.register_profile("tier1", derandomize=True, deadline=None, database=None)
settings.load_profile("tier1")

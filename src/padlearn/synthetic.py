"""Deterministic stand-in image corpus in the CIFAR-10 binary layout.

Build environments do not always ship the real dataset, and nothing here
may download it. This generator writes class-labeled 32x32 RGB images with
natural-image-like statistics (smooth shading plus a class-specific color
grating at a random phase, so class identity lives in texture rather than
absolute position) in the exact 3073-byte record format the loader parses;
every consumer of the real files runs unchanged. Same seed, same bytes.
"""

from __future__ import annotations

import os

import numpy as np

from .data_io import NUM_CLASSES

_SIZE = 32


def _smooth_fields(rng, n):
    """Low-frequency random shading: coarse noise upsampled and box-blurred."""
    coarse = rng.uniform(0.0, 1.0, size=(n, 8, 8, 3))
    field = np.repeat(np.repeat(coarse, 4, axis=1), 4, axis=2)
    for _ in range(2):
        padded = np.pad(field, ((0, 0), (1, 1), (1, 1), (0, 0)), mode="edge")
        field = (
            padded[:, :-2, 1:-1] + padded[:, 2:, 1:-1] + padded[:, 1:-1, :-2]
            + padded[:, 1:-1, 2:] + padded[:, 1:-1, 1:-1]
        ) / 5.0
    return field


def _class_styles(rng):
    """Per-class texture signature: grating orientation/frequency and color.

    Class identity lives in texture and color, not absolute position, so a
    random per-image phase can shift the pattern freely.
    """
    angles = rng.permutation(NUM_CLASSES) * np.pi / NUM_CLASSES \
        + rng.uniform(-0.1, 0.1, NUM_CLASSES)
    freqs = rng.uniform(1.5, 3.5, NUM_CLASSES)
    colors = rng.uniform(0.3, 1.0, size=(NUM_CLASSES, 3))
    return angles, freqs, colors


def _render(rng, labels, styles):
    angles, freqs, colors = styles
    n = len(labels)
    base = _smooth_fields(rng, n)
    ys, xs = np.mgrid[0:_SIZE, 0:_SIZE]
    phase = rng.uniform(0.0, 2 * np.pi, size=(n, 1, 1))
    freq = freqs[labels] * rng.uniform(0.85, 1.15, size=n)
    ang = angles[labels][:, None, None]
    arg = 2 * np.pi * freq[:, None, None] / _SIZE \
        * (np.cos(ang) * xs + np.sin(ang) * ys) + phase
    grating = 0.5 + 0.5 * np.cos(arg)
    strength = rng.uniform(0.6, 1.1, size=(n, 1, 1, 1))
    signal = grating[..., None] * colors[labels][:, None, None, :]
    jitter = rng.normal(0.0, 0.06, size=base.shape)
    img = 0.63 * base + 0.32 * strength * signal + jitter
    return np.clip(img, 0.0, 1.0)


def _to_records(images, labels):
    """Pack float images + labels into CIFAR-10 binary records."""
    n = len(labels)
    pix = np.floor(images * 255.0 + 0.5).astype(np.uint8)
    planes = pix.transpose(0, 3, 1, 2).reshape(n, 3 * _SIZE * _SIZE)
    records = np.empty((n, 1 + planes.shape[1]), dtype=np.uint8)
    records[:, 0] = labels
    records[:, 1:] = planes
    return records.tobytes()


def make_synthetic_cifar(data_dir, n_train=6000, n_test=1000, seed=2024):
    """Write data_batch_1.bin and test_batch.bin under `data_dir`."""
    os.makedirs(data_dir, exist_ok=True)
    rng = np.random.default_rng(seed)
    styles = _class_styles(rng)
    for name, count in (("data_batch_1.bin", n_train), ("test_batch.bin", n_test)):
        labels = np.arange(count, dtype=np.uint8) % NUM_CLASSES
        chunks = []
        for start in range(0, count, 500):
            stop = min(start + 500, count)
            chunks.append(_to_records(_render(rng, labels[start:stop], styles),
                                      labels[start:stop]))
        with open(os.path.join(data_dir, name), "wb") as f:
            f.write(b"".join(chunks))
    return data_dir


def main(argv=None):
    import argparse

    from .cli import _non_negative_int, _positive_int

    parser = argparse.ArgumentParser(
        description="generate a synthetic dataset in CIFAR-10 binary layout"
    )
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--train", type=_positive_int, default=6000)
    parser.add_argument("--test", type=_positive_int, default=1000)
    parser.add_argument("--seed", type=_non_negative_int, default=2024)
    args = parser.parse_args(argv)
    make_synthetic_cifar(args.out, args.train, args.test, args.seed)
    print(f"wrote {args.train} train / {args.test} test records to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

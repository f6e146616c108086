"""Dataset ingestion, PPM image emission, and metrics persistence."""

from __future__ import annotations

import glob
import os
from dataclasses import dataclass

import numpy as np

RECORD_BYTES = 3073  # 1 label byte + 32*32 bytes per plane, 3 planes
NUM_CLASSES = 10


@dataclass
class LabeledImage:
    pixels: np.ndarray  # (32, 32, 3) float32 in [0, 1]
    label: int


@dataclass
class MetricsRow:
    epoch: int
    split: str
    loss: float
    accuracy: float
    module_mse_mean: float
    seconds: float


def load_cifar10_batch(path):
    """Parse one CIFAR-10 binary batch file into labeled images.

    Records are 3073 bytes: a label byte then the red, green and blue
    planes, each row-major 32x32. Pixels come out channel-last, scaled to
    [0, 1]. Order is preserved.
    """
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) == 0 or len(blob) % RECORD_BYTES != 0:
        raise ValueError(
            f"{path}: size {len(blob)} is not a multiple of {RECORD_BYTES}-byte records"
        )
    raw = np.frombuffer(blob, dtype=np.uint8).reshape(-1, RECORD_BYTES)
    labels = raw[:, 0]
    if labels.max(initial=0) >= NUM_CLASSES:
        bad = int(np.argmax(labels >= NUM_CLASSES))
        raise ValueError(
            f"{path}: record {bad} has label byte {labels[bad]} (must be 0..9)"
        )
    planes = raw[:, 1:].reshape(-1, 3, 32, 32)
    pixels = planes.transpose(0, 2, 3, 1).astype(np.float32)
    pixels /= 255.0  # in place, so no second float32 copy of the batch is made
    return [LabeledImage(pixels[i], int(labels[i])) for i in range(raw.shape[0])]


def load_cifar10_dir(data_dir, train_limit=None, test_limit=None):
    """Load (train, test) image lists from a directory of batch files.

    Training records come from data_batch_*.bin in sorted filename order,
    test records from test_batch.bin. Limits keep the first N records.
    """
    train_files = sorted(glob.glob(os.path.join(data_dir, "data_batch_*.bin")))
    test_file = os.path.join(data_dir, "test_batch.bin")
    if not train_files or not os.path.exists(test_file):
        raise FileNotFoundError(
            f"{data_dir}: expected data_batch_*.bin and test_batch.bin"
        )
    train = []
    for path in train_files:
        if train_limit is not None and len(train) >= train_limit:
            break
        train.extend(load_cifar10_batch(path))
    if train_limit is not None:
        train = train[:train_limit]
    test = load_cifar10_batch(test_file)
    if test_limit is not None:
        test = test[:test_limit]
    return train, test


def images_to_arrays(images):
    """Stack labeled images into (x, y) arrays: (N,32,32,3) f32 and (N,) i64."""
    # labels before images: with the small label array allocated after the
    # large image stack, repeated loads of 2048 images alternately grew and
    # trimmed the heap in some process layouts, and peak RSS rose 16 MB
    y = np.array([im.label for im in images], dtype=np.int64)
    x = np.stack([im.pixels for im in images]).astype(np.float32, copy=False)
    return x, y


def write_ppm(t, path):
    """Write an (H, W, 3) tensor with values in [0, 1] as binary PPM (P6).

    Bytes are round-half-up of value*255.
    """
    t = np.asarray(t)
    if t.ndim != 3 or t.shape[2] != 3:
        raise ValueError(f"expected (H, W, 3), got {t.shape}")
    lo, hi = t.min(), t.max()
    # written so that NaN, which fails every comparison, is rejected too
    if not (lo >= 0.0 and hi <= 1.0):
        raise ValueError(
            f"values must be finite and in [0, 1], got range [{lo}, {hi}]"
        )
    h, w = t.shape[:2]
    payload = np.floor(t.astype(np.float64) * 255.0 + 0.5).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(payload.tobytes())


def read_ppm(path):
    """Read a binary PPM (P6, maxval 255) into (H, W, 3) float32 in [0, 1]."""
    with open(path, "rb") as f:
        blob = f.read()

    def tokens():
        i = 0
        while i < len(blob):
            ch = blob[i : i + 1]
            if ch == b"#":
                while i < len(blob) and blob[i : i + 1] != b"\n":
                    i += 1
            elif ch.isspace():
                i += 1
            else:
                start = i
                while i < len(blob) and not blob[i : i + 1].isspace():
                    i += 1
                yield blob[start:i], i
        raise ValueError(f"{path}: truncated PPM header")

    it = tokens()
    magic, _ = next(it)
    if magic != b"P6":
        raise ValueError(f"{path}: expected P6 magic, got {magic!r}")
    (w, _), (h, _), (maxval, end) = next(it), next(it), next(it)
    w, h, maxval = int(w), int(h), int(maxval)
    if w < 1 or h < 1:
        raise ValueError(f"{path}: width and height must be positive, got {w}x{h}")
    if maxval != 255:
        raise ValueError(f"{path}: only maxval 255 supported, got {maxval}")
    data = blob[end + 1 : end + 1 + h * w * 3]
    if len(data) != h * w * 3:
        raise ValueError(f"{path}: expected {h * w * 3} payload bytes, got {len(data)}")
    arr = np.frombuffer(data, dtype=np.uint8).reshape(h, w, 3)
    return arr.astype(np.float32) / 255.0


def _fmt(value):
    return f"{value:.6g}"


def write_metrics_csv(rows, path):
    """Write metric rows as CSV, one line per row, 6 significant digits."""
    with open(path, "w", encoding="ascii", newline="\n") as f:
        f.write("epoch,split,loss,accuracy,module_mse_mean,seconds\n")
        for r in rows:
            f.write(
                f"{r.epoch},{r.split},{_fmt(r.loss)},{_fmt(r.accuracy)},"
                f"{_fmt(r.module_mse_mean)},{_fmt(r.seconds)}\n"
            )


def read_metrics_csv(path):
    """Read back a metrics CSV written by :func:`write_metrics_csv`."""
    rows = []
    with open(path, "r", encoding="ascii") as f:
        header = f.readline().strip()
        if header != "epoch,split,loss,accuracy,module_mse_mean,seconds":
            raise ValueError(f"{path}: unexpected header {header!r}")
        for line in f:
            epoch, split, loss, acc, mse, secs = line.strip().split(",")
            rows.append(
                MetricsRow(int(epoch), split, float(loss), float(acc),
                           float(mse), float(secs))
            )
    return rows

"""Dataset ingestion, PPM image emission, and metrics persistence."""

from __future__ import annotations

import glob
import os
from dataclasses import dataclass

import numpy as np

RECORD_BYTES = 3073  # 1 label byte + 32*32 bytes per plane, 3 planes
NUM_CLASSES = 10


@dataclass
class MetricsRow:
    epoch: int
    split: str
    loss: float
    accuracy: float
    module_mse_mean: float
    seconds: float


def _record_count(path):
    size = os.path.getsize(path)
    if size == 0 or size % RECORD_BYTES != 0:
        raise ValueError(
            f"{path}: size {size} is not a multiple of {RECORD_BYTES}-byte records"
        )
    return size // RECORD_BYTES


def _load(paths, limit):
    """Decode the first `limit` records (all when None) of `paths`, in order.

    Each record is a label byte then the red, green and blue planes, each
    row-major 32x32. Every file read has all its labels checked; records
    past the limit are not decoded, and files past it are not read. The
    kept records are cast from uint8 straight into one (N, 3, 32, 32)
    float32 array, a file at a time, and scaled to [0, 1] in place.
    """
    counts = []
    for path in paths:
        if limit is not None and sum(counts) >= limit:
            break
        counts.append(_record_count(path))
    total = sum(counts) if limit is None else min(limit, sum(counts))
    planes = np.empty((total, 3, 32, 32), dtype=np.float32)
    labels = np.empty(total, dtype=np.int64)
    start = 0
    for path, count in zip(paths, counts):
        with open(path, "rb") as f:
            blob = f.read()
        if len(blob) != count * RECORD_BYTES:
            raise ValueError(f"{path}: file changed size while being read")
        raw = np.frombuffer(blob, dtype=np.uint8).reshape(count, RECORD_BYTES)
        if raw[:, 0].max() >= NUM_CLASSES:
            bad = int(np.argmax(raw[:, 0] >= NUM_CLASSES))
            raise ValueError(
                f"{path}: record {bad} has label byte {raw[bad, 0]} (must be 0..9)"
            )
        stop = min(start + count, total)
        planes[start:stop] = raw[: stop - start, 1:].reshape(-1, 3, 32, 32)
        labels[start:stop] = raw[: stop - start, 0]
        start = stop
    planes /= 255.0  # in place, so no second float32 copy is made
    # channel-last as a view: the memory stays channel-planar, strides
    # (12288, 128, 4, 4096)
    return planes.transpose(0, 2, 3, 1), labels


def load_cifar10_batch(path):
    """Parse one CIFAR-10 binary batch file into ``(x, y)``.

    ``x`` is (N, 32, 32, 3) float32 in [0, 1], channel-last, and ``y`` is
    (N,) int64. Order is preserved.
    """
    return _load([path], None)


def load_cifar10_dir(data_dir, train_limit=None, test_limit=None):
    """Load ``((x_train, y_train), (x_test, y_test))`` from a directory of
    batch files, each pair as :func:`load_cifar10_batch` returns it.

    Training records come from data_batch_*.bin in sorted filename order,
    filling consecutive slices of one array; test records come from
    test_batch.bin. Limits keep the first N records.
    """
    train_files = sorted(glob.glob(os.path.join(data_dir, "data_batch_*.bin")))
    test_file = os.path.join(data_dir, "test_batch.bin")
    if not train_files or not os.path.exists(test_file):
        raise FileNotFoundError(
            f"{data_dir}: expected data_batch_*.bin and test_batch.bin"
        )
    return _load(train_files, train_limit), _load([test_file], test_limit)


def images_to_arrays(images):
    """The ``(x, y)`` pair a loader returned, as the same arrays, not copies.

    ``perfbench`` is its only caller: it times this call as a span.
    """
    x, y = images
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

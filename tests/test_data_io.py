import numpy as np
import pytest

from padlearn.data_io import (MetricsRow, images_to_arrays, load_cifar10_batch,
                              load_cifar10_dir, read_metrics_csv, read_ppm,
                              write_metrics_csv, write_ppm)
from padlearn.synthetic import make_synthetic_cifar


def _record(label, r, g, b):
    """One CIFAR-format record from per-plane byte values."""
    body = bytes([label]) + bytes([r] * 1024) + bytes([g] * 1024) + bytes([b] * 1024)
    assert len(body) == 3073
    return body


class TestCifarLoader:
    def test_two_record_fixture(self, tmp_path):
        path = tmp_path / "batch.bin"
        path.write_bytes(_record(3, 10, 20, 30) + _record(9, 1, 2, 3))
        x, y = load_cifar10_batch(path)
        assert list(y) == [3, 9]
        assert x.shape == (2, 32, 32, 3)
        assert np.all(x[0, :, :, 0] == np.float32(10 / 255))
        assert np.all(x[0, :, :, 1] == np.float32(20 / 255))
        assert np.all(x[0, :, :, 2] == np.float32(30 / 255))
        assert np.all(x[1, :, :, 2] == np.float32(3 / 255))

    def test_plane_position_mapping(self, tmp_path):
        body = bytearray(_record(0, 0, 0, 0))
        body[1 + 0 * 1024 + 0 * 32 + 1] = 77   # red plane, row 0, col 1
        body[1 + 1 * 1024 + 5 * 32 + 2] = 88   # green plane, row 5, col 2
        path = tmp_path / "batch.bin"
        path.write_bytes(bytes(body))
        x, _ = load_cifar10_batch(path)
        img = x[0]
        assert img[0, 1, 0] == np.float32(77 / 255)
        assert img[5, 2, 1] == np.float32(88 / 255)
        assert img[0, 1, 1] == 0.0

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x00" * 3072)
        with pytest.raises(ValueError):
            load_cifar10_batch(path)

    def test_bad_label(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(_record(9, 0, 0, 0).replace(b"\x09", b"\x0a", 1))
        with pytest.raises(ValueError):
            load_cifar10_batch(path)

    def test_order_preserving_and_deterministic(self, tmp_path):
        blob = b"".join(_record(i % 10, i, i, i) for i in range(12))
        path = tmp_path / "batch.bin"
        path.write_bytes(blob)
        x1, y1 = load_cifar10_batch(path)
        x2, y2 = load_cifar10_batch(path)
        assert np.array_equal(y1, y2) and np.array_equal(x1, x2)
        assert list(y1) == [i % 10 for i in range(12)]

    def _every_byte(self, tmp_path):
        # 256 records, record i holding byte (i + k) % 256 at offset k, so
        # every byte value appears in every plane
        rows = [bytes([i % 10]) + bytes((i + k) % 256 for k in range(3072))
                for i in range(256)]
        path = tmp_path / "batch.bin"
        path.write_bytes(b"".join(rows))
        raw = np.frombuffer(b"".join(rows), dtype=np.uint8).reshape(256, 3073)
        planes = raw[:, 1:].reshape(256, 3, 32, 32).transpose(0, 2, 3, 1)
        return path, planes.astype(np.float32) / np.float32(255)

    def test_pixels_are_float32_byte_over_255(self, tmp_path):
        path, expected = self._every_byte(tmp_path)
        x, _ = load_cifar10_batch(path)
        for image, want in zip(x, expected):
            assert image.dtype == np.float32
            assert image.tobytes() == want.tobytes()

    def test_arrays_are_float32_byte_over_255(self, tmp_path):
        path, expected = self._every_byte(tmp_path)
        x, y = load_cifar10_batch(path)
        assert x.dtype == np.float32 and y.dtype == np.int64
        assert x.tobytes() == expected.tobytes()
        assert list(y) == [i % 10 for i in range(256)]


def _patterned(first, count):
    """Records first..first+count-1; record i holds byte (7i + k) % 256 at
    pixel offset k and label i % 10, so every record differs."""
    return [bytes([i % 10]) + bytes((7 * i + k) % 256 for k in range(3072))
            for i in range(first, first + count)]


def _decoded(records):
    """Independent decode: (N, 32, 32, 3) float32 byte / 255 and labels."""
    pixels = [np.frombuffer(r[1:], dtype=np.uint8).reshape(3, 32, 32)
              .transpose(1, 2, 0).astype(np.float32) / np.float32(255)
              for r in records]
    return np.array(pixels, dtype=np.float32), [r[0] for r in records]


class TestTwoBatchFiles:
    """A directory of two data_batch files: 5 records, then 4."""

    @pytest.fixture
    def records(self, tmp_path):
        train = _patterned(0, 9)
        test = _patterned(100, 3)
        (tmp_path / "data_batch_1.bin").write_bytes(b"".join(train[:5]))
        (tmp_path / "data_batch_2.bin").write_bytes(b"".join(train[5:]))
        (tmp_path / "test_batch.bin").write_bytes(b"".join(test))
        return train, test

    @pytest.mark.parametrize("limit", [None, 3, 7])
    def test_arrays_match_the_record_bytes(self, tmp_path, records, limit):
        train, test = records
        kept = train if limit is None else train[:limit]
        for (x, y), want in zip(load_cifar10_dir(tmp_path, train_limit=limit),
                                (kept, test)):
            want_x, want_y = _decoded(want)
            assert x.dtype == np.float32 and y.dtype == np.int64
            assert x.shape == (len(want), 32, 32, 3)
            # channel-planar memory, as the per-image stack used to give:
            # a channel-last view of the one decoded array, not a copy
            assert x.strides == (12288, 128, 4, 4096)
            assert np.shares_memory(x, x.base) and x.base.shape == (len(want), 3, 32, 32)
            assert x.tobytes() == want_x.tobytes()
            assert list(y) == want_y

    def test_arrays_are_not_copies(self, tmp_path, records):
        # the one contract perfbench relies on: images_to_arrays hands back
        # the loader's own arrays
        train, _ = load_cifar10_dir(tmp_path)
        x, y = images_to_arrays(train)
        assert x is train[0] and y is train[1]


class TestPpm:
    def test_one_pixel_white(self, tmp_path):
        path = tmp_path / "w.ppm"
        write_ppm(np.ones((1, 1, 3)), path)
        assert path.read_bytes() == b"P6\n1 1\n255\n\xff\xff\xff"

    def test_black_white_column(self, tmp_path):
        path = tmp_path / "bw.ppm"
        write_ppm(np.array([[[0.0, 0.0, 0.0]], [[1.0, 1.0, 1.0]]]), path)
        assert path.read_bytes() == b"P6\n1 2\n255\n" + b"\x00" * 3 + b"\xff" * 3

    def test_round_half_up(self, tmp_path):
        path = tmp_path / "h.ppm"
        write_ppm(np.full((1, 1, 3), 0.5), path)
        assert path.read_bytes()[-3:] == bytes([128] * 3)

    def test_out_of_range(self, tmp_path):
        with pytest.raises(ValueError):
            write_ppm(np.full((1, 1, 3), 1.5), tmp_path / "x.ppm")
        with pytest.raises(ValueError):
            write_ppm(np.full((1, 1, 3), -0.1), tmp_path / "x.ppm")

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite(self, tmp_path, value):
        path = tmp_path / "x.ppm"
        with pytest.raises(ValueError, match="finite"):
            write_ppm(np.full((2, 2, 3), value), path)
        assert not path.exists()

    def test_one_nan_among_valid_values(self, tmp_path):
        img = np.full((2, 2, 3), 0.5)
        img[1, 0, 2] = np.nan
        with pytest.raises(ValueError):
            write_ppm(img, tmp_path / "x.ppm")

    def test_wrong_channels(self, tmp_path):
        with pytest.raises(ValueError):
            write_ppm(np.ones((2, 2, 4)), tmp_path / "x.ppm")

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        img = rng.integers(0, 256, size=(7, 5, 3)).astype(np.float32) / 255.0
        path = tmp_path / "rt.ppm"
        write_ppm(img, path)
        assert np.array_equal(read_ppm(path), img)

    @pytest.mark.parametrize("dims", [b"0 2", b"2 0", b"-1 2", b"2 -3"])
    def test_read_rejects_non_positive_dims(self, tmp_path, dims):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P6\n" + dims + b"\n255\n" + b"\x00" * 12)
        with pytest.raises(ValueError, match="must be positive"):
            read_ppm(path)

    def test_read_rejects_other_formats(self, tmp_path):
        path = tmp_path / "p3.ppm"
        path.write_bytes(b"P3\n1 1\n255\n0 0 0\n")
        with pytest.raises(ValueError):
            read_ppm(path)


def test_cifar_to_ppm_lossless(tmp_path):
    make_synthetic_cifar(tmp_path / "d", n_train=10, n_test=10, seed=5)
    (x, _), _ = load_cifar10_dir(tmp_path / "d")
    path = tmp_path / "img.ppm"
    write_ppm(x[0], path)
    assert np.array_equal(read_ppm(path), x[0])


class TestMetricsCsv:
    HEADER = "epoch,split,loss,accuracy,module_mse_mean,seconds"

    def test_empty(self, tmp_path):
        path = tmp_path / "m.csv"
        write_metrics_csv([], path)
        assert path.read_text() == self.HEADER + "\n"

    def test_one_row(self, tmp_path):
        path = tmp_path / "m.csv"
        write_metrics_csv([MetricsRow(1, "train", 2.25, 0.1, 0.05, 12.5)], path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[1] == "1,train,2.25,0.1,0.05,12.5"

    def test_round_trip(self, tmp_path):
        rows = [
            MetricsRow(1, "train", 2.25, 0.125, 0.0625, 3.5),
            MetricsRow(1, "test", 2.5, 0.25, 0.0625, 0.5),
            MetricsRow(2, "train", 1.75, 0.5, float("nan"), 3.25),
        ]
        path = tmp_path / "m.csv"
        write_metrics_csv(rows, path)
        back = read_metrics_csv(path)
        assert len(back) == 3
        for a, b in zip(rows, back):
            assert (a.epoch, a.split) == (b.epoch, b.split)
            for field in ("loss", "accuracy", "seconds"):
                assert getattr(a, field) == getattr(b, field)
        assert np.isnan(back[2].module_mse_mean)


class TestSynthetic:
    def test_deterministic(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        make_synthetic_cifar(a, n_train=30, n_test=10, seed=11)
        make_synthetic_cifar(b, n_train=30, n_test=10, seed=11)
        assert (a / "data_batch_1.bin").read_bytes() == (b / "data_batch_1.bin").read_bytes()
        assert (a / "test_batch.bin").read_bytes() == (b / "test_batch.bin").read_bytes()

    def test_loadable_and_balanced(self, tmp_path):
        make_synthetic_cifar(tmp_path / "d", n_train=100, n_test=20, seed=1)
        (x, y), (xt, yt) = load_cifar10_dir(tmp_path / "d")
        assert len(y) == 100 and len(yt) == 20
        assert x.shape == (100, 32, 32, 3) and xt.shape == (20, 32, 32, 3)
        assert x.min() >= 0.0 and x.max() <= 1.0
        assert np.array_equal(np.bincount(y, minlength=10), np.full(10, 10))

    def test_limits(self, tmp_path):
        make_synthetic_cifar(tmp_path / "d", n_train=50, n_test=20, seed=1)
        (x, y), (xt, yt) = load_cifar10_dir(tmp_path / "d", train_limit=8, test_limit=3)
        assert len(x) == len(y) == 8 and len(xt) == len(yt) == 3

"""The paper's fixed padding methods where they live: the network's
``ZeroPad`` layer and the zero, replicate, reflect and meaninterp methods of
``padlearn pad``."""
import numpy as np
import pytest

from padlearn.cli import main
from padlearn.data_io import read_ppm, write_ppm
from padlearn.nn.layers import ZeroPad
from padlearn.padding_module import PaddingModule


def seeded_ppm(path, h, w, seed):
    """Write an (h, w, 3) PPM of seeded bytes to `path`; returns the path."""
    rng = np.random.default_rng(seed)
    write_ppm(rng.integers(0, 256, size=(h, w, 3)).astype(np.float32) / 255.0, path)
    return path


def pad_cli(src, method, size, out):
    assert main(["pad", "--input", str(src), "--method", method,
                 "--size", str(size), "--output", str(out)]) == 0
    return out


class TestPadZero:
    def test_ring_of_zeros(self):
        out = ZeroPad(1).forward(np.ones((1, 2, 2, 1), dtype=np.float32))
        expected = np.zeros((1, 4, 4, 1), dtype=np.float32)
        expected[0, 1:3, 1:3, 0] = 1.0
        assert np.array_equal(out, expected)

    def test_shape_law(self):
        assert ZeroPad(5).forward(np.zeros((2, 32, 32, 3))).shape == (2, 42, 42, 3)

    def test_interior_round_trip(self):
        rng = np.random.default_rng(0)
        t = rng.uniform(size=(2, 5, 6, 3)).astype(np.float32)
        assert np.array_equal(ZeroPad(2).forward(t)[:, 2:-2, 2:-2], t)


class TestPadMeanInterp:
    def test_equals_frozen_module(self, tmp_path):
        src = seeded_ppm(tmp_path / "in.ppm", 6, 7, 3)
        out = pad_cli(src, "meaninterp", 2, tmp_path / "out.ppm")
        module = PaddingModule(3, pad_size=2).eval()
        write_ppm(np.clip(module.forward(read_ppm(src)), 0.0, 1.0), tmp_path / "want.ppm")
        assert out.read_bytes() == (tmp_path / "want.ppm").read_bytes()

    def test_shape_law(self, tmp_path):
        src = tmp_path / "in.ppm"
        write_ppm(np.zeros((32, 32, 3), dtype=np.float32), src)
        assert read_ppm(pad_cli(src, "meaninterp", 3, tmp_path / "out.ppm")).shape \
            == (38, 38, 3)


@pytest.mark.parametrize("method", [
    pytest.param("zero", id="zero"),
    pytest.param("replicate", id="replicate"),
    pytest.param("reflect", id="reflect"),
    pytest.param("meaninterp", id="mean_interp"),
])
@pytest.mark.parametrize("size", [1, 2])
def test_shape_and_round_trip_all_methods(method, size, tmp_path):
    src = seeded_ppm(tmp_path / "in.ppm", 6, 8, size)
    out = read_ppm(pad_cli(src, method, size, tmp_path / "out.ppm"))
    assert out.shape == (6 + 2 * size, 8 + 2 * size, 3)
    assert np.array_equal(out[size:-size, size:-size], read_ppm(src))
    with pytest.raises(SystemExit) as exc:
        main(["pad", "--input", str(src), "--method", method,
              "--size", "0", "--output", str(tmp_path / "zero.ppm")])
    assert exc.value.code == 2

import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from padlearn.cli import main
from padlearn.data_io import load_cifar10_dir, read_metrics_csv, read_ppm, write_ppm
from padlearn.padding_module import load_weights, save_weights
from padlearn.synthetic import main as synthetic_main
from padlearn.synthetic import make_synthetic_cifar

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(*argv):
    """`python -m padlearn.cli argv...` in a child process."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-m", "padlearn.cli", *argv],
                          capture_output=True, text=True, env=env)


@pytest.fixture
def image_ppm(tmp_path):
    rng = np.random.default_rng(0)
    img = rng.integers(0, 256, size=(32, 32, 3)).astype(np.float32) / 255.0
    path = tmp_path / "in.ppm"
    write_ppm(img, path)
    return path


@pytest.fixture(scope="module")
def tiny_data(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_data")
    make_synthetic_cifar(out, n_train=160, n_test=40, seed=7)
    return out


def test_version(capsys):
    assert main(["version"]) == 0
    assert "padlearn" in capsys.readouterr().out


class TestPadCommand:
    def test_zero_padding_shape_and_ring(self, image_ppm, tmp_path, capsys):
        out = tmp_path / "out.ppm"
        code = main(["pad", "--input", str(image_ppm), "--method", "zero",
                     "--size", "5", "--output", str(out)])
        assert code == 0
        assert "42x42x3" in capsys.readouterr().out
        padded = read_ppm(out)
        assert padded.shape == (42, 42, 3)
        assert np.all(padded[:5] == 0.0) and np.all(padded[:, :5] == 0.0)
        assert np.array_equal(padded[5:-5, 5:-5], read_ppm(image_ppm))

    @pytest.mark.parametrize("method", ["reflect", "replicate", "meaninterp"])
    def test_other_methods_shape_and_interior(self, image_ppm, tmp_path, method):
        out = tmp_path / "out.ppm"
        assert main(["pad", "--input", str(image_ppm), "--method", method,
                     "--size", "3", "--output", str(out)]) == 0
        padded = read_ppm(out)
        assert padded.shape == (38, 38, 3)
        assert np.array_equal(padded[3:-3, 3:-3], read_ppm(image_ppm))

    def test_module_with_mean_weights_equals_meaninterp(self, image_ppm, tmp_path):
        weights = tmp_path / "bank.padmod"
        save_weights(weights, np.full((3, 3), 1.0, dtype=np.float32) / 3)
        out_mod = tmp_path / "mod.ppm"
        out_mean = tmp_path / "mean.ppm"
        assert main(["pad", "--input", str(image_ppm), "--method", "module",
                     "--size", "4", "--weights", str(weights),
                     "--output", str(out_mod)]) == 0
        assert main(["pad", "--input", str(image_ppm), "--method", "meaninterp",
                     "--size", "4", "--output", str(out_mean)]) == 0
        assert out_mod.read_bytes() == out_mean.read_bytes()

    @staticmethod
    def pad_2x2(tmp_path, method):
        """Pad a 2x2 PPM whose channel c holds [[1, 2], [3, 4]] + 10c by one
        ring; returns the output bytes as (4, 4, 3) ints, less 10c."""
        src = tmp_path / "in.ppm"
        pixels = np.array([[1, 2], [3, 4]])[:, :, None] + 10 * np.arange(3)
        src.write_bytes(b"P6\n2 2\n255\n" + pixels.astype(np.uint8).tobytes())
        out = tmp_path / "out.ppm"
        assert main(["pad", "--input", str(src), "--method", method,
                     "--size", "1", "--output", str(out)]) == 0
        return np.rint(read_ppm(out) * 255).astype(int) - 10 * np.arange(3)

    def test_reflect_mirror_rule(self, tmp_path):
        # ring 1 repeats the row/column one inside the edge
        expected = np.array([
            [4, 3, 4, 3],
            [2, 1, 2, 1],
            [4, 3, 4, 3],
            [2, 1, 2, 1],
        ])
        got = self.pad_2x2(tmp_path, "reflect")
        assert all(np.array_equal(got[:, :, c], expected) for c in range(3))

    def test_replicate_nearest_edge(self, tmp_path):
        # corners copy the nearest corner
        expected = np.array([
            [1, 1, 2, 2],
            [1, 1, 2, 2],
            [3, 3, 4, 4],
            [3, 3, 4, 4],
        ])
        got = self.pad_2x2(tmp_path, "replicate")
        assert all(np.array_equal(got[:, :, c], expected) for c in range(3))

    def test_replicate_rings_compose(self, image_ppm, tmp_path):
        # two rings at once are one ring padded by one more
        def pad(src, size, out):
            assert main(["pad", "--input", str(src), "--method", "replicate",
                         "--size", str(size), "--output", str(out)]) == 0
            return out
        once = pad(pad(image_ppm, 1, tmp_path / "one.ppm"), 1, tmp_path / "once.ppm")
        assert pad(image_ppm, 2, tmp_path / "two.ppm").read_bytes() == once.read_bytes()

    @pytest.mark.parametrize("size", [3, 5])
    def test_reflect_size_not_below_side_is_contract_error(self, tmp_path, size, capsys):
        src = tmp_path / "in.ppm"
        write_ppm(np.full((3, 5, 3), 0.5), src)
        out = tmp_path / "o.ppm"
        assert main(["pad", "--input", str(src), "--method", "reflect",
                     "--size", str(size), "--output", str(out)]) == 1
        assert (f"reflect padding of {size} needs spatial dims > {size}, got 3x5"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_replicate_and_reflect_agree_on_constant(self, tmp_path):
        src = tmp_path / "in.ppm"
        write_ppm(np.full((4, 6, 3), 0.6), src)
        outs = [tmp_path / f"{method}.ppm" for method in ("replicate", "reflect")]
        for out in outs:
            assert main(["pad", "--input", str(src), "--method", out.stem,
                         "--size", "2", "--output", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_size_zero_is_usage_error(self, image_ppm, tmp_path):
        for method in ("zero", "reflect", "replicate", "meaninterp", "module"):
            with pytest.raises(SystemExit) as exc:
                main(["pad", "--input", str(image_ppm), "--method", method,
                      "--size", "0", "--output", str(tmp_path / "o.ppm")])
            assert exc.value.code == 2
        assert not (tmp_path / "o.ppm").exists()

    def test_module_without_weights_is_contract_error(self, image_ppm, tmp_path):
        code = main(["pad", "--input", str(image_ppm), "--method", "module",
                     "--size", "1", "--output", str(tmp_path / "o.ppm")])
        assert code == 1

    def test_non_finite_weights_are_contract_error(self, image_ppm, tmp_path, capsys):
        # written by hand: save_weights refuses non-finite weights
        bank = tmp_path / "nan.padmod"
        bank.write_bytes(b"PADMOD1\n" + (3).to_bytes(4, "little")
                         + np.full((3, 3), np.nan, dtype="<f4").tobytes())
        out = tmp_path / "o.ppm"
        code = main(["pad", "--input", str(image_ppm), "--method", "module",
                     "--size", "1", "--weights", str(bank), "--output", str(out)])
        assert code == 1
        assert f"{bank}: weights file holds non-finite values" in capsys.readouterr().err
        assert not out.exists()

    def test_weights_shorter_than_header_are_contract_error(self, image_ppm, tmp_path):
        bank = tmp_path / "short.padmod"
        bank.write_bytes(b"PADMOD1\n\x03")
        out = tmp_path / "o.ppm"
        done = run_cli("pad", "--input", str(image_ppm), "--method", "module",
                       "--size", "1", "--weights", str(bank), "--output", str(out))
        assert done.returncode == 1
        assert done.stderr.startswith("error: ")
        assert "Traceback" not in done.stderr
        assert not out.exists()

    def test_weights_channel_mismatch_is_contract_error(self, image_ppm, tmp_path, capsys):
        bank = tmp_path / "two.padmod"
        save_weights(bank, np.ones((2, 3), dtype=np.float32))
        out = tmp_path / "o.ppm"
        code = main(["pad", "--input", str(image_ppm), "--method", "module",
                     "--size", "1", "--weights", str(bank), "--output", str(out)])
        assert code == 1
        assert "channels" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_input_is_contract_error(self, tmp_path):
        code = main(["pad", "--input", str(tmp_path / "nope.ppm"),
                     "--method", "zero", "--size", "1",
                     "--output", str(tmp_path / "o.ppm")])
        assert code == 1

    def test_unknown_method_is_usage_error(self, image_ppm, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["pad", "--input", str(image_ppm), "--method", "bilinear",
                  "--size", "1", "--output", str(tmp_path / "o.ppm")])
        assert exc.value.code == 2


class TestGradcheckCommand:
    def test_passes_at_documented_tolerance(self, capsys):
        assert main(["gradcheck", "--trials", "5", "--tol", "1e-6",
                     "--seed", "3"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_fails_at_impossible_tolerance(self, capsys):
        assert main(["gradcheck", "--trials", "5", "--tol", "1e-12",
                     "--seed", "3"]) == 1
        header, *listed = capsys.readouterr().out.splitlines()
        # 5 filter-loss trials and the 14 layer cases
        found = re.fullmatch(r"FAIL: 19 gradient checks, max rel err (\S+) "
                             r"\(worst: (\S+)\) vs tol 1e-12", header)
        assert found
        assert len(listed) == 5
        cases = [re.fullmatch(r"  (.+): rel err (\S+)", line).groups() for line in listed]
        errs = [float(err) for _, err in cases]
        assert errs == sorted(errs, reverse=True)
        assert cases[0] == (found[2], found[1])

    def test_deterministic_output(self, capsys):
        main(["gradcheck", "--trials", "5", "--seed", "11"])
        first = capsys.readouterr().out
        main(["gradcheck", "--trials", "5", "--seed", "11"])
        assert capsys.readouterr().out == first


class TestTrainCommand:
    def test_short_run_writes_metrics_and_weights(self, tiny_data, tmp_path, capsys):
        metrics = tmp_path / "metrics.csv"
        weights = tmp_path / "bank.padmod"
        code = main(["train", "--data", str(tiny_data), "--padding", "module",
                     "--positions", "all", "--epochs", "2", "--batch", "32",
                     "--seed", "0", "--train-limit", "96", "--test-limit", "32",
                     "--metrics", str(metrics), "--save-weights", str(weights)])
        assert code == 0
        out = capsys.readouterr().out
        assert "last-5-epoch mean test accuracy" in out
        rows = read_metrics_csv(metrics)
        assert len([r for r in rows if r.split == "test"]) == 2
        bank = load_weights(weights)
        assert bank.shape == (3, 3)

    def test_missing_data_dir(self, tmp_path):
        assert main(["train", "--data", str(tmp_path / "none"),
                     "--epochs", "1"]) == 1

    def test_trained_weights_drive_pad_at_multiple_sizes(self, tiny_data, tmp_path):
        weights = tmp_path / "bank.padmod"
        assert main(["train", "--data", str(tiny_data), "--padding", "module",
                     "--positions", "first", "--epochs", "1", "--batch", "32",
                     "--train-limit", "64", "--test-limit", "16",
                     "--metrics", str(tmp_path / "m.csv"),
                     "--save-weights", str(weights)]) == 0
        src = tmp_path / "img.ppm"
        rng = np.random.default_rng(3)
        write_ppm(rng.integers(0, 256, size=(32, 32, 3)) / 255.0, src)
        for size in (1, 3, 5):
            for method, extra in (("zero", []), ("meaninterp", []),
                                  ("module", ["--weights", str(weights)])):
                out = tmp_path / f"{method}_{size}.ppm"
                assert main(["pad", "--input", str(src), "--method", method,
                             "--size", str(size), "--output", str(out)] + extra) == 0
                side = 32 + 2 * size
                assert read_ppm(out).shape == (side, side, 3)

    def test_save_weights_needs_a_module(self, tiny_data, tmp_path, capsys):
        # refused before any data is loaded: no training, no metrics file
        for padding in ("zero", "meaninterp"):
            metrics = tmp_path / f"{padding}.csv"
            with mock.patch("padlearn.cli.load_cifar10_dir",
                            side_effect=AssertionError("data loaded")):
                code = main(["train", "--data", str(tiny_data), "--padding", padding,
                             "--epochs", "1", "--train-limit", "64",
                             "--test-limit", "16", "--metrics", str(metrics),
                             "--save-weights", str(tmp_path / "w.padmod")])
            assert code == 1
            err = capsys.readouterr().err
            assert "--save-weights needs at least one placed module" in err
            assert not metrics.exists()
            assert not (tmp_path / "w.padmod").exists()

    def test_unknown_flag_rejected(self, tiny_data):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--data", str(tiny_data), "--turbo"])
        assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["train", "--lr", "nan"], ["train", "--lr", "-1"], ["train", "--lr", "0"],
    ["train", "--module-lr", "inf"], ["train", "--module-lr", "-0.01"],
    ["gradcheck", "--tol", "nan"], ["gradcheck", "--tol", "0"],
    ["gradcheck", "--tol", "x"], ["train", "--seed", "-1"],
    ["gradcheck", "--seed", "-7"],
], ids=lambda argv: f"{argv[1][2:]}={argv[2]}")
def test_rates_and_tolerance_must_be_positive(tmp_path, argv, capsys):
    if argv[0] == "train":
        argv = argv + ["--data", str(tmp_path), "--metrics", str(tmp_path / "m.csv")]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert argv[1] in capsys.readouterr().err
    assert not (tmp_path / "m.csv").exists()


class TestSyntheticCommand:
    def test_writes_loadable_seeded_corpus(self, tmp_path, capsys):
        argv = ["--train", "20", "--test", "10", "--seed", "1"]
        assert synthetic_main(["--out", str(tmp_path / "a")] + argv) == 0
        assert synthetic_main(["--out", str(tmp_path / "b")] + argv) == 0
        assert "20 train / 10 test" in capsys.readouterr().out
        (x, _), (xt, _) = load_cifar10_dir(tmp_path / "a")
        assert (len(x), len(xt)) == (20, 10)
        for name in ("data_batch_1.bin", "test_batch.bin"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    @pytest.mark.parametrize("flag,count", [("--train", "-3"), ("--test", "0"),
                                            ("--seed", "-1")])
    def test_non_positive_count_is_usage_error(self, tmp_path, flag, count):
        argv = ["--out", str(tmp_path / "d"), "--train", "4", "--test", "2",
                "--seed", "1"]
        argv[argv.index(flag) + 1] = count
        with pytest.raises(SystemExit) as exc:
            synthetic_main(argv)
        assert exc.value.code == 2
        assert not (tmp_path / "d").exists()

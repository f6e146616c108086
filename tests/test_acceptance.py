"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The placement ablation
(criterion 8) is opt-in: set PADLEARN_ABLATION=1.
"""

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from unittest import mock

import numpy as np
import pytest

from conftest import IDENTITY, M4, module_with, random_module
from padlearn.data_io import (load_cifar10_batch, load_cifar10_dir, read_metrics_csv,
                              write_metrics_csv, write_ppm)
from padlearn.nn.gradcheck import module_gradient_suite
from padlearn.nn.network import NetworkSpec
from padlearn.nn.train import last5_mean_test_accuracy, train
from padlearn.padding_module import (_pair_stats, _pairs, _predict, _reflected, _taps,
                                     load_weights, save_weights)


def report(num, name, ok, detail=""):
    suffix = f"  ({detail})" if detail else ""
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}{suffix}"
    print("\n" + line)
    assert ok, line


def as_lists(*pairs):
    """Stacked (1, 2, L, 1) kernel rows as lists: top, bottom, left, right."""
    return [list(r) for pair in pairs for r in pair[0, :, :, 0]]


def test_criterion_01_construction_oracle():
    (t_tb, r_tb), (t_lr, r_lr) = _pairs(M4[None, :, :, None])
    ok = (
        as_lists(t_tb, t_lr)
        == [[1, 2, 3, 4], [13, 14, 15, 16], [1, 5, 9, 13], [4, 8, 12, 16]]
        and as_lists(r_tb, r_lr)
        == [[6, 7], [10, 11], [6, 10], [7, 11]]
        and as_lists(_reflected(r_tb), _reflected(r_lr))
        == [[0, 7, 6, 7, 6, 0], [0, 11, 10, 11, 10, 0],
            [0, 10, 6, 10, 6, 0], [0, 11, 7, 11, 7, 0]]
    )
    report(1, "construction oracle", ok)


def test_criterion_02_gradient_suite():
    worst = max(c.max_rel_err for c in module_gradient_suite(trials=100, seed=0))
    report(2, "gradient suite", worst <= 1e-6,
           f"100 instances, max rel err {worst:.3e} <= 1e-6")


def test_criterion_03_worked_loss_oracle():
    x = M4[None, :, :, None]
    identity = np.array([IDENTITY])
    mean = _pair_stats(identity, x)[0][0]
    taps = _taps(identity, np.float64, 4)
    total = sum(float(np.sum((_predict(taps, rows)[0] - target) ** 2))
                for target, rows in _pairs(x))
    report(3, "worked-loss oracle", mean == 25.5 and total == 408.0 == 16 * mean,
           f"mean {mean}, sum {total}")


def test_criterion_04_forward_oracle():
    ok = True
    for size in (1, 2, 3):
        mod = module_with(IDENTITY, pad_size=size).eval()
        out = mod.forward(np.full((3, 3), 5.0))
        side = 3 + 2 * size
        ok = ok and out.shape == (side, side) and bool(np.all(out == 5.0))

    mod = module_with([1.0 / 3.0] * 3).eval()
    out = mod.forward(np.full((3, 3), 5.0))
    third = np.float64(1.0) / 3
    end = third * 0.0 + third * 5.0 + third * 5.0  # same order as the filter slide
    expected = np.full((5, 5), 5.0)
    for line in (expected[0], expected[-1], expected[:, 0], expected[:, -1]):
        line[0] = end
        line[-1] = end
    ok = ok and bool(np.array_equal(out, expected))
    report(4, "forward oracle", ok,
           "identity sizes 1-3 constant; mean-filter borders bit-exact")


def test_criterion_05_backward_contract():
    rng = np.random.default_rng(5)
    ok = True
    for size in (1, 2, 3):
        mod = module_with([0.2, 0.5, 0.3], channels=2, pad_size=size)
        x = rng.uniform(size=(2, 9, 8, 2))
        out = mod.forward(x)
        g = rng.uniform(size=out.shape)
        got = mod.backward(g)
        ok = ok and bool(np.array_equal(got, g[:, size:-size, size:-size, :]))

    # filters change iff train mode with cache present
    mod = module_with([0.9, -0.2, 0.1])
    before = mod.filters.weights.copy()
    out = mod.forward(rng.uniform(size=(6, 6)))
    mod.backward(rng.uniform(size=out.shape))
    changed_in_train = not np.array_equal(mod.filters.weights, before)

    mod_eval = module_with([0.9, -0.2, 0.1]).eval()
    before = mod_eval.filters.weights.copy()
    out = mod_eval.forward(rng.uniform(size=(6, 6)))
    mod_eval.backward(rng.uniform(size=out.shape))
    unchanged_in_eval = np.array_equal(mod_eval.filters.weights, before)

    mod_nocache = module_with([0.9, -0.2, 0.1])
    try:
        mod_nocache.backward(np.ones((6, 6)))
        raises_without_forward = False
    except RuntimeError:
        raises_without_forward = True

    ok = ok and changed_in_train and unchanged_in_eval and raises_without_forward
    report(5, "backward contract", ok,
           "strip bit-exact s=1..3; update iff train+cache")


def test_criterion_06_mse_collapse(batch64):
    module = random_module(3, seed=123, learning_rate=0.01)
    initial = module.supervision_mse(batch64)
    for _ in range(2):  # two epochs, one local update per image
        for i in range(len(batch64)):
            module.train()
            module.forward(batch64[i])
            module.local_update()
    final = module.supervision_mse(batch64)
    report(6, "mse collapse", final <= 0.5 * initial,
           f"mean module MSE {initial:.5f} -> {final:.5f} "
           f"({final / initial:.3f}x) after 2 epochs")


def desk_arrays(cifar_dir):
    """(x_train, y_train, x_test, y_test) at the full desk scale."""
    (x, y), (xt, yt) = load_cifar10_dir(cifar_dir, train_limit=5000, test_limit=1000)
    return x, y, xt, yt


def desk_accuracy(padding, cifar_dir):
    """Last-5-epoch mean test accuracy of a seeded 10-epoch desk-scale run."""
    x, y, xt, yt = desk_arrays(cifar_dir)
    _, rows = train(NetworkSpec(padding=padding, positions="all"), x, y, xt, yt,
                    epochs=10, batch_size=64, seed=0, learning_rate=1e-3)
    return last5_mean_test_accuracy(rows)


def side_by_side(run, paddings, cifar_dir):
    """``run(padding, cifar_dir)`` for each padding, as a dict.

    The runs go side by side in fresh processes, each loading the data
    itself and pinned to one BLAS thread, so each is bit-identical to a
    sequential one-thread run whatever the host's default thread count.
    """
    one_thread = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    with mock.patch.dict(os.environ, one_thread), ProcessPoolExecutor(
            len(paddings), mp_context=multiprocessing.get_context("spawn")) as pool:
        return dict(zip(paddings, pool.map(run, paddings, [cifar_dir] * len(paddings))))


@pytest.mark.slow
def test_criterion_07_classification_non_inferiority(cifar_dir):
    accs = side_by_side(desk_accuracy, ("zero", "module"), cifar_dir)
    margin = (accs["module"] - accs["zero"]) * 100
    report(7, "classification non-inferiority", margin >= -1.0,
           f"module {accs['module']:.4f} vs zero {accs['zero']:.4f}, "
           f"margin {margin:+.2f} points (assert >= -1.0)")


@pytest.mark.ablation
@pytest.mark.skipif(not os.environ.get("PADLEARN_ABLATION"),
                    reason="placement ablation is opt-in: set PADLEARN_ABLATION=1")
def test_criterion_08_placement_ablation(cifar_dir, tmp_path):
    x, y, xt, yt = desk_arrays(cifar_dir)
    scenarios = [("zero", "all"), ("module", "first"), ("module", "middle"),
                 ("module", "last"), ("module", "comb"), ("module", "all")]
    summary = []
    ok = True
    for padding, positions in scenarios:
        name = "zero" if padding == "zero" else positions
        spec = NetworkSpec(padding=padding, positions=positions)
        _, rows = train(spec, x, y, xt, yt, epochs=10, batch_size=64, seed=0,
                        learning_rate=1e-3)
        path = tmp_path / f"ablation_{name}.csv"
        write_metrics_csv(rows, path)
        epochs = [r.epoch for r in read_metrics_csv(path) if r.split == "test"]
        ok = ok and epochs == list(range(1, 11))
        summary.append((name, last5_mean_test_accuracy(rows)))
    print("\n  placement ablation (last-5-epoch mean test accuracy):")
    for name, acc in sorted(summary, key=lambda kv: -kv[1]):
        print(f"    {name:8s} {acc:.4f}")
    report(8, "placement ablation", ok,
           "6 scenarios complete with contiguous epochs; ordering reported above")


def anchor_run(padding, cifar_dir):
    """(each row's (loss, accuracy), the parameters) of a seeded 4-epoch
    run; a module run freezes its filters from the start."""
    (x, y), (xt, yt) = load_cifar10_dir(cifar_dir, train_limit=1000, test_limit=256)
    net, rows = train(NetworkSpec(padding=padding, positions="all"),
                      x, y, xt, yt, epochs=4, batch_size=64, seed=0, learning_rate=1e-3,
                      freeze_after=0 if padding == "module" else None)
    return [(r.loss, r.accuracy) for r in rows], net.params()


def test_criterion_09_differential_anchor(cifar_dir):
    runs = side_by_side(anchor_run, ("module", "meaninterp"), cifar_dir)
    (rows_m, params_m), (rows_i, params_i) = runs["module"], runs["meaninterp"]
    rows_equal = all(rm == ri for rm, ri in zip(rows_m, rows_i))
    params_equal = all(np.array_equal(pm, pi)
                       for pm, pi in zip(params_m, params_i))
    report(9, "differential anchor", rows_equal and params_equal,
           "frozen-module and mean-interp training curves bit-identical")


def test_criterion_10_format_fixtures(tmp_path):
    # CIFAR record fixture: 2 hand-built 3073-byte records
    record = bytes([4]) + bytes([10] * 1024) + bytes([20] * 1024) + bytes([30] * 1024)
    record2 = bytes([7]) + bytes(range(256)) * 4 + bytes([0] * 2048)
    batch = tmp_path / "fixture.bin"
    batch.write_bytes(record + record2)
    x, y = load_cifar10_batch(batch)
    cifar_ok = (
        len(y) == 2
        and y[0] == 4 and y[1] == 7
        and bool(np.all(x[0, :, :, 1] == np.float32(20 / 255)))
        and x[1, 0, 1, 0] == np.float32(1 / 255)
    )

    # PPM byte layout
    ppm = tmp_path / "f.ppm"
    write_ppm(np.array([[[0.0, 0.5, 1.0]]]), ppm)
    ppm_ok = ppm.read_bytes() == b"P6\n1 1\n255\n" + bytes([0, 128, 255])

    # weights-file round trip
    bank = np.array([[0.25, -0.5, 1.0], [0.125, 0.0, -1.0]], dtype=np.float32)
    wpath = tmp_path / "bank.padmod"
    save_weights(wpath, bank)
    blob = wpath.read_bytes()
    weights_ok = (
        blob[:8] == b"PADMOD1\n"
        and blob[8:12] == (2).to_bytes(4, "little")
        and np.array_equal(load_weights(wpath), bank)
    )
    report(10, "format fixtures", cifar_ok and ppm_ok and weights_ok,
           "CIFAR record parse, PPM bytes, weights round-trip all bit-exact")

"""Deterministic training loop with per-epoch metrics.

Given the same seed (and thread count) two runs produce bit-identical
parameters and metrics: weights are initialized from one seeded generator,
the training subset is shuffled once, and the same batch partition is
reused every epoch so no randomness enters the epoch loop.
"""

from __future__ import annotations

import time

import numpy as np

from ..data_io import MetricsRow
from .layers import softmax_xent
from .network import build_tiny4
from .optim import Adam


# the eval chunk is the training batch size: with 256-image chunks a pass
# spent a fifth of its time in the kernel, faulting in fresh pages for the
# larger arrays (one BLAS thread, 2-vCPU host)
EVAL_BATCH = 64


def evaluate(net, x, y):
    """Mean loss and accuracy of `net` over (x, y), in eval mode, in
    chunks of ``EVAL_BATCH`` images."""
    net.eval()
    n = len(x)
    loss_sum = 0.0
    correct = 0
    for start in range(0, n, EVAL_BATCH):
        xb = x[start : start + EVAL_BATCH]
        yb = y[start : start + EVAL_BATCH]
        logits = net.forward(xb)
        loss, _ = softmax_xent(logits, yb)
        loss_sum += loss * len(xb)
        correct += int((logits.argmax(axis=1) == yb).sum())
    return loss_sum / n, correct / n


def last5_mean_test_accuracy(rows):
    """Mean test accuracy over the last five epochs of `train`'s rows."""
    accs = [r.accuracy for r in rows if r.split == "test"]
    return float(np.mean(accs[-5:]))


def train(spec, x_train, y_train, x_test, y_test, epochs, batch_size, seed,
          learning_rate, freeze_after=None, log=None):
    """Train tiny4 per `spec`; returns `(net, rows)`, the trained network
    and a train row and a test row of metrics per epoch.

    `freeze_after=k` holds the padding modules in eval mode from the start
    of epoch k+1 (0 from the start), so their filters stop training; their
    last mean squared error is then carried forward in the metrics.
    """
    if len(x_train) == 0:
        raise ValueError("empty training set")
    net = build_tiny4(spec, seed)
    optimizer = Adam(learning_rate)
    perm = np.random.default_rng(seed).permutation(len(x_train))
    batches = [perm[i : i + batch_size] for i in range(0, len(perm), batch_size)]

    rows = []
    for epoch in range(1, epochs + 1):
        # the modules freeze together, so they train for all of an epoch or none
        frozen = freeze_after is not None and epoch > freeze_after
        net.train()
        if frozen:
            for m in net.modules:
                m.eval()
        epoch_start = time.perf_counter()
        loss_sum = 0.0
        correct = 0
        mse_sums = [0.0] * len(net.modules)
        for b, idx in enumerate(batches):
            xb = x_train[idx]
            yb = y_train[idx]
            logits = net.forward(xb)
            loss, dlogits = softmax_xent(logits, yb)
            if not np.isfinite(loss):
                raise FloatingPointError(
                    f"training diverged: non-finite loss at epoch {epoch}, batch {b}"
                )
            loss_sum += loss * len(xb)
            correct += int((logits.argmax(axis=1) == yb).sum())
            net.backward(dlogits)
            optimizer.step(net.params(), net.grads())
            if not frozen:
                for i, m in enumerate(net.modules):
                    mse_sums[i] += m.last_local_mse * len(xb)
        train_seconds = time.perf_counter() - epoch_start
        if frozen:
            mse_values = [m.last_local_mse for m in net.modules]
        else:
            mse_values = [total / len(x_train) for total in mse_sums]
        module_mse = float(np.mean(mse_values)) if mse_values else float("nan")

        eval_start = time.perf_counter()
        test_loss, test_acc = evaluate(net, x_test, y_test)
        eval_seconds = time.perf_counter() - eval_start

        rows.append(MetricsRow(epoch, "train", loss_sum / len(x_train),
                               correct / len(x_train), module_mse, train_seconds))
        rows.append(MetricsRow(epoch, "test", test_loss, test_acc, module_mse,
                               eval_seconds))
        if log is not None:
            log(f"epoch {epoch:3d}  train_loss {loss_sum / len(x_train):.4f}  "
                f"train_acc {correct / len(x_train):.4f}  test_acc {test_acc:.4f}  "
                f"module_mse {module_mse:.6g}  {train_seconds:.1f}s")

    return net, rows

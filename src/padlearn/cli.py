"""Command-line entry points: pad images, train the classifier, check gradients.

Exit codes: 0 success, 1 contract error (bad file, undersized input,
divergence), 2 usage error (argparse rejects the flags).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import __version__
from .data_io import load_cifar10_dir, read_ppm, write_metrics_csv, write_ppm
from .nn.gradcheck import layer_gradient_suite, module_gradient_suite
from .nn.network import PADDINGS, PLACEMENTS, NetworkSpec
from .nn.train import last5_mean_test_accuracy, train
from .padding_module import PaddingModule, load_weights, save_weights

# the `np.pad` mode of each fixed method; meaninterp is an eval-mode module
# at its mean-filter start and module is an eval-mode module with filters
# read from a weights file
NP_PAD_MODES = {"zero": "constant", "reflect": "reflect", "replicate": "edge"}


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _positive_float(text):
    value = float(text)
    if not (np.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {value}")
    return value


def _non_negative_int(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser():
    parser = argparse.ArgumentParser(prog="padlearn")
    sub = parser.add_subparsers(dest="command", required=True)

    p_pad = sub.add_parser("pad", help="pad a PPM image with a chosen method")
    p_pad.add_argument("--input", required=True)
    p_pad.add_argument("--method", required=True,
                       choices=[*NP_PAD_MODES, "meaninterp", "module"])
    p_pad.add_argument("--size", required=True, type=_positive_int)
    p_pad.add_argument("--weights", default=None,
                       help="filter weights file (required for --method module)")
    p_pad.add_argument("--output", required=True)

    p_train = sub.add_parser("train", help="train the tiny4 classifier")
    p_train.add_argument("--data", required=True, help="directory of CIFAR-10 binary batches")
    p_train.add_argument("--padding", default="zero", choices=PADDINGS)
    p_train.add_argument("--positions", default="all", choices=list(PLACEMENTS))
    p_train.add_argument("--epochs", type=_positive_int, default=10)
    p_train.add_argument("--batch", type=_positive_int, default=64)
    p_train.add_argument("--seed", type=_non_negative_int, default=0)
    p_train.add_argument("--lr", type=_positive_float, default=1e-3)
    p_train.add_argument("--module-lr", type=_positive_float, default=0.01)
    p_train.add_argument("--freeze-after", type=_non_negative_int, default=None,
                         help="stop the padding modules' own training after this epoch")
    p_train.add_argument("--train-limit", type=_positive_int, default=5000)
    p_train.add_argument("--test-limit", type=_positive_int, default=1000)
    p_train.add_argument("--metrics", default="metrics.csv")
    p_train.add_argument("--save-weights", default=None,
                         help="write the first placed module's filters here")

    p_grad = sub.add_parser("gradcheck", help="finite-difference gradient suites")
    p_grad.add_argument("--trials", type=_positive_int, default=100)
    p_grad.add_argument("--tol", type=_positive_float, default=1e-6)
    p_grad.add_argument("--seed", type=_non_negative_int, default=0)

    sub.add_parser("version", help="print the package version")
    return parser


def cmd_pad(args):
    image = read_ppm(args.input)
    s = args.size
    if args.method in NP_PAD_MODES:
        h, w, _ = image.shape
        if args.method == "reflect" and s >= min(h, w):
            raise ValueError(
                f"reflect padding of {s} needs spatial dims > {s}, got {h}x{w}"
            )
        padded = np.pad(image, ((s, s), (s, s), (0, 0)), mode=NP_PAD_MODES[args.method])
    else:
        module = PaddingModule(image.shape[2], pad_size=s).eval()
        if args.method == "module":
            if args.weights is None:
                raise ValueError("--method module requires --weights")
            weights = load_weights(args.weights)
            if weights.shape[0] != image.shape[2]:
                raise ValueError(
                    f"weights file has {weights.shape[0]} channels, image has {image.shape[2]}"
                )
            module.filters.weights = weights
        padded = module.forward(image)
    write_ppm(np.clip(padded, 0.0, 1.0), args.output)
    h, w, c = padded.shape
    print(f"{args.output}: {h}x{w}x{c}")
    return 0


def cmd_train(args):
    if args.save_weights is not None and args.padding != "module":
        raise ValueError("--save-weights needs at least one placed module")
    (x_train, y_train), (x_test, y_test) = load_cifar10_dir(
        args.data, train_limit=args.train_limit, test_limit=args.test_limit
    )
    spec = NetworkSpec(padding=args.padding, positions=args.positions,
                       module_lr=args.module_lr)
    net, rows = train(spec, x_train, y_train, x_test, y_test,
                      epochs=args.epochs, batch_size=args.batch,
                      seed=args.seed, learning_rate=args.lr,
                      freeze_after=args.freeze_after, log=print)
    write_metrics_csv(rows, args.metrics)
    if args.save_weights is not None:
        save_weights(args.save_weights, net.modules[0].filters.weights)
    print(f"last-5-epoch mean test accuracy: {last5_mean_test_accuracy(rows):.4f}")
    return 0


def cmd_gradcheck(args):
    cases = (module_gradient_suite(trials=args.trials, seed=args.seed)
             + layer_gradient_suite(args.seed))
    ranked = sorted(cases, key=lambda c: -c.max_rel_err)
    worst = ranked[0]
    passed = worst.max_rel_err <= args.tol
    print(f"{'PASS' if passed else 'FAIL'}: {len(cases)} gradient checks, max rel err "
          f"{worst.max_rel_err:.3e} (worst: {worst.name}) vs tol {args.tol:g}")
    if not passed:
        for case in ranked[:5]:
            print(f"  {case.name}: rel err {case.max_rel_err:.3e}")
        return 1
    return 0


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "pad":
            return cmd_pad(args)
        if args.command == "train":
            return cmd_train(args)
        if args.command == "gradcheck":
            return cmd_gradcheck(args)
        print(f"padlearn {__version__}")
        return 0
    except (ValueError, OSError, FloatingPointError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

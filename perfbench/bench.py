"""The workloads: inputs made from the seed, set-up, timed rounds, checks.

Every workload runs the same four operations in whole rounds until the time
is up; the workloads differ in the tiny4 network's padding and in how many
of each operation a round holds (see ``MIXES`` and README.md):

* ``step``: one batch-64 training step, the sequence ``nn.train.train``
  runs for one batch;
* ``eval``: one ``nn.train.evaluate`` pass over the held-out images;
* ``pad``: a standalone ``PaddingModule`` forward plus backward (the local
  update) at each of the four tiny4 conv input shapes;
* ``ring``: one 32x32 RGB image padded by a frozen module through
  ``cli.cmd_pad``, the ``padlearn pad --method module`` path, once per ring
  count in ``RINGS``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import os
import resource
import statistics
import time
import tracemalloc
import types
from dataclasses import dataclass

import numpy as np

from padlearn import cli, data_io
from padlearn.nn import (Adam, Conv2D, Dense, Flatten, MaxPool2x2, NetworkSpec,
                         ReLU, build_tiny4, evaluate, softmax_xent)
from padlearn.padding_module import PaddingModule, save_weights
from padlearn.synthetic import make_synthetic_cifar

import reference
from spans import AllocMeter, NoTrace, Tracer, durations, per_root_median, summary

BATCH = 64
N_TRAIN = 2048
N_TEST = 256
SHAPES = ((32, 32, 3), (16, 16, 16), (8, 8, 32), (8, 8, 64))  # tiny4 conv inputs
RINGS = (1, 2, 4, 8)
N_IMAGES = 16  # PPM inputs the ring operation cycles through
MAP_BATCHES = 2  # distinct batch-64 maps per shape for the pad operation
SETUP_REPEATS = 15
# training steps after which the held-out accuracy stays above chance on
# every seed tried; a run that trains fewer is topped up, untimed, before
# the accuracy check. Between 60 and 110 steps it swings from step to step
# by up to 0.15 and falls below chance on some seeds, so a check there would
# pass or fail with the number of steps a run happens to time
ACCURACY_STEPS = 150
MSE_IMAGES = 64  # held-out images the network modules' supervision error is taken on
LEARNING_RATE = 1e-3
MODULE_LR = 0.01


@dataclass(frozen=True)
class Mix:
    """How many of each operation one round of a workload runs."""

    padding: str  # padding of the tiny4 network at all four convs
    steps: int
    eval_images: int  # held-out images in the round's one eval pass
    pad_ops: int
    ring_groups: int  # each group pads one image per ring count

    @property
    def ops(self):
        return self.steps + 1 + self.pad_ops * len(SHAPES) + self.ring_groups * len(RINGS)


MIXES = {
    "train_zero": Mix("zero", steps=6, eval_images=256, pad_ops=4, ring_groups=8),
    "train_module": Mix("module", steps=6, eval_images=256, pad_ops=4, ring_groups=8),
    "pad_module": Mix("module", steps=1, eval_images=64, pad_ops=12, ring_groups=4),
}

# the library functions the benchmark calls, and the span name of each
CALLS = {
    "load_cifar10_dir": (data_io.load_cifar10_dir, "data_io.load"),
    "images_to_arrays": (data_io.images_to_arrays, "data_io.to_arrays"),
    "softmax_xent": (softmax_xent, "loss"),
    "evaluate": (evaluate, "evaluate"),
}

# what `cli.cmd_pad` calls, traced where the cli module looks them up
CLI_CALLS = {
    "read_ppm": "data_io.read_ppm",
    "write_ppm": "data_io.write_ppm",
    "load_weights": "padding_module.load_weights",
}

_PREFIX = {Conv2D: "conv", ReLU: "relu", MaxPool2x2: "pool", Dense: "dense",
           Flatten: "flatten"}


def library_calls():
    """The library functions as attributes of one object the tracer can wrap."""
    return types.SimpleNamespace(**{attr: fn for attr, (fn, _) in CALLS.items()})


class CheckFailed(Exception):
    pass


def require(ok, what):
    if not ok:
        raise CheckFailed(what)


# --- inputs ------------------------------------------------------------------


@dataclass
class Inputs:
    corpus: str
    maps: list  # per shape, MAP_BATCHES arrays (64, H, W, C)
    grads: list  # per shape, the gradient fed to the padded output
    images: list  # PPM paths
    weights: str  # filter weights file for the ring operation
    bank: np.ndarray  # the filter weights that file holds
    workdir: str


def prepare(workdir, seed):
    """Make every input from `seed`: corpus, feature maps, images, weights."""
    corpus = os.path.join(workdir, "corpus")
    make_synthetic_cifar(corpus, n_train=N_TRAIN, n_test=N_TEST, seed=seed)
    train, test = data_io.load_cifar10_dir(corpus)
    x_train, _ = data_io.images_to_arrays(train)
    x_test, _ = data_io.images_to_arrays(test)
    rng = np.random.default_rng(seed)

    # the maps tiny4 feeds its four pads, from an untrained network
    net = build_tiny4(NetworkSpec(padding="zero"), seed)
    maps = [[] for _ in SHAPES]
    for _ in range(MAP_BATCHES):
        h = x_train[rng.choice(N_TRAIN, BATCH, replace=False)]
        conv = 0
        for layer in net.layers:
            if isinstance(layer, Conv2D):
                maps[conv].append(h)
                conv += 1
                if conv == len(SHAPES):
                    break
            h = layer.forward(h)
    grads = [rng.normal(size=(BATCH, h + 2, w + 2, c)).astype(np.float32)
             for h, w, c in SHAPES]

    images = []
    for i in range(N_IMAGES):
        path = os.path.join(workdir, f"in-{i}.ppm")
        data_io.write_ppm(x_test[i], path)
        images.append(path)
    weights = os.path.join(workdir, "bank.padmod")
    bank = (1 / 3 + rng.uniform(-0.05, 0.05, size=(3, 3))).astype(np.float32)
    save_weights(weights, bank)
    return Inputs(corpus, maps, grads, images, weights, bank, workdir)


# --- set-up ------------------------------------------------------------------


@dataclass
class State:
    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray  # the whole held-out split
    y_test: np.ndarray
    net: object
    optimizer: Adam
    pads: list  # standalone modules, one per conv input shape


def set_up(calls, corpus, mix, seed):
    """Load the corpus through data_io and build the network and modules."""
    train, test = calls.load_cifar10_dir(corpus)
    x_train, y_train = calls.images_to_arrays(train)
    x_test, y_test = calls.images_to_arrays(test)
    net = build_tiny4(NetworkSpec(padding=mix.padding, positions="all",
                                  module_lr=MODULE_LR), seed)
    pads = [PaddingModule(c, pad_size=1, learning_rate=MODULE_LR) for _, _, c in SHAPES]
    return State(x_train, y_train, x_test, y_test, net, Adam(LEARNING_RATE), pads)


def check_loaded(state, corpus):
    """The loaded arrays against a separate decode of the record bytes."""
    for name, x, y in (("data_batch_1.bin", state.x_train, state.y_train),
                       ("test_batch.bin", state.x_test, state.y_test)):
        with open(os.path.join(corpus, name), "rb") as f:
            blob = f.read()
        for start in range(0, len(y), 256):
            stop = min(start + 256, len(y))
            ref_x, ref_y = reference.decode_records(blob, start, stop)
            require(np.array_equal(y[start:stop], ref_y), f"{name}: labels differ")
            require(reference.close(x[start:stop], ref_x, 1e-7),
                    f"{name}: pixels differ from the record bytes")


def layer_names(net):
    """(object, name) for each tiny4 layer and each conv's padding."""
    counts = {}
    for layer in net.layers:
        prefix = _PREFIX[type(layer)]
        index = counts.get(prefix, 0)
        counts[prefix] = index + 1
        yield layer, f"{prefix}{index}"
        if isinstance(layer, Conv2D):
            yield layer.padding, f"pad{index}"


# --- the timed operations ----------------------------------------------------


class Run:
    """Runs rounds of one workload and keeps their timings and outputs."""

    def __init__(self, mix, inputs, state, calls, seed):
        self.mix = mix
        self.inputs = inputs
        self.state = state
        self.calls = calls
        order = np.random.default_rng(seed).permutation(len(state.x_train))
        self.batches = [order[i:i + BATCH] for i in range(0, len(order), BATCH)]
        self.x_eval = state.x_test[:mix.eval_images]
        self.y_eval = state.y_test[:mix.eval_images]
        self.counter = {"step": 0, "pad": 0, "ring": 0}
        self.samples = new_samples()
        self.losses = []
        self.correct = 0
        self.first_pad = None  # (x, weights before, weights after) per shape
        self.ring_sources = {}  # ring count -> input of its latest output

    def round(self, spans):
        self.state.net.train()
        for _ in range(self.mix.steps):
            self.step(spans)
        self.eval_pass(spans)
        for _ in range(self.mix.pad_ops):
            self.pad_op(spans)
        for _ in range(self.mix.ring_groups):
            self.ring_group(spans)

    def _next(self, kind, modulus):
        value = self.counter[kind] % modulus
        self.counter[kind] += 1
        return value

    def step(self, spans):
        s = self.state
        idx = self.batches[self._next("step", len(self.batches))]
        start = time.perf_counter()
        with spans.span("op.step"):
            xb = s.x_train[idx]
            yb = s.y_train[idx]
            logits = s.net.forward(xb)
            loss, dlogits = self.calls.softmax_xent(logits, yb)
            if not np.isfinite(loss):
                raise CheckFailed(f"non-finite loss at step {len(self.losses)}")
            self.correct += int((logits.argmax(axis=1) == yb).sum())  # as nn.train does
            s.net.backward(dlogits)
            s.optimizer.step(s.net.params(), s.net.grads())
        self.samples["step"].append(time.perf_counter() - start)
        self.losses.append(loss)

    def eval_pass(self, spans):
        s = self.state
        start = time.perf_counter()
        with spans.span("op.eval"):
            loss, _ = self.calls.evaluate(s.net, self.x_eval, self.y_eval)
        self.samples["eval"].append(time.perf_counter() - start)
        require(np.isfinite(loss), "non-finite eval loss")

    def pad_op(self, spans):
        k = self._next("pad", MAP_BATCHES)
        seconds = 0.0
        record = [] if self.first_pad is None else None
        with spans.span("op.pad"):
            for i, pad in enumerate(self.state.pads):
                x = self.inputs.maps[i][k]
                g = self.inputs.grads[i]
                before = pad.filters.weights.copy()
                start = time.perf_counter()
                out = pad.forward(x)
                dx = pad.backward(g)
                seconds += time.perf_counter() - start
                with spans.span(f"pad.s{i}.np_pad"):
                    np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
                require(np.array_equal(out[:, 1:-1, 1:-1], x),
                        f"pad.s{i}: padded interior differs from the input")
                require(np.array_equal(dx, g[:, 1:-1, 1:-1]),
                        f"pad.s{i}: stripped gradient differs from the interior")
                if record is not None:
                    record.append((x, before, pad.filters.weights.copy()))
        self.samples["pad"].append(seconds)
        if record is not None:
            self.first_pad = record

    def ring_group(self, spans):
        for rings in RINGS:
            source = self.inputs.images[self._next("ring", N_IMAGES)]
            target = self.ring_target(rings)
            # write a new file, as padding a set of images does: truncating
            # the last output makes ext4 flush it first, which takes three
            # times as long as the write and varies with the host's disk
            if os.path.exists(target):
                os.remove(target)
            args = argparse.Namespace(input=source, method="module", size=rings,
                                      weights=self.inputs.weights, output=target)
            start = time.perf_counter()
            with spans.span("op.ring"), \
                    spans.patched(PaddingModule, "forward", f"pad.ring{rings}"), \
                    contextlib.redirect_stdout(io.StringIO()):
                code = cli.cmd_pad(args)
            self.samples["ring"].append(time.perf_counter() - start)
            require(code == 0, f"ring {rings}: cli.cmd_pad returned {code}")
            self.ring_sources[rings] = source

    def ring_target(self, rings):
        return os.path.join(self.inputs.workdir, f"out-{rings}.ppm")

    # -- checks on the outputs ------------------------------------------------

    def check(self):
        """Every correctness check on this run's outputs; raises CheckFailed."""
        s = self.state
        for x, before, after in self.first_pad:
            expected = reference.sgd_update(x, before, MODULE_LR)
            require(reference.close(after - before, expected - before, 1e-3),
                    f"local update at {x.shape} differs from the closed form")
        self._check_rings()

        # train untimed up to ACCURACY_STEPS, keeping the timed samples apart
        self.samples = new_samples()
        s.net.train()
        while len(self.losses) < ACCURACY_STEPS:
            self.step(NoTrace())

        # the network's conv outputs
        s.net.eval()
        h = s.x_test[:8]
        for layer in s.net.layers:
            y = layer.forward(h)
            if isinstance(layer, Conv2D):
                pad = layer.padding
                if isinstance(pad, PaddingModule):
                    xp = np.stack([reference.module_pad(im, pad.filters.weights, 1) for im in h])
                else:
                    xp = np.pad(h, ((0, 0), (1, 1), (1, 1), (0, 0)))
                require(reference.close(y, reference.conv_valid(xp, layer.w, layer.b), 1e-4),
                        f"conv {layer.in_channels}->{layer.out_channels} differs from "
                        "the float64 correlation")
            h = y
        # the network modules' supervision error; on 8 images a trained
        # module's margin over a fresh one came within 0.1% on some seeds
        h = s.x_test[:MSE_IMAGES]
        for layer in s.net.layers:
            if isinstance(layer, Conv2D) and isinstance(layer.padding, PaddingModule):
                self._check_mse(layer.padding, h, "network module")
            h = layer.forward(h)
        for i, pad in enumerate(s.pads):
            self._check_mse(pad, self.inputs.maps[i][0], "standalone module")

        tenth = max(1, len(self.losses) // 10)
        require(np.mean(self.losses[-tenth:]) < np.mean(self.losses[:tenth]),
                "mean loss of the last tenth of steps is not below the first tenth")
        _, accuracy = evaluate(s.net, s.x_test, s.y_test)
        chance = 0.1 + 3 * np.sqrt(0.1 * 0.9 / len(s.y_test))
        require(accuracy > chance,
                f"eval accuracy {accuracy:.3f} after {len(self.losses)} steps "
                f"not above chance ({chance:.3f})")

    @staticmethod
    def _check_mse(module, x, what):
        fresh = PaddingModule(module.filters.channels)
        require(module.supervision_mse(x) <= fresh.supervision_mse(x),
                f"{what} ({module.filters.channels} channels): supervision MSE "
                "above its value at initialisation")

    def _check_rings(self):
        """The last timed ring outputs and the module's eval-mode padding
        against the loop reference."""
        bank = self.inputs.bank
        for rings, source in self.ring_sources.items():
            image = data_io.read_ppm(source)
            expected = reference.module_pad(image, bank, rings)
            module = PaddingModule(3, pad_size=rings).eval()
            module.filters.weights = bank.copy()
            require(reference.close(module.forward(image), expected, 1e-5),
                    f"eval-mode padding by {rings} rings differs from the loop reference")
            # the file holds round-half-up bytes; float32 rounding may move
            # a value across a byte boundary
            written = data_io.read_ppm(self.ring_target(rings))
            require(np.array_equal(written[rings:-rings, rings:-rings], image),
                    f"ring {rings}: padded interior differs from the image")
            require(np.all(np.abs(written - np.clip(expected, 0.0, 1.0)) <= 0.5 / 255 + 1e-6),
                    f"ring {rings}: `padlearn pad` output differs from the loop reference")


def new_samples():
    return {"step": [], "eval": [], "pad": [], "ring": []}


# --- metrics -----------------------------------------------------------------

# Printed and kept in the result file, but not among the bounded metrics: the
# ring operation is system calls and small numpy calls, and it follows the
# host's speed more than anything else here (spread 0.1 to 0.33 over ten runs)
UNBOUNDED = ("pad_eval_images_per_s",)


def end_to_end(samples, setup_seconds, peak_rss_kb, mix):
    step = samples["step"]
    per_round = [sum(step[i:i + mix.steps]) for i in range(0, len(step), mix.steps)]
    return {
        "train_images_per_s": (BATCH * mix.steps / statistics.median(per_round), "1/s"),
        "step_ms_p50": (statistics.median(step) * 1e3, "ms"),
        "step_ms_p90": (float(np.percentile(step, 90)) * 1e3, "ms"),
        "eval_images_per_s": (mix.eval_images / statistics.median(samples["eval"]), "1/s"),
        "pad_train_ms_p50": (statistics.median(samples["pad"]) * 1e3, "ms"),
        # one image at each ring count, each taken at its median: a file
        # write now and then takes ten times its usual time
        "pad_eval_images_per_s": (len(RINGS) / sum(
            statistics.median(samples["ring"][i::len(RINGS)]) for i in range(len(RINGS))),
            "1/s"),
        "setup_s": (statistics.median(setup_seconds), "s"),
        "peak_rss_mb": (peak_rss_kb / 1024, "MB"),
    }


def per_layer(spans, names, allocs, samples, steps_per_round):
    """Per-layer metrics from the traced rounds and the allocation pass."""
    out = {}
    timing = durations(spans)

    def ms(metric, root, name, inclusive=False):
        value = per_root_median(spans, timing, root, name, inclusive)
        if value is None:
            raise RuntimeError(f"no span {name!r} under {root!r}")
        out[metric] = (value * 1e3, "ms")

    ms("data_io.load_ms", "op.setup", "data_io.load")
    ms("data_io.to_arrays_ms", "op.setup", "data_io.to_arrays")
    pad_names = [name for _, name in names if name.startswith("pad")]
    for _, name in names:
        if name.startswith("flatten"):
            continue
        # a conv's self time excludes its padding; a pad's backward includes
        # its local update, which is also reported on its own
        ms(f"{name}.fw_ms", "op.step", f"{name}.fw")
        ms(f"{name}.bw_ms", "op.step", f"{name}.bw", inclusive=name in pad_names)
    for i, name in enumerate(pad_names):
        # a zero-padded network has no update; time the standalone module at
        # the same input shape instead
        if per_root_median(spans, timing, "op.step", f"{name}.update") is not None:
            ms(f"{name}.update_ms", "op.step", f"{name}.update")
        else:
            ms(f"{name}.update_ms", "op.pad", f"pad.s{i}.update")
    ms("loss.ms", "op.step", "loss")
    ms("optim.step_ms", "op.step", "optim.step")
    for i in range(len(SHAPES)):
        ms(f"pad.s{i}.fw_ms", "op.pad", f"pad.s{i}.fw")
        ms(f"pad.s{i}.bw_ms", "op.pad", f"pad.s{i}.bw", inclusive=True)
        ms(f"pad.s{i}.np_pad_ms", "op.pad", f"pad.s{i}.np_pad")
    for rings in RINGS:
        ms(f"pad.ring{rings}.ms", "op.ring", f"pad.ring{rings}")
    ms("data_io.read_ppm_ms", "op.ring", "data_io.read_ppm")
    ms("data_io.write_ppm_ms", "op.ring", "data_io.write_ppm")
    ms("padding_module.load_weights_ms", "op.ring", "padding_module.load_weights")
    for name in sorted(allocs):
        out[f"{name}_alloc_kb"] = (allocs[name] / 1024, "KiB")
    # rounds alternate, so the i-th traced round follows the i-th untraced
    # one; pairing them keeps the host's drift out of the difference
    traced, untraced = samples["traced"]["step"], samples["untraced"]["step"]
    k = steps_per_round
    pairs = [statistics.median(traced[i:i + k]) - statistics.median(untraced[i:i + k])
             for i in range(0, min(len(traced), len(untraced)), k)]
    out["trace.overhead_ms_per_step"] = (statistics.median(pairs) * 1e3, "ms")
    return out


# --- environment -------------------------------------------------------------


def blas_threads():
    """Threads OpenBLAS will use, asked of the library numpy loaded."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    try:
        names = [n for n in os.listdir(libs) if "openblas" in n]
        lib = ctypes.CDLL(os.path.join(libs, names[0]))
    except (OSError, IndexError):
        return None
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
        fn = getattr(lib, symbol, None)
        if fn is not None:
            return int(fn())
    return None


def steal_jiffies():
    """Cumulative steal time of all CPUs from /proc/stat, or None."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
    except OSError:
        return None
    return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else None


# --- one run -----------------------------------------------------------------


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict
    environment: dict
    problem: str = ""
    unbounded: dict = None
    span_table: dict = None
    spans: list = None


def run(workload, seed, seconds, trace, workdir):
    """Set up, time `workload` for `seconds`, check the outputs."""
    mix = MIXES[workload]
    steal_start = steal_jiffies()
    inputs = prepare(workdir, seed)
    calls = library_calls()
    spans = Tracer() if trace else NoTrace()
    for attr, (_, name) in CALLS.items():
        spans.add(calls, attr, name)
    for attr, name in CLI_CALLS.items():
        spans.add(cli, attr, name)

    setup_seconds = []
    for _ in range(SETUP_REPEATS):
        spans.on()
        start = time.perf_counter()
        with spans.span("op.setup"):
            state = set_up(calls, inputs.corpus, mix, seed)
        setup_seconds.append(time.perf_counter() - start)
        spans.off()

    runner = Run(mix, inputs, state, calls, seed)
    names = list(layer_names(state.net))
    for obj, name in names:
        spans.add(obj, "forward", f"{name}.fw")
        spans.add(obj, "backward", f"{name}.bw")
        if isinstance(obj, PaddingModule):
            spans.add(obj, "local_update", f"{name}.update")
    for i, pad in enumerate(state.pads):
        spans.add(pad, "forward", f"pad.s{i}.fw")
        spans.add(pad, "backward", f"pad.s{i}.bw")
        spans.add(pad, "local_update", f"pad.s{i}.update")
    spans.add(state.optimizer, "step", "optim.step")

    problem = ""
    rounds = 0
    try:
        check_loaded(state, inputs.corpus)
        runner.round(NoTrace())  # warm-up, not timed
        samples = (new_samples(), new_samples())  # untraced, traced rounds
        deadline = time.perf_counter() + seconds
        while True:
            # a traced run alternates untraced and traced rounds
            traced = trace and rounds % 2 == 1
            runner.samples = samples[traced]
            active = spans if traced else NoTrace()
            active.on()
            try:
                runner.round(active)
            finally:
                active.off()
            rounds += 1
            if time.perf_counter() >= deadline and (not trace or rounds % 2 == 0):
                break
        # before the checks, whose untimed steps and whole-split eval pass
        # would otherwise set pad_module's peak
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        allocs = measure_allocs(runner, names) if trace else {}
        runner.check()
    except CheckFailed as exc:
        problem = str(exc)

    environment = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "numpy": np.__version__, "nproc": os.cpu_count(), "blas_threads": blas_threads(),
        "steal_jiffies": None if steal_start is None else steal_jiffies() - steal_start,
        "rounds": rounds, "ops_per_round": mix.ops,
    }
    if problem:
        return Result(False, max(rounds, 1) * mix.ops, 0, {}, environment, problem)
    environment["samples"] = {k: len(v) for k, v in samples[0].items()}
    if trace:
        metrics = per_layer(spans.spans, names, allocs,
                            {"untraced": samples[0], "traced": samples[1]}, mix.steps)
        return Result(True, rounds * mix.ops, 0, metrics, environment,
                      span_table=summary(spans.spans), spans=spans.spans)
    metrics = end_to_end(samples[0], setup_seconds, peak_rss_kb, mix)
    unbounded = {name: metrics.pop(name) for name in UNBOUNDED}
    return Result(True, rounds * mix.ops, 0, metrics, environment, unbounded=unbounded)


def measure_allocs(runner, names):
    """Peak traced bytes of each conv, pad, pool and relu call in one step."""
    meter = AllocMeter()
    for obj, name in names:
        if name.startswith(("conv", "pad", "pool", "relu")):
            meter.add(obj, "forward", f"{name}.fw")
            meter.add(obj, "backward", f"{name}.bw")
    runner.samples = new_samples()
    runner.state.net.train()
    tracemalloc.start()
    meter.on()
    try:
        runner.step(NoTrace())
    finally:
        meter.off()
        tracemalloc.stop()
    return meter.peak_bytes

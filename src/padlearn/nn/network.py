"""Network assembly: the desk-scale 4-conv classifier and padding placement.

Architecture ("tiny4"): conv3x3(16)-pool-relu-conv3x3(32)-pool-relu-
conv3x3(64)-relu-conv3x3(64)-pool-relu-dense(128)-relu-dense(10) on
32x32x3 inputs. Placement names select which of the four conv layers get
the learnable padding; the rest keep zero padding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..padding_module import PaddingModule
from .layers import Conv2D, Dense, Flatten, MaxPool2x2, ReLU, ZeroPad

PLACEMENTS = {
    "first": (0,),
    "middle": (2,),
    "last": (3,),
    "comb": (0, 2, 3),
    "all": (0, 1, 2, 3),
}

PADDINGS = ("zero", "meaninterp", "module")

_CONV_PLAN = ((3, 16), (16, 32), (32, 64), (64, 64))


@dataclass
class NetworkSpec:
    """What to build: padding family, module placement, and the modules' learning rate."""

    padding: str = "zero"
    positions: str = "all"
    module_lr: float = 0.01

    def __post_init__(self):
        if self.padding not in PADDINGS:
            raise ValueError(f"unknown padding {self.padding!r}")
        if self.positions not in PLACEMENTS:
            raise ValueError(f"unknown positions {self.positions!r}")


class Network:
    """A layer pipeline, starting with a Conv2D, with the plumbing the
    training loop needs."""

    def __init__(self, layers, modules):
        self.layers = layers
        self.modules = modules  # placed PaddingModules, input-facing first

    def forward(self, x):
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, dy):
        """Fill every layer's gradients from the loss gradient `dy`.

        Returns nothing: no caller needs the gradient with respect to the
        network's input, so the first convolution skips it.
        """
        first, *rest = self.layers
        for layer in reversed(rest):
            dy = layer.backward(dy)
        first.backward(dy, need_dx=False)

    def params(self):
        return [p for layer in self.layers for p in layer.params()]

    def grads(self):
        return [g for layer in self.layers for g in layer.grads()]

    def train(self):
        for part in self.layers + self.modules:
            part.train()
        return self

    def eval(self):
        """Switch every layer and module to eval mode, dropping the caches
        backward would read: an eval forward then keeps nothing."""
        for part in self.layers + self.modules:
            part.eval()
        return self


def build_tiny4(spec, seed):
    """Construct the tiny4 network per `spec`, deterministically from `seed`."""
    rng = np.random.default_rng(seed)
    placed = set(PLACEMENTS[spec.positions]) if spec.padding != "zero" else set()
    modules = []

    def padding_for(index, channels):
        if index not in placed:
            return ZeroPad(1)
        module = PaddingModule(channels, pad_size=1, learning_rate=spec.module_lr)
        if spec.padding == "meaninterp":
            return module.eval()
        modules.append(module)
        return module

    layers = []
    for i, (cin, cout) in enumerate(_CONV_PLAN):
        layers.append(Conv2D(cin, cout, padding_for(i, cin), rng=rng))
        if i in (0, 1, 3):
            # max and ReLU commute, so ReLU runs on the pooled quarter
            layers.append(MaxPool2x2())
        layers.append(ReLU())
    layers.append(Flatten())
    layers.append(Dense(4 * 4 * 64, 128, rng=rng))
    layers.append(ReLU())
    layers.append(Dense(128, 10, rng=rng))
    return Network(layers, modules)

"""Trainable border padding with a self-supervised local loss, plus the
small CNN stack and CLI used to exercise it."""

from .padding_module import FilterBank, PaddingModule, load_weights, save_weights

__version__ = "0.1.0"

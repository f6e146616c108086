from .layers import Conv2D, Dense, Flatten, MaxPool2x2, ReLU, ZeroPad, softmax_xent
from .network import Network, NetworkSpec, PLACEMENTS, build_tiny4
from .optim import Adam
from .train import evaluate

__all__ = [
    "Adam", "Conv2D", "Dense", "Flatten", "MaxPool2x2", "Network",
    "NetworkSpec", "PLACEMENTS", "ReLU", "ZeroPad",
    "build_tiny4", "evaluate", "softmax_xent",
]

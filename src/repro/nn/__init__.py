"""From-scratch numpy deep-learning framework.

This subpackage replaces the paper's Caffe dependency: layer-by-layer
forward/backward, explicit optimizers, and a Sequential container — enough
to train and run the host Models A/B/C (Table III), the binarized FINN CNV
network (Table I, via :mod:`repro.bnn`), and the DMU.
"""

from . import functional, initializers
from .layers import (
    AvgPool2D,
    BatchNorm,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    GlobalAvgPool2D,
    HardTanh,
    Layer,
    LocalResponseNorm,
    MaxPool2D,
    ReLU,
    Sigmoid,
    Tanh,
)
from .program import Program
from .infer import InferenceEngine
from .quantized import SUPPORTED_BITS, QuantizedEngine
from .losses import BinaryCrossEntropy, Loss, SoftmaxCrossEntropy, SquaredHinge
from .network import Sequential
from .optim import SGD, Adam, Optimizer
from .parameter import Parameter
from .trainer import Trainer, TrainHistory, accuracy

__all__ = [
    "functional",
    "initializers",
    "Parameter",
    "Layer",
    "Conv2D",
    "Dense",
    "MaxPool2D",
    "AvgPool2D",
    "GlobalAvgPool2D",
    "ReLU",
    "Sigmoid",
    "Tanh",
    "HardTanh",
    "BatchNorm",
    "LocalResponseNorm",
    "Dropout",
    "Flatten",
    "Sequential",
    "Program",
    "InferenceEngine",
    "QuantizedEngine",
    "SUPPORTED_BITS",
    "Loss",
    "SoftmaxCrossEntropy",
    "BinaryCrossEntropy",
    "SquaredHinge",
    "Optimizer",
    "SGD",
    "Adam",
    "Trainer",
    "TrainHistory",
    "accuracy",
]

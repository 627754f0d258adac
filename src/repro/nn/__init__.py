"""Neural-network building blocks on top of :mod:`repro.autograd`.

Mirrors the familiar torch.nn layout: :class:`Module` trees with named
parameters, layers, losses, initializers, optimizers, data loading and
state-dict serialization.
"""

from repro.nn.module import Module, Parameter, Sequential
from repro.nn.layers import Conv2d, Flatten, Identity, Linear, ReLU
from repro.nn.norm import BatchNorm2d
from repro.nn.pooling import GlobalAvgPool2d, MaxPool2d
from repro.nn.blocks import BasicBlock, ConvBnRelu
from repro.nn.losses import CrossEntropyLoss
from repro.nn.optim import SGD, CosineSchedule, StepSchedule
from repro.nn.dataloader import DataLoader
from repro.nn.serialize import load_state, save_state
from repro.nn import init

__all__ = [
    "Module", "Parameter", "Sequential", "Linear", "Conv2d", "Flatten",
    "Identity", "ReLU", "BatchNorm2d", "MaxPool2d", "GlobalAvgPool2d",
    "BasicBlock", "ConvBnRelu", "CrossEntropyLoss", "SGD",
    "StepSchedule", "CosineSchedule", "DataLoader", "save_state",
    "load_state", "init",
]

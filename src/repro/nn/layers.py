"""Core layers: Linear, Conv2d, Flatten, Identity, ReLU."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.autograd import functional as F
from repro.autograd.tensor import Tensor
from repro.nn import init
from repro.nn.module import Module, Parameter


def _rng(rng: Optional[np.random.Generator]) -> np.random.Generator:
    return rng if rng is not None else np.random.default_rng()


class Linear(Module):
    """Affine map ``y = x @ W.T + b`` with Kaiming-uniform init."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.in_features = int(in_features)
        self.out_features = int(out_features)
        generator = _rng(rng)
        self.weight = Parameter(init.kaiming_uniform((out_features, in_features), generator))
        self.bias = Parameter(np.zeros(out_features)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = F.matmul(x, F.transpose(self.weight))
        if self.bias is not None:
            out = F.add(out, self.bias)
        return out

    def __repr__(self) -> str:
        return f"Linear({self.in_features}, {self.out_features}, bias={self.bias is not None})"


class Conv2d(Module):
    """2-D convolution over NCHW tensors (OIHW weights, square kernels)."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.in_channels = int(in_channels)
        self.out_channels = int(out_channels)
        self.kernel_size = int(kernel_size)
        self.stride = int(stride)
        self.padding = int(padding)
        generator = _rng(rng)
        shape = (out_channels, in_channels, kernel_size, kernel_size)
        self.weight = Parameter(init.kaiming_normal(shape, generator))
        self.bias = Parameter(np.zeros(out_channels)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.conv2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)

    def __repr__(self) -> str:
        return (
            f"Conv2d({self.in_channels}, {self.out_channels}, k={self.kernel_size}, "
            f"s={self.stride}, p={self.padding})"
        )


class Flatten(Module):
    """Collapse all axes after ``start_axis`` into one."""

    def __init__(self, start_axis: int = 1) -> None:
        super().__init__()
        self.start_axis = start_axis

    def forward(self, x: Tensor) -> Tensor:
        return F.flatten(x, self.start_axis)


class Identity(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.relu(x)

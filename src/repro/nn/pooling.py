"""Pooling modules wrapping the autograd pooling ops."""

from __future__ import annotations

from typing import Optional

from repro.autograd import functional as F
from repro.autograd.tensor import Tensor
from repro.nn.module import Module


class MaxPool2d(Module):
    def __init__(self, kernel_size: int, stride: Optional[int] = None) -> None:
        super().__init__()
        self.kernel_size = int(kernel_size)
        self.stride = int(stride) if stride is not None else int(kernel_size)

    def forward(self, x: Tensor) -> Tensor:
        return F.max_pool2d(x, self.kernel_size, self.stride)


class GlobalAvgPool2d(Module):
    """Reduce each channel's spatial map to its mean: NCHW -> NC."""

    def forward(self, x: Tensor) -> Tensor:
        return F.global_avg_pool2d(x)

"""Differentiable free functions over :class:`~repro.autograd.tensor.Tensor`.

Every function here builds a graph node (when gradients are enabled) via
``Function.apply``.  Convolution, pooling and the fused softmax
cross-entropy live in :mod:`repro.autograd.ops_nn` and are re-exported.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro import backend as _backend
from repro.autograd.function import Function, unbroadcast
from repro.autograd.tensor import Tensor
from repro.errors import ShapeError

# ---------------------------------------------------------------------------
# Elementwise binary ops (dispatched through repro.backend kernels)
# ---------------------------------------------------------------------------


class Add(Function):
    def forward(self, a, b):
        self._shapes = (a.shape, b.shape)
        return _backend.active().add(a, b)

    def backward(self, grad):
        sa, sb = self._shapes
        return unbroadcast(grad, sa), unbroadcast(grad, sb)


class Sub(Function):
    def forward(self, a, b):
        self._shapes = (a.shape, b.shape)
        return _backend.active().sub(a, b)

    def backward(self, grad):
        sa, sb = self._shapes
        K = _backend.active()
        return unbroadcast(grad, sa), unbroadcast(K.neg(grad), sb)


class Mul(Function):
    def forward(self, a, b):
        self.save_for_backward(a, b)
        return _backend.active().mul(a, b)

    def backward(self, grad):
        a, b = self.saved
        K = _backend.active()
        return unbroadcast(K.mul(grad, b), a.shape), unbroadcast(K.mul(grad, a), b.shape)


class Div(Function):
    def forward(self, a, b):
        self.save_for_backward(a, b)
        return _backend.active().div(a, b)

    def backward(self, grad):
        a, b = self.saved
        K = _backend.active()
        grad_a = unbroadcast(K.div(grad, b), a.shape)
        grad_b = unbroadcast(-K.div(K.mul(grad, a), K.mul(b, b)), b.shape)
        return grad_a, grad_b


class MatMul(Function):
    def forward(self, a, b):
        if a.ndim != 2 or b.ndim != 2:
            raise ShapeError(f"matmul expects 2-D operands, got {a.shape} @ {b.shape}")
        # a no-grad activation may be a batch-last view (fast's conv
        # trunk, flattened), and BLAS sums a transposed operand in
        # another order; rows give the contiguous bytes (no-op if C)
        a = np.ascontiguousarray(a)
        self.save_for_backward(a, b)
        return _backend.active().matmul(a, b)

    def backward(self, grad):
        a, b = self.saved
        K = _backend.active()
        return K.matmul(grad, b.T), K.matmul(a.T, grad)


# ---------------------------------------------------------------------------
# Elementwise unary ops
# ---------------------------------------------------------------------------


class Neg(Function):
    def forward(self, a):
        return _backend.active().neg(a)

    def backward(self, grad):
        return (_backend.active().neg(grad),)


class Pow(Function):
    def __init__(self, exponent: float) -> None:
        super().__init__()
        self.exponent = float(exponent)

    def forward(self, a):
        self.save_for_backward(a)
        return a ** self.exponent

    def backward(self, grad):
        (a,) = self.saved
        return (grad * self.exponent * a ** (self.exponent - 1.0),)


class Exp(Function):
    def forward(self, a):
        out = np.exp(a)
        self.save_for_backward(out)
        return out

    def backward(self, grad):
        (out,) = self.saved
        return (grad * out,)


class Log(Function):
    def forward(self, a):
        self.save_for_backward(a)
        return np.log(a)

    def backward(self, grad):
        (a,) = self.saved
        return (grad / a,)


class Sqrt(Function):
    def forward(self, a):
        out = np.sqrt(a)
        self.save_for_backward(out)
        return out

    def backward(self, grad):
        (out,) = self.saved
        return (grad / (2.0 * out),)


class Abs(Function):
    def forward(self, a):
        self.save_for_backward(a)
        return np.abs(a)

    def backward(self, grad):
        (a,) = self.saved
        return (grad * np.sign(a),)


class ReLU(Function):
    def forward(self, a):
        out, mask = _backend.active().relu(a)
        self.save_for_backward(mask)
        return out

    def backward(self, grad):
        (mask,) = self.saved
        return (_backend.active().mul(grad, mask),)


class Clip(Function):
    def __init__(self, low: float, high: float) -> None:
        super().__init__()
        self.low, self.high = float(low), float(high)

    def forward(self, a):
        self.save_for_backward((a >= self.low) & (a <= self.high))
        return np.clip(a, self.low, self.high)

    def backward(self, grad):
        (mask,) = self.saved
        return (grad * mask,)


# ---------------------------------------------------------------------------
# Reductions
# ---------------------------------------------------------------------------


def _normalize_axis(axis, ndim) -> Optional[Tuple[int, ...]]:
    if axis is None:
        return None
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(ax % ndim for ax in axis)


class Sum(Function):
    def __init__(self, axis=None, keepdims=False) -> None:
        super().__init__()
        self.axis, self.keepdims = axis, keepdims

    def forward(self, a):
        self._shape = a.shape
        return _backend.active().reduce_sum(a, self.axis, self.keepdims)

    def backward(self, grad):
        grad = np.asarray(grad)
        axis = _normalize_axis(self.axis, len(self._shape))
        if axis is not None and not self.keepdims:
            for ax in sorted(axis):
                grad = np.expand_dims(grad, ax)
        return (_backend.active().broadcast_copy(grad, self._shape),)


class Mean(Function):
    def __init__(self, axis=None, keepdims=False) -> None:
        super().__init__()
        self.axis, self.keepdims = axis, keepdims

    def forward(self, a):
        self._shape = a.shape
        out = _backend.active().reduce_mean(a, self.axis, self.keepdims)
        self._count = a.size / out.size if out.size else 1.0
        return out

    def backward(self, grad):
        grad = np.asarray(grad) / self._count
        axis = _normalize_axis(self.axis, len(self._shape))
        if axis is not None and not self.keepdims:
            for ax in sorted(axis):
                grad = np.expand_dims(grad, ax)
        return (_backend.active().broadcast_copy(grad, self._shape),)


class MaxReduce(Function):
    def __init__(self, axis=None, keepdims=False, minimum=False) -> None:
        super().__init__()
        self.axis, self.keepdims, self.minimum = axis, keepdims, minimum

    def forward(self, a):
        reducer = np.min if self.minimum else np.max
        out_keep = reducer(a, axis=self.axis, keepdims=True)
        self.save_for_backward(a, out_keep)
        if self.keepdims:
            return out_keep
        if self.axis is None:
            return out_keep.reshape(())
        return np.squeeze(out_keep, axis=self.axis)

    def backward(self, grad):
        a, out_keep = self.saved
        grad = np.asarray(grad)
        mask = (a == out_keep)
        # Split the gradient evenly among tied extrema (subgradient choice).
        counts = mask.sum(axis=self.axis, keepdims=True)
        if not self.keepdims:
            if self.axis is None:
                grad = grad.reshape((1,) * a.ndim)
            else:
                axis = _normalize_axis(self.axis, a.ndim)
                for ax in sorted(axis):
                    grad = np.expand_dims(grad, ax)
        return (mask * grad / counts,)


# ---------------------------------------------------------------------------
# Shape ops
# ---------------------------------------------------------------------------


class Reshape(Function):
    def __init__(self, shape: Tuple[int, ...]) -> None:
        super().__init__()
        self.shape = shape

    def forward(self, a):
        self._orig = a.shape
        return a.reshape(self.shape)

    def backward(self, grad):
        return (grad.reshape(self._orig),)


class Transpose(Function):
    def __init__(self, axes: Optional[Tuple[int, ...]]) -> None:
        super().__init__()
        self.axes = axes

    def forward(self, a):
        self._ndim = a.ndim
        return np.transpose(a, self.axes)

    def backward(self, grad):
        if self.axes is None:
            return (np.transpose(grad),)
        inverse = np.argsort(self.axes)
        return (np.transpose(grad, inverse),)


class GetItem(Function):
    def __init__(self, index) -> None:
        super().__init__()
        self.index = index

    def forward(self, a):
        self._shape = a.shape
        return a[self.index]

    def backward(self, grad):
        out = np.zeros(self._shape, dtype=grad.dtype)
        np.add.at(out, self.index, grad)
        return (out,)


class Concat(Function):
    def __init__(self, axis: int = 0) -> None:
        super().__init__()
        self.axis = axis

    def forward(self, *arrays):
        self._sizes = [a.shape[self.axis] for a in arrays]
        return np.concatenate(arrays, axis=self.axis)

    def backward(self, grad):
        splits = np.cumsum(self._sizes)[:-1]
        return tuple(np.split(grad, splits, axis=self.axis))


# ---------------------------------------------------------------------------
# Public functional API
# ---------------------------------------------------------------------------


def add(a, b) -> Tensor: return Add.apply(a, b)
def sub(a, b) -> Tensor: return Sub.apply(a, b)
def mul(a, b) -> Tensor: return Mul.apply(a, b)
def div(a, b) -> Tensor: return Div.apply(a, b)
def matmul(a, b) -> Tensor: return MatMul.apply(a, b)
def neg(a) -> Tensor: return Neg.apply(a)
def pow(a, exponent: float) -> Tensor: return Pow.apply(a, exponent=exponent)  # noqa: A001
def exp(a) -> Tensor: return Exp.apply(a)
def log(a) -> Tensor: return Log.apply(a)
def sqrt(a) -> Tensor: return Sqrt.apply(a)
def abs(a) -> Tensor: return Abs.apply(a)  # noqa: A001
def relu(a) -> Tensor: return ReLU.apply(a)
def clip(a, low: float, high: float) -> Tensor: return Clip.apply(a, low=low, high=high)


def sum(a, axis=None, keepdims=False) -> Tensor:  # noqa: A001
    return Sum.apply(a, axis=axis, keepdims=keepdims)


def mean(a, axis=None, keepdims=False) -> Tensor:
    return Mean.apply(a, axis=axis, keepdims=keepdims)


def max(a, axis=None, keepdims=False) -> Tensor:  # noqa: A001
    return MaxReduce.apply(a, axis=axis, keepdims=keepdims, minimum=False)


def min(a, axis=None, keepdims=False) -> Tensor:  # noqa: A001
    return MaxReduce.apply(a, axis=axis, keepdims=keepdims, minimum=True)


def var(a, axis=None, keepdims=False) -> Tensor:
    """Population variance composed from differentiable primitives."""
    centered = sub(a, mean(a, axis=axis, keepdims=True))
    return mean(mul(centered, centered), axis=axis, keepdims=keepdims)


def reshape(a, *shape) -> Tensor:
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    return Reshape.apply(a, shape=shape)


def transpose(a, *axes) -> Tensor:
    if len(axes) == 0:
        axes_arg = None
    elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
        axes_arg = tuple(axes[0])
    else:
        axes_arg = axes
    return Transpose.apply(a, axes=axes_arg)


def flatten(a, start_axis: int = 1) -> Tensor:
    shape = a.shape[:start_axis] + (-1,)
    return reshape(a, shape)


def getitem(a, index) -> Tensor:
    return GetItem.apply(a, index=index)


def concat(tensors: Sequence, axis: int = 0) -> Tensor:
    return Concat.apply(*tensors, axis=axis)


# Neural-network ops (conv / pool / losses) are defined in ops_nn and
# re-exported here so that `functional` is the single import site.
from repro.autograd.ops_nn import (  # noqa: E402
    conv2d,
    global_avg_pool2d,
    log_softmax,
    max_pool2d,
    softmax_cross_entropy,
)

__all__ = [
    "add", "sub", "mul", "div", "matmul", "neg", "pow", "exp",
    "log", "sqrt", "abs", "relu", "clip",
    "sum", "mean", "max", "min", "var", "reshape", "transpose", "flatten",
    "getitem", "concat",
    "conv2d", "max_pool2d",
    "global_avg_pool2d", "log_softmax", "softmax_cross_entropy",
]

"""Reference backend: the original numpy kernels, verbatim.

This module is the correctness oracle for every other backend.  The
kernel bodies are the exact numpy code the autograd ops inlined before
the dispatch layer existed, so routing through ``reference`` is
bit-identical to the pre-backend implementation.  Do not "optimize"
anything here -- speed belongs in :mod:`repro.backend.fast`; this file
trades speed for being obviously correct and stable.

Kernel contracts (shared by all backends):

* ``im2col(x, kh, kw, stride, padding) -> cols`` -- NCHW input lowered
  to a ``(C*kh*kw, N*out_h*out_w)`` patch matrix.
* ``col2im(cols, shape, kh, kw, stride, padding) -> x`` -- the adjoint
  scatter-add.  **Dtype contract:** the output dtype equals
  ``cols.dtype`` (a float32 gradient never silently upcasts to
  float64) and the result is C-contiguous.
* ``conv2d_forward(x, w, stride, padding) -> (out, cols)`` -- the patch
  matrix is returned so the backward pass never re-lowers the input,
  and the output-size indices are computed exactly once per call.
* ``conv2d_backward(grad, cols, w, x_shape, stride, padding) ->
  (grad_x, grad_w)``.
* ``conv2d_infer(x, w, bias, stride, padding, relu) -> out`` -- no-grad
  forward used by inference paths; ``bias``/``relu`` fold the usual
  epilogue in.
* ``maxpool2d_forward -> (out, argmax)`` / ``maxpool2d_backward``,
  ``maxpool2d_infer`` -- max pooling over NCHW.
* ``matmul``, ``add``, ``sub``, ``mul``, ``div``,
  ``relu -> (out, mask)``, ``reduce_sum``, ``reduce_mean``,
  ``broadcast_copy`` -- dense/elementwise primitives.
* ``log_softmax(logits)`` -- row-wise stable log-softmax.
* ``batchnorm_stats(x, axes) -> (mean, var)`` (keepdims) and
  ``batchnorm_infer(x, mean, var, gamma, beta, eps) -> out``.
* ``assign_clusters(weights, boundaries) -> int64 indices`` -- the
  quantizer's cluster-assignment step.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.backend.registry import Backend
from repro.errors import ShapeError

BACKEND = Backend("reference")


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Output extent of one spatial axis; the geometry check of every gather."""
    if kernel < 1 or stride < 1 or padding < 0:
        raise ShapeError(
            f"invalid convolution geometry: kernel={kernel} and stride={stride} "
            f"must be >= 1, padding={padding} must be >= 0"
        )
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ShapeError(
            f"convolution output size is non-positive: input={size}, "
            f"kernel={kernel}, stride={stride}, padding={padding}"
        )
    return out


def im2col_indices(
    shape: Tuple[int, int, int, int], kh: int, kw: int, stride: int, padding: int
):
    """Index arrays that gather conv patches into columns (CS231n style)."""
    _, channels, height, width = shape
    out_h = conv_output_size(height, kh, stride, padding)
    out_w = conv_output_size(width, kw, stride, padding)

    i0 = np.repeat(np.arange(kh), kw)
    i0 = np.tile(i0, channels)
    i1 = stride * np.repeat(np.arange(out_h), out_w)
    j0 = np.tile(np.arange(kw), kh * channels)
    j1 = stride * np.tile(np.arange(out_w), out_h)
    i = i0.reshape(-1, 1) + i1.reshape(1, -1)
    j = j0.reshape(-1, 1) + j1.reshape(1, -1)
    k = np.repeat(np.arange(channels), kh * kw).reshape(-1, 1)
    return k, i, j, out_h, out_w


# ---------------------------------------------------------------------------
# im2col / col2im
# ---------------------------------------------------------------------------


@BACKEND.register()
def im2col(x: np.ndarray, kh: int, kw: int, stride: int, padding: int) -> np.ndarray:
    """Lower NCHW input to a (C*kh*kw, N*out_h*out_w) patch matrix."""
    p = padding
    x_padded = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p))) if p > 0 else x
    k, i, j, _, _ = im2col_indices(x.shape, kh, kw, stride, padding)
    cols = x_padded[:, k, i, j]
    return cols.transpose(1, 2, 0).reshape(kh * kw * x.shape[1], -1)


@BACKEND.register()
def col2im(
    cols: np.ndarray,
    shape: Tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Scatter-add a patch matrix back into an NCHW array (inverse of im2col).

    The scatter target is allocated with ``cols.dtype`` -- the backward
    path never upcasts a float32 gradient -- and the result is
    C-contiguous (the unpadded case returns the target itself; the
    padded case copies the central view out).
    """
    batch, channels, height, width = shape
    p = padding
    padded = np.zeros((batch, channels, height + 2 * p, width + 2 * p), dtype=cols.dtype)
    k, i, j, _, _ = im2col_indices(shape, kh, kw, stride, padding)
    cols_reshaped = cols.reshape(channels * kh * kw, -1, batch).transpose(2, 0, 1)
    np.add.at(padded, (slice(None), k, i, j), cols_reshaped)
    if p == 0:
        return padded
    return np.ascontiguousarray(padded[:, :, p:-p, p:-p])


# ---------------------------------------------------------------------------
# Convolution
# ---------------------------------------------------------------------------


@BACKEND.register()
def conv2d_forward(
    x: np.ndarray, weight: np.ndarray, stride: int, padding: int
) -> Tuple[np.ndarray, np.ndarray]:
    out_channels, _, kh, kw = weight.shape
    k, i, j, out_h, out_w = im2col_indices(x.shape, kh, kw, stride, padding)
    p = padding
    x_padded = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p))) if p > 0 else x
    cols = x_padded[:, k, i, j].transpose(1, 2, 0).reshape(kh * kw * x.shape[1], -1)
    out = weight.reshape(out_channels, -1) @ cols
    out = out.reshape(out_channels, out_h, out_w, x.shape[0]).transpose(3, 0, 1, 2)
    return np.ascontiguousarray(out), cols


@BACKEND.register()
def conv2d_backward(
    grad: np.ndarray,
    cols: np.ndarray,
    weight: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    stride: int,
    padding: int,
    need_input_grad: bool = True,
) -> Tuple[np.ndarray, np.ndarray]:
    # ``need_input_grad`` is a hint other backends may exploit; the
    # oracle deliberately ignores it and always computes both gradients
    # exactly as the original (pre-backend) code did.
    out_channels, _, kh, kw = weight.shape
    grad_flat = grad.transpose(1, 2, 3, 0).reshape(out_channels, -1)
    grad_weight = (grad_flat @ cols.T).reshape(weight.shape)
    grad_cols = weight.reshape(out_channels, -1).T @ grad_flat
    grad_x = col2im(grad_cols, x_shape, kh, kw, stride, padding)
    return grad_x, grad_weight


@BACKEND.register()
def conv2d_infer(
    x: np.ndarray,
    weight: np.ndarray,
    bias: Optional[np.ndarray],
    stride: int,
    padding: int,
    relu: bool = False,
) -> np.ndarray:
    """No-grad convolution with optional fused bias/relu epilogue.

    The arithmetic mirrors the graph path exactly: conv output, then
    ``+ bias.reshape(1, -1, 1, 1)``, then ``out * (out > 0)``.
    """
    out, _ = conv2d_forward(x, weight, stride, padding)
    if bias is not None:
        out = out + bias.reshape(1, -1, 1, 1)
    if relu:
        out = out * (out > 0)
    return out


# ---------------------------------------------------------------------------
# Pooling
# ---------------------------------------------------------------------------


@BACKEND.register()
def maxpool2d_forward(
    x: np.ndarray, kernel: int, stride: int
) -> Tuple[np.ndarray, np.ndarray]:
    batch, channels, _, _ = x.shape
    reshaped = x.reshape(batch * channels, 1, *x.shape[2:])
    cols = im2col(reshaped, kernel, kernel, stride, 0)
    argmax = np.argmax(cols, axis=0)
    out = cols[argmax, np.arange(cols.shape[1])]
    _, _, _, out_h, out_w = im2col_indices(reshaped.shape, kernel, kernel, stride, 0)
    out = np.ascontiguousarray(
        out.reshape(out_h, out_w, batch * channels).transpose(2, 0, 1)
    ).reshape(batch, channels, out_h, out_w)
    return out, argmax


@BACKEND.register()
def maxpool2d_backward(
    grad: np.ndarray,
    argmax: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kernel: int,
    stride: int,
) -> np.ndarray:
    batch, channels, height, width = x_shape
    reshaped_shape = (batch * channels, 1, height, width)
    grad_flat = grad.reshape(batch * channels, -1).transpose(1, 0).reshape(-1)
    grad_cols = np.zeros((kernel * kernel, grad_flat.size), dtype=grad.dtype)
    grad_cols[argmax, np.arange(grad_cols.shape[1])] = grad_flat
    grad_reshaped = col2im(grad_cols, reshaped_shape, kernel, kernel, stride, 0)
    return grad_reshaped.reshape(x_shape)


@BACKEND.register()
def maxpool2d_infer(x: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    """No-grad max pooling: skips the argmax bookkeeping entirely."""
    batch, channels, _, _ = x.shape
    reshaped = x.reshape(batch * channels, 1, *x.shape[2:])
    cols = im2col(reshaped, kernel, kernel, stride, 0)
    out = cols.max(axis=0)
    _, _, _, out_h, out_w = im2col_indices(reshaped.shape, kernel, kernel, stride, 0)
    return np.ascontiguousarray(
        out.reshape(out_h, out_w, batch * channels).transpose(2, 0, 1)
    ).reshape(batch, channels, out_h, out_w)


# ---------------------------------------------------------------------------
# Dense / elementwise primitives
# ---------------------------------------------------------------------------


@BACKEND.register()
def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b


@BACKEND.register()
def add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a + b


@BACKEND.register()
def sub(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a - b


@BACKEND.register()
def mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a * b


@BACKEND.register()
def neg(a: np.ndarray) -> np.ndarray:
    return -a


@BACKEND.register()
def div(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a / b


@BACKEND.register()
def relu(a: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    mask = a > 0
    return a * mask, mask


@BACKEND.register()
def reduce_sum(a: np.ndarray, axis, keepdims: bool) -> np.ndarray:
    return a.sum(axis=axis, keepdims=keepdims)


@BACKEND.register()
def reduce_mean(a: np.ndarray, axis, keepdims: bool) -> np.ndarray:
    return a.mean(axis=axis, keepdims=keepdims)


@BACKEND.register()
def broadcast_copy(a: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    return np.broadcast_to(a, shape).copy()


@BACKEND.register()
def log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


# ---------------------------------------------------------------------------
# Batch normalization
# ---------------------------------------------------------------------------


@BACKEND.register()
def batchnorm_stats(
    x: np.ndarray, axes: Tuple[int, ...]
) -> Tuple[np.ndarray, np.ndarray]:
    """Batch mean/variance over ``axes`` with kept dims (population var)."""
    mean = x.mean(axis=axes, keepdims=True)
    centered = x - mean
    var = (centered * centered).mean(axis=axes, keepdims=True)
    return mean, var


@BACKEND.register()
def batchnorm_infer(
    x: np.ndarray,
    mean: np.ndarray,
    var: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    eps: float,
) -> np.ndarray:
    """Normalize-scale-shift with the same op order as the graph path."""
    std = np.sqrt(var + eps)
    return ((x - mean) / std) * gamma + beta


@BACKEND.register()
def batchnorm_train_forward(
    x: np.ndarray,
    mean: np.ndarray,
    var: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    eps: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fused training-mode normalize-scale-shift.

    ``mean``/``var`` are the batch statistics (keepdims shapes, from
    ``batchnorm_stats``); returns ``(out, xhat, inv_std)`` where
    ``xhat`` and ``inv_std`` are the cache the analytic backward needs.
    """
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x - mean) * inv_std
    return xhat * gamma + beta, xhat, inv_std


@BACKEND.register()
def batchnorm_train_backward(
    grad: np.ndarray,
    xhat: np.ndarray,
    inv_std: np.ndarray,
    gamma: np.ndarray,
    axes: Tuple[int, ...],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Analytic batch-norm backward.

    For y = gamma * xhat + beta with batch statistics over ``axes``::

        dbeta  = sum(dy)
        dgamma = sum(dy * xhat)
        dx     = gamma * inv_std * (dy - mean(dy) - xhat * mean(dy * xhat))

    which is the exact derivative of the composed graph the reference
    training path differentiates node by node.
    """
    count = 1
    for axis in axes:
        count *= grad.shape[axis]
    grad_beta = grad.sum(axis=axes, keepdims=True)
    grad_gamma = (grad * xhat).sum(axis=axes, keepdims=True)
    grad_x = (gamma * inv_std) * (
        grad - grad_beta / count - xhat * (grad_gamma / count)
    )
    return grad_x, grad_gamma, grad_beta


# ---------------------------------------------------------------------------
# Quantizer assignment
# ---------------------------------------------------------------------------


@BACKEND.register()
def assign_clusters(weights: np.ndarray, boundaries: np.ndarray) -> np.ndarray:
    """Cluster index of each weight given ascending boundary values."""
    indices = np.searchsorted(boundaries[1:-1], weights, side="right")
    return indices.astype(np.int64)


# ---------------------------------------------------------------------------
# Optimizer update
# ---------------------------------------------------------------------------


@BACKEND.register()
def sgd_update(
    param: np.ndarray,
    grad: np.ndarray,
    velocity: Optional[np.ndarray],
    lr: float,
    momentum: float,
    weight_decay: float,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """One SGD step: ``(new_param, new_velocity)``.

    ``velocity`` may be ``None`` (first step, or momentum disabled); the
    returned velocity is ``None`` exactly when ``momentum`` is zero.
    Arithmetic order matches the historical ``SGD.step`` loop so the
    reference backend stays bit-identical to pre-backend training runs.
    """
    if weight_decay:
        grad = grad + weight_decay * param
    if momentum:
        if velocity is None:
            velocity = np.zeros_like(param)
        velocity = momentum * velocity + grad
        grad = velocity
    else:
        velocity = None
    return param - lr * grad, velocity

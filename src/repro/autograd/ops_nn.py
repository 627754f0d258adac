"""Neural-network ops: convolution, pooling, softmax and the fused loss.

Convolution is implemented with the standard im2col lowering: each local
receptive field becomes a column, so the convolution is one large matrix
multiply.  This is the usual way to get acceptable conv performance out
of pure numpy.

The numerical kernels themselves live behind the dispatch layer in
:mod:`repro.backend` -- ops here validate shapes, build graph nodes and
call ``backend.active().<kernel>(...)`` for the math.  The free
functions (``conv2d``, ``max_pool2d``, ``avg_pool2d``) additionally
take a no-grad fast path when gradients are disabled, dispatching to
the fused ``*_infer`` kernels and skipping all backward bookkeeping.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro import backend as _backend
from repro.autograd.function import Function
from repro.autograd.tensor import Tensor, is_grad_enabled
from repro.errors import ShapeError

# ---------------------------------------------------------------------------
# im2col machinery (public API; dispatches to the active backend)
# ---------------------------------------------------------------------------


def im2col(x: np.ndarray, kh: int, kw: int, stride: int, padding: int) -> np.ndarray:
    """Lower NCHW input to a (C*kh*kw, N*out_h*out_w) patch matrix."""
    return _backend.active().im2col(x, kh, kw, stride, padding)


def col2im(
    cols: np.ndarray,
    shape: Tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Scatter-add a patch matrix back into an NCHW array (inverse of im2col).

    All backends honor the same contract: the output dtype equals
    ``cols.dtype`` (float32 gradients never upcast) and the result is
    C-contiguous.
    """
    return _backend.active().col2im(cols, shape, kh, kw, stride, padding)


# ---------------------------------------------------------------------------
# Convolution
# ---------------------------------------------------------------------------


def _validate_conv(x_shape, weight_shape) -> None:
    if len(x_shape) != 4 or len(weight_shape) != 4:
        raise ShapeError(
            f"conv2d expects NCHW input and OIHW weight, got {x_shape}, {weight_shape}"
        )
    if x_shape[1] != weight_shape[1]:
        raise ShapeError(
            f"conv2d channel mismatch: input has {x_shape[1]}, "
            f"weight expects {weight_shape[1]}"
        )


class Conv2dFn(Function):
    def __init__(self, stride: int = 1, padding: int = 0) -> None:
        super().__init__()
        self.stride, self.padding = int(stride), int(padding)

    def forward(self, x, weight):
        _validate_conv(x.shape, weight.shape)
        out, cols = _backend.active().conv2d_forward(
            x, weight, self.stride, self.padding
        )
        # Checkpoint the input rather than the patch matrix: cols is
        # ~kh*kw times larger than x and would dominate the tape's saved
        # bytes, while x is the parent tensor's own data (alive through
        # the walk regardless).  Backward re-gathers the columns.  With
        # fast's tap-slice gather that re-gather costs 0.24x the two
        # gradient matmuls, summed over resnet8_tiny's convs at batch 16,
        # float32, one BLAS thread on a 2-vCPU Xeon (the fancy-index
        # gather it replaced cost 1.03x).
        del cols
        self.save_for_backward(x, weight)
        self._x_shape = x.shape
        return out

    def backward(self, grad):
        x, weight = self.saved
        kh, kw = weight.shape[2], weight.shape[3]
        K = _backend.active()
        # identical gather to the forward's (same indices, same layout),
        # so gradients are bit-for-bit what saving cols would produce
        cols = K.im2col(x, kh, kw, self.stride, self.padding)
        # the backend may skip the input-gradient matmul + scatter when
        # x is a graph leaf that does not require grad (needs_grad is
        # only populated when the graph edge was recorded)
        need_input_grad = self.needs_grad[0] if self.needs_grad else True
        return K.conv2d_backward(
            grad, cols, weight, self._x_shape, self.stride, self.padding,
            need_input_grad=need_input_grad,
        )


def conv2d(x, weight, bias=None, stride: int = 1, padding: int = 0) -> Tensor:
    """2-D convolution over NCHW input with OIHW weights.

    Without grad the output may be a non-contiguous view: ``fast``
    returns NCHW-shaped views of batch-last ``(C, H, W, N)`` memory.
    """
    if not is_grad_enabled():
        x_data = x.data if isinstance(x, Tensor) else np.asarray(x)
        w_data = weight.data if isinstance(weight, Tensor) else np.asarray(weight)
        b_data = None
        if bias is not None:
            b_data = bias.data if isinstance(bias, Tensor) else np.asarray(bias)
        _validate_conv(x_data.shape, w_data.shape)
        out = _backend.active().conv2d_infer(
            x_data, w_data, b_data, int(stride), int(padding)
        )
        return Tensor(out)
    out = Conv2dFn.apply(x, weight, stride=stride, padding=padding)
    if bias is not None:
        from repro.autograd import functional as F
        out = F.add(out, F.reshape(bias, (1, -1, 1, 1)))
    return out


# ---------------------------------------------------------------------------
# Batch normalization (fused training path)
# ---------------------------------------------------------------------------


class BatchNormTrainFn(Function):
    """Training-mode batch norm as one graph node.

    Computes the batch statistics inside ``forward`` (so a traced replay
    recomputes them from live activations -- they are data-dependent
    state, not capture-time constants), normalizes and scales/shifts in
    a single fused forward kernel; the backward is the analytic
    batch-norm gradient -- mathematically the exact derivative of the
    composed mean/sub/mul/div graph, collapsed to one kernel call.
    Backends that advertise ``fused_batchnorm`` (fast) route batch-norm
    layers through this node; reference keeps the composed graph
    bit-identical.  The layer reads ``mean``/``var`` off the node after
    ``apply`` to update its running statistics.
    """

    extra_saved = ("mean", "var")

    def __init__(self, axes: Tuple[int, ...], eps: float) -> None:
        super().__init__()
        self.mean = None
        self.var = None
        self.axes, self.eps = tuple(axes), float(eps)

    def forward(self, x, gamma, beta):
        K = _backend.active()
        mean, var = K.batchnorm_stats(x, self.axes)
        self.mean, self.var = mean, var
        out, xhat, inv_std = K.batchnorm_train_forward(
            x, mean, var, gamma, beta, self.eps
        )
        self.save_for_backward(xhat, inv_std, gamma)
        return out

    def backward(self, grad):
        xhat, inv_std, gamma = self.saved
        return _backend.active().batchnorm_train_backward(
            grad, xhat, inv_std, gamma, self.axes
        )


# ---------------------------------------------------------------------------
# Pooling
# ---------------------------------------------------------------------------


class MaxPool2dFn(Function):
    # the argmax map is as large as the pooled output; let the tape
    # planner release it with the rest of the backward state
    extra_saved = ("_argmax",)

    def __init__(self, kernel: int, stride: Optional[int] = None) -> None:
        super().__init__()
        self.kernel = int(kernel)
        self.stride = int(stride) if stride is not None else int(kernel)

    def forward(self, x):
        out, argmax = _backend.active().maxpool2d_forward(x, self.kernel, self.stride)
        self._argmax = argmax
        self._x_shape = x.shape
        return out

    def backward(self, grad):
        return (
            _backend.active().maxpool2d_backward(
                grad, self._argmax, self._x_shape, self.kernel, self.stride
            ),
        )


class AvgPool2dFn(Function):
    def __init__(self, kernel: int, stride: Optional[int] = None) -> None:
        super().__init__()
        self.kernel = int(kernel)
        self.stride = int(stride) if stride is not None else int(kernel)

    def forward(self, x):
        self._x_shape = x.shape
        return _backend.active().avgpool2d_forward(x, self.kernel, self.stride)

    def backward(self, grad):
        return (
            _backend.active().avgpool2d_backward(
                grad, self._x_shape, self.kernel, self.stride
            ),
        )


def _pool_args(x, kernel, stride):
    x_data = x.data if isinstance(x, Tensor) else np.asarray(x)
    return x_data, int(kernel), int(stride) if stride is not None else int(kernel)


def max_pool2d(x, kernel: int, stride: Optional[int] = None) -> Tensor:
    if not is_grad_enabled():
        x_data, k, s = _pool_args(x, kernel, stride)
        return Tensor(_backend.active().maxpool2d_infer(x_data, k, s))
    return MaxPool2dFn.apply(x, kernel=kernel, stride=stride)


def avg_pool2d(x, kernel: int, stride: Optional[int] = None) -> Tensor:
    if not is_grad_enabled():
        x_data, k, s = _pool_args(x, kernel, stride)
        return Tensor(_backend.active().avgpool2d_forward(x_data, k, s))
    return AvgPool2dFn.apply(x, kernel=kernel, stride=stride)


def global_avg_pool2d(x) -> Tensor:
    """Average each channel's spatial map down to a single value."""
    from repro.autograd import functional as F
    return F.mean(x, axis=(2, 3))


# ---------------------------------------------------------------------------
# Softmax and the fused cross-entropy loss
# ---------------------------------------------------------------------------


def _log_softmax_array(logits: np.ndarray) -> np.ndarray:
    return _backend.active().log_softmax(logits)


class LogSoftmax(Function):
    def forward(self, logits):
        out = _log_softmax_array(logits)
        self.save_for_backward(out)
        return out

    def backward(self, grad):
        (out,) = self.saved
        softmax_vals = np.exp(out)
        return (grad - softmax_vals * grad.sum(axis=1, keepdims=True),)


class SoftmaxCrossEntropy(Function):
    """Mean cross-entropy between logits and integer class targets.

    Fusing the softmax into the loss keeps the computation numerically
    stable and makes the backward pass the textbook ``softmax - onehot``.
    """

    def __init__(self, targets: np.ndarray) -> None:
        super().__init__()
        self.targets = np.asarray(targets, dtype=np.int64)

    def forward(self, logits):
        if logits.ndim != 2:
            raise ShapeError(f"cross-entropy expects (batch, classes) logits, got {logits.shape}")
        if self.targets.shape != (logits.shape[0],):
            raise ShapeError(
                f"targets shape {self.targets.shape} does not match batch {logits.shape[0]}"
            )
        log_probs = _log_softmax_array(logits)
        self.save_for_backward(log_probs)
        batch = logits.shape[0]
        return np.asarray(-log_probs[np.arange(batch), self.targets].mean())

    def backward(self, grad):
        (log_probs,) = self.saved
        batch = log_probs.shape[0]
        grad_logits = np.exp(log_probs)
        grad_logits[np.arange(batch), self.targets] -= 1.0
        return (grad_logits * (np.asarray(grad) / batch),)


def log_softmax(logits) -> Tensor:
    return LogSoftmax.apply(logits)


def softmax(logits) -> Tensor:
    from repro.autograd import functional as F
    return F.exp(log_softmax(logits))


def softmax_cross_entropy(logits, targets) -> Tensor:
    """Mean cross-entropy loss; ``targets`` is an int array of class ids."""
    if isinstance(targets, Tensor):
        targets = targets.data
    return SoftmaxCrossEntropy.apply(logits, targets=targets)

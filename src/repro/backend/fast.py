"""Fast backend: tap-slice gathers, slice-accumulation col2im, fused kernels.

Overrides the hot kernels of :mod:`repro.backend.reference` with
implementations that avoid repeated work, and falls back to reference
for everything else.  All outputs must stay ``allclose`` (rtol <=
1e-6) to reference on every registered kernel, and equal to it on the
data-movement kernels (``equivalence.EXACT``) -- the equivalence suite
(:mod:`repro.backend.equivalence`) enforces this on randomized shapes.

What makes it fast:

* **Tap-slice patch gather.**  Reference gathers conv patches with
  int64 index arrays and then transposes the result;
  :func:`_gather_rows` reads the input channels-first/batch-last and
  copies one strided slice per kernel tap straight into the final
  column layout, for any range of output rows.  It only moves data, so
  its columns are ``array_equal`` to reference's and every matmul sees
  the same operands (see :func:`_gather`).
* **Row-blocked inference conv.**  ``conv2d_infer`` gathers and
  multiplies one block of output rows at a time (about 512 KB of
  patches, in one flat pooled buffer) instead of writing and re-reading
  the whole patch matrix -- 19 MB at batch 64 on a 32x32 layer -- and
  each GEMM writes straight into its columns of the output.  The result
  is byte-equal to the one-shot GEMM: OpenBLAS's bytes depend on a
  GEMM's size (its small-matrix kernels, its tile and thread
  partitions), so every block has at least 2**20 multiply-adds and a
  64-aligned column count, and outputs whose column count is not
  64-aligned keep one GEMM (see :func:`_row_blocks`).  Where the
  one-shot GEMM is batch-invariant -- rows ``[:N]`` of a batch-128
  forward equal a batch-N forward, as on every conv of resnet8_tiny
  and simple_cnn at 32x32 -- the blocked one is too, so a served
  image's conv outputs do not depend on the batch it was coalesced
  into.
* **Slice-accumulation col2im.**  Reference ``col2im`` uses
  ``np.add.at``, an order of magnitude slower than one vectorized
  strided ``+=`` per kernel tap into a batch-last accumulator that
  matches cols' memory order (see :func:`col2im`).
* **Fused conv+bias+relu inference** (``conv2d_infer``) adds the bias
  in-place on the matmul output and applies relu with ``out=``,
  skipping two full-tensor allocations per call.
* **Batch-last inference.**  ``conv2d_infer`` and ``maxpool2d_infer``
  return NCHW-shaped views over ``(C, H, W, N)`` memory -- the layout
  the matmul writes and :func:`_gather` reads -- and numpy's
  elementwise ops (batch norm, relu, the residual add) keep that
  order, so activations stay batch-last from stem to pool with no
  transpose copies.  Layout only changes the bytes of a reduction:
  ``reduce_sum``/``reduce_mean`` reduce a contiguous copy (a no-op on
  contiguous input), and ``MatMul`` hands BLAS its left operand as
  rows, so every result equals the contiguous forward's byte for byte.
  Training kernels never see these views.
* **Scratch-buffer pools.**  Padded inputs (only their border is
  zeroed), matmul outputs, the inference conv's block buffer, and the
  flattened-gradient intermediates of ``conv2d_backward`` are recycled
  through a small (shape, dtype)-keyed pool, avoiding repeated
  multi-megabyte mmap/page-fault cycles.  Pools hold *internal*
  scratch only -- anything a kernel returns or that an op saves for
  backward (e.g. the ``cols`` patch matrix) is always freshly
  allocated, because pooled memory is reused on the next call and
  would corrupt saved state.
* **Gradient skipping.**  ``conv2d_backward(need_input_grad=False)``
  omits the input-gradient matmul and scatter entirely for graph
  leaves (the data batch feeding the first layer never needs one).
* **One-pass batchnorm statistics** (``E[x^2] - mean^2``), an
  inference batchnorm with precomputed scale/shift, and a fused
  batch-norm training step (forward and analytic backward as single
  kernels instead of ~20 composed elementwise graph ops).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.backend import reference
from repro.backend.registry import Backend

BACKEND = Backend("fast", fallback=reference.BACKEND)


# ---------------------------------------------------------------------------
# Scratch-buffer pool (internal scratch ONLY -- never for returned arrays)
# ---------------------------------------------------------------------------


class BufferPool:
    """Recycles fixed-shape scratch arrays keyed by (shape, dtype).

    ``take`` hands out an uninitialized (or stale) buffer; ``give``
    returns it for reuse.  Callers must never ``give`` an array that
    escapes the kernel -- pooled memory is overwritten by the next
    ``take`` of the same shape.
    """

    def __init__(self, max_per_key: int = 4) -> None:
        self.max_per_key = max_per_key
        self._free: Dict[Tuple[Tuple[int, ...], np.dtype], List[np.ndarray]] = {}

    def take(self, shape: Tuple[int, ...], dtype) -> np.ndarray:
        key = (tuple(shape), np.dtype(dtype))
        stack = self._free.get(key)
        if stack:
            return stack.pop()
        return np.empty(shape, dtype=dtype)

    def give(self, array: np.ndarray) -> None:
        key = (array.shape, array.dtype)
        stack = self._free.setdefault(key, [])
        if len(stack) < self.max_per_key:
            stack.append(array)

    def clear(self) -> None:
        self._free.clear()


_pool = BufferPool()


def clear_caches() -> None:
    """Drop all pooled scratch buffers (tests, memory)."""
    _pool.clear()


# ---------------------------------------------------------------------------
# im2col / col2im
# ---------------------------------------------------------------------------


def _batch_last(x: np.ndarray, padding: int) -> np.ndarray:
    """``x`` read channels-first/batch-last, ``(C, Hp, Wp, N)``.

    A transposed view when unpadded; else one copy into pooled scratch
    whose border alone is zeroed (the copy covers the rest), which the
    caller gives back to the pool.
    """
    source = x.transpose(1, 2, 3, 0)
    p = padding
    if p == 0:
        return source
    channels, height, width, batch = source.shape
    padded = _pool.take((channels, height + 2 * p, width + 2 * p, batch), x.dtype)
    padded[:, :p] = 0
    padded[:, -p:] = 0
    padded[:, p:-p, :p] = 0
    padded[:, p:-p, -p:] = 0
    padded[:, p:-p, p:-p, :] = source
    return padded


def _gather_rows(source: np.ndarray, cols: np.ndarray, stride: int, r0: int) -> None:
    """Fill ``cols`` with the patches of output rows ``[r0, r0 + rows)``.

    ``source`` is the batch-last input of :func:`_batch_last` and
    ``cols`` a ``(C, kh, kw, rows, out_w, N)`` array.  Each kernel tap
    fills its ``(C, rows, out_w, N)`` block with one strided slice copy
    -- :func:`col2im`'s pattern in reverse -- so ``cols`` flattens for
    free into reference's ``(C*kh*kw, rows*out_w*N)`` layout.
    """
    _, kh, kw, rows, out_w, _ = cols.shape
    s = stride
    for tap_r in range(kh):
        row_taps = slice(tap_r + s * r0, tap_r + s * (r0 + rows), s)
        for tap_c in range(kw):
            cols[:, tap_r, tap_c] = source[:, row_taps, tap_c:tap_c + s * out_w:s, :]


def _gather(
    x: np.ndarray, kh: int, kw: int, stride: int, padding: int
) -> Tuple[np.ndarray, int, int]:
    """Reference's patch matrix, element for element, by tap slices.

    :func:`_gather_rows` over every output row into a fresh array: the
    result escapes (``conv2d_forward`` returns it), so it is never
    pooled.  Returns ``(cols, out_h, out_w)``.
    """
    batch, channels, height, width = x.shape
    out_h = reference.conv_output_size(height, kh, stride, padding)
    out_w = reference.conv_output_size(width, kw, stride, padding)
    source = _batch_last(x, padding)
    cols = np.empty((channels, kh, kw, out_h, out_w, batch), dtype=x.dtype)
    _gather_rows(source, cols, stride, 0)
    if padding:
        _pool.give(source)
    return cols.reshape(channels * kh * kw, -1), out_h, out_w


@BACKEND.register()
def im2col(x: np.ndarray, kh: int, kw: int, stride: int, padding: int) -> np.ndarray:
    return _gather(x, kh, kw, stride, padding)[0]


@BACKEND.register()
def col2im(
    cols: np.ndarray,
    shape: Tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Strided slice-accumulation; same dtype/contiguity contract as reference.

    One vectorized ``+=`` per kernel tap (kh*kw of them) into a
    channels-first/batch-last accumulator whose memory order matches
    cols' own ``(C, kh, kw, L, batch)`` layout, so every add is a
    locality-friendly strided pass.  This touches each cols element
    exactly once with no index arrays at all -- faster than both
    ``np.add.at`` (reference) and a bincount scatter, which must stream
    an equally large int64 index array through memory.
    """
    batch, channels, height, width = shape
    p = padding
    padded_h, padded_w = height + 2 * p, width + 2 * p
    out_h = reference.conv_output_size(height, kh, stride, padding)
    out_w = reference.conv_output_size(width, kw, stride, padding)
    patches = cols.reshape(channels, kh, kw, out_h, out_w, batch)
    # accumulate in (C, H, W, batch) so slice adds match cols' memory
    # order; the dtype follows cols (the float32 contract holds by
    # construction -- no float64 round trip)
    padded = np.zeros((channels, padded_h, padded_w, batch), dtype=cols.dtype)
    s = stride
    for tap_r in range(kh):
        for tap_c in range(kw):
            padded[:, tap_r:tap_r + s * out_h:s, tap_c:tap_c + s * out_w:s, :] += (
                patches[:, tap_r, tap_c]
            )
    core = padded if p == 0 else padded[:, p:padded_h - p, p:padded_w - p, :]
    return np.ascontiguousarray(core.transpose(3, 0, 1, 2))


# ---------------------------------------------------------------------------
# Convolution
# ---------------------------------------------------------------------------


@BACKEND.register()
def conv2d_forward(
    x: np.ndarray, weight: np.ndarray, stride: int, padding: int
) -> Tuple[np.ndarray, np.ndarray]:
    out_channels, _, kh, kw = weight.shape
    cols, out_h, out_w = _gather(x, kh, kw, stride, padding)
    scratch = _pool.take((out_channels, cols.shape[1]), cols.dtype)
    np.matmul(weight.reshape(out_channels, -1), cols, out=scratch)
    out = np.ascontiguousarray(
        scratch.reshape(out_channels, out_h, out_w, x.shape[0]).transpose(3, 0, 1, 2)
    )
    _pool.give(scratch)
    return out, cols


@BACKEND.register()
def conv2d_backward(
    grad: np.ndarray,
    cols: np.ndarray,
    weight: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    stride: int,
    padding: int,
    need_input_grad: bool = True,
) -> Tuple[Optional[np.ndarray], np.ndarray]:
    """Weight/input gradients; ``need_input_grad=False`` skips the input half.

    The skip saves the grad_cols matmul and the col2im scatter for graph
    leaves that do not require grad (e.g. the data batch feeding the
    first conv layer).  Large intermediates live in pooled scratch.
    """
    out_channels, _, kh, kw = weight.shape
    batch, out_h, out_w = grad.shape[0], grad.shape[2], grad.shape[3]
    grad_flat = _pool.take((out_channels, batch * out_h * out_w), grad.dtype)
    np.copyto(
        grad_flat.reshape(out_channels, out_h, out_w, batch),
        grad.transpose(1, 2, 3, 0),
    )
    grad_weight = (grad_flat @ cols.T).reshape(weight.shape)
    grad_x = None
    if need_input_grad:
        grad_cols = _pool.take(cols.shape, grad.dtype)
        np.matmul(weight.reshape(out_channels, -1).T, grad_flat, out=grad_cols)
        grad_x = col2im(grad_cols, x_shape, kh, kw, stride, padding)
        _pool.give(grad_cols)
    _pool.give(grad_flat)
    return grad_x, grad_weight


# The block rule of the row-blocked no-grad conv (see conv2d_infer).
# A block's patch matrix aims at _BLOCK_BYTES, so the gather's writes
# are still in L2 when the GEMM reads them.  The GEMM's bytes must not
# depend on the blocking, or an image's logits would depend on the
# other images in its batch, and OpenBLAS's do depend on a GEMM's size:
# below about 100**3 multiply-adds it may take small-matrix kernels,
# and a column's place in the register tiles and thread partitions
# follows from the column counts.  So every block has at least
# _BLOCK_MIN_MACS multiply-adds and a column count that is a multiple
# of _BLOCK_COL_ALIGN, and only outputs whose total column count is one
# too are blocked.
_BLOCK_BYTES = 512 * 1024
_BLOCK_MIN_MACS = 1 << 20
_BLOCK_COL_ALIGN = 64


def _row_blocks(
    out_channels: int, depth: int, out_h: int, row_cols: int, itemsize: int
) -> Optional[List[int]]:
    """Output-row bounds ``[0, ..., out_h]`` of the blocked GEMMs.

    ``depth`` is the patch length ``C*kh*kw`` and ``row_cols`` the
    columns one output row adds (``out_w * N``).  ``None`` when the
    output's column count is not aligned or there would be fewer than
    two blocks: the caller runs one GEMM.
    """
    row_macs = out_channels * depth * row_cols
    if out_h * row_macs < 2 * _BLOCK_MIN_MACS or out_h * row_cols % _BLOCK_COL_ALIGN:
        return None
    rows = max(_BLOCK_BYTES // (depth * row_cols * itemsize),
               -(-_BLOCK_MIN_MACS // row_macs), 1)
    step = _BLOCK_COL_ALIGN // math.gcd(_BLOCK_COL_ALIGN, row_cols)
    rows = -(-rows // step) * step
    bounds = list(range(0, out_h, rows))
    if (out_h - bounds[-1]) * row_macs < _BLOCK_MIN_MACS:
        bounds.pop()  # a short tail joins the block before it
    if len(bounds) < 2:
        return None
    return bounds + [out_h]


@BACKEND.register()
def conv2d_infer(
    x: np.ndarray,
    weight: np.ndarray,
    bias: Optional[np.ndarray],
    stride: int,
    padding: int,
    relu: bool = False,
) -> np.ndarray:
    """Fused conv+bias+relu, returned as an NCHW view of batch-last memory.

    The matmul writes ``(O, out_h * out_w * N)``, which is already the
    ``(O, out_h, out_w, N)`` layout the next layer's :func:`_gather`
    reads; the epilogue runs in place on it and the result is that
    array transposed to NCHW, with no copy.  It escapes, so it is
    freshly allocated, never pooled.

    When :func:`_row_blocks` splits the output rows, each block's
    patches are gathered into one flat pooled scratch buffer (its
    length a power of two, so a server that sees every batch size
    keeps few of them) and multiplied straight into the block's
    columns of the output, so the patch matrix never leaves cache.
    The bytes are the one-shot GEMM's (see ``_BLOCK_MIN_MACS``).
    """
    out_channels, channels, kh, kw = weight.shape
    batch, _, height, width = x.shape
    out_h = reference.conv_output_size(height, kh, stride, padding)
    out_w = reference.conv_output_size(width, kw, stride, padding)
    depth, row_cols = channels * kh * kw, out_w * batch
    out = np.empty((out_channels, out_h, out_w, batch), dtype=x.dtype)
    flat = out.reshape(out_channels, -1)
    w2d = weight.reshape(out_channels, -1)
    bounds = _row_blocks(out_channels, depth, out_h, row_cols, x.dtype.itemsize)
    if bounds is None:
        cols, _, _ = _gather(x, kh, kw, stride, padding)
        np.matmul(w2d, cols, out=flat)
    else:
        source = _batch_last(x, padding)
        most = max(b - a for a, b in zip(bounds, bounds[1:])) * depth * row_cols
        scratch = _pool.take((1 << (most - 1).bit_length(),), x.dtype)
        for r0, r1 in zip(bounds, bounds[1:]):
            cols = scratch[:(r1 - r0) * depth * row_cols]
            _gather_rows(source, cols.reshape(channels, kh, kw, r1 - r0, out_w, batch),
                         stride, r0)
            np.matmul(w2d, cols.reshape(depth, -1),
                      out=flat[:, r0 * row_cols:r1 * row_cols])
        _pool.give(scratch)
        if padding:
            _pool.give(source)
    if bias is not None:
        flat += bias.reshape(-1, 1)
    if relu:
        np.maximum(flat, 0.0, out=flat)
    return out.transpose(3, 0, 1, 2)


# ---------------------------------------------------------------------------
# Pooling
# ---------------------------------------------------------------------------


@BACKEND.register()
def maxpool2d_forward(
    x: np.ndarray, kernel: int, stride: int
) -> Tuple[np.ndarray, np.ndarray]:
    batch, channels, _, _ = x.shape
    reshaped = x.reshape(batch * channels, 1, *x.shape[2:])
    cols, out_h, out_w = _gather(reshaped, kernel, kernel, stride, 0)
    argmax = np.argmax(cols, axis=0)
    out = cols[argmax, np.arange(cols.shape[1])]
    out = np.ascontiguousarray(
        out.reshape(out_h, out_w, batch * channels).transpose(2, 0, 1)
    ).reshape(batch, channels, out_h, out_w)
    return out, argmax


@BACKEND.register()
def maxpool2d_infer(x: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    """Tap-slice max over ``(C, H, W, N)``; an NCHW view of batch-last memory.

    Reads the input batch-last, as :func:`_gather` does, and folds the
    taps into one fresh ``(C, out_h, out_w, N)`` array with ``maximum``
    in reference's tap order -- the same pairwise maxima as
    ``cols.max(axis=0)``, so NaNs and signed zeros come out the same.
    """
    _, _, height, width = x.shape
    out_h = reference.conv_output_size(height, kernel, stride, 0)
    out_w = reference.conv_output_size(width, kernel, stride, 0)
    source, s = x.transpose(1, 2, 3, 0), stride
    out = np.empty((x.shape[1], out_h, out_w, x.shape[0]), dtype=x.dtype)
    for tap_r in range(kernel):
        for tap_c in range(kernel):
            tap = source[:, tap_r:tap_r + s * out_h:s, tap_c:tap_c + s * out_w:s, :]
            if tap_r == tap_c == 0:
                np.copyto(out, tap)
            else:
                np.maximum(out, tap, out=out)
    return out.transpose(3, 0, 1, 2)


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


# ---------------------------------------------------------------------------
# Reductions
# ---------------------------------------------------------------------------


# No-grad activations may be batch-last views (see conv2d_infer), and
# numpy sums a strided view in another order than the contiguous array:
# the means differ in the last bits.  Reducing a contiguous copy gives
# reference's bytes for any layout and costs nothing on contiguous input.
@BACKEND.register()
def reduce_sum(a: np.ndarray, axis, keepdims: bool) -> np.ndarray:
    return np.asarray(a, order="C").sum(axis=axis, keepdims=keepdims)


@BACKEND.register()
def reduce_mean(a: np.ndarray, axis, keepdims: bool) -> np.ndarray:
    return np.asarray(a, order="C").mean(axis=axis, keepdims=keepdims)


# ---------------------------------------------------------------------------
# Gradient-buffer reuse
# ---------------------------------------------------------------------------


@BACKEND.register()
def broadcast_copy(a: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Pool-backed broadcast: the Sum/Mean backward's full-size gradient.

    These buffers are exactly what ``Tensor.backward`` recycles through
    :data:`recycle_buffer` once consumed, so drawing them from the pool
    closes the reuse loop -- one allocation per (shape, dtype) instead
    of one per op per batch.
    """
    out = _pool.take(tuple(shape), a.dtype)
    np.copyto(out, a)
    return out


# Hook read by ``Tensor.backward``: dead gradient buffers (owned,
# contiguous, provably unaliased) are handed back to the scratch pool
# instead of waiting for the garbage collector.  A plain attribute, not
# a registered kernel -- it has no numeric contract to check.
BACKEND.recycle_buffer = _pool.give


# ---------------------------------------------------------------------------
# Batch normalization
# ---------------------------------------------------------------------------


@BACKEND.register()
def batchnorm_stats(
    x: np.ndarray, axes: Tuple[int, ...]
) -> Tuple[np.ndarray, np.ndarray]:
    """One-pass mean/variance: E[x^2] - mean^2, clamped at zero."""
    mean = x.mean(axis=axes, keepdims=True)
    sq_mean = np.multiply(x, x).mean(axis=axes, keepdims=True)
    var = np.maximum(sq_mean - mean * mean, 0.0)
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
    """Precomputed scale/shift: one multiply-add over x instead of four ops.

    The add runs in place on the product, which keeps ``x``'s layout,
    so a batch-last view costs one output array, not two, and the bytes
    are ``x * scale + shift``'s.
    """
    scale = gamma / np.sqrt(var + eps)
    shift = beta - mean * scale
    out = x * scale
    out += shift
    return out


@BACKEND.register()
def batchnorm_train_forward(
    x: np.ndarray,
    mean: np.ndarray,
    var: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    eps: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reference formula with in-place epilogues (two fewer temporaries).

    ``xhat`` and ``out`` escape the kernel (one is saved for backward,
    the other returned), so both own fresh memory -- only the
    intermediate products are folded in place.
    """
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = x - mean
    xhat *= inv_std
    out = xhat * gamma
    out += beta
    return out, xhat, inv_std


@BACKEND.register()
def batchnorm_train_backward(
    grad: np.ndarray,
    xhat: np.ndarray,
    inv_std: np.ndarray,
    gamma: np.ndarray,
    axes: Tuple[int, ...],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Analytic backward (see reference) with a reused full-size scratch."""
    count = 1
    for axis in axes:
        count *= grad.shape[axis]
    grad_beta = grad.sum(axis=axes, keepdims=True)
    scaled = grad * xhat
    grad_gamma = scaled.sum(axis=axes, keepdims=True)
    # `scaled` already served its purpose; reuse it for the xhat term
    np.multiply(xhat, grad_gamma / count, out=scaled)
    grad_x = grad - grad_beta / count
    grad_x -= scaled
    grad_x *= gamma * inv_std
    return grad_x, grad_gamma, grad_beta


# Capability flag read by the batch-norm layers: when the active
# backend advertises it, training-mode batch norm dispatches through
# the fused batchnorm_train_forward/backward kernels above instead of
# composing ~20 elementwise graph ops.  Reference deliberately does not
# set it -- its training path must stay the bit-identical composed
# graph (backends inheriting from fast inherit the flag via fallback).
BACKEND.fused_batchnorm = True

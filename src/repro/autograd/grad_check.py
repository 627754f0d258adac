"""Numerical gradient verification.

``grad_check`` compares analytic gradients from the autograd engine
against central finite differences.  It is used throughout the test
suite to certify every op's backward pass.

Finite differencing evaluates the function twice per input element, so
for large inputs the probes dominate; ``workers > 1`` fans contiguous
element slices across a :class:`repro.parallel.WorkerPool`.  The
result is bit-identical to the serial computation -- each probe
depends only on its element index, never on the partitioning.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.autograd.tensor import Tensor


def _fd_probe_slice(
    fn: Callable[..., Tensor],
    inputs: Sequence[np.ndarray],
    index: int,
    eps: float,
    start: int,
    stop: int,
) -> List[float]:
    """Central differences for elements [start, stop) of input ``index``."""
    base = [np.array(arr, dtype=np.float64) for arr in inputs]
    target = base[index].reshape(-1)
    values: List[float] = []
    for i in range(start, stop):
        original = target[i]
        target[i] = original + eps
        plus = fn(*[Tensor(a) for a in base]).item()
        target[i] = original - eps
        minus = fn(*[Tensor(a) for a in base]).item()
        target[i] = original
        values.append((plus - minus) / (2.0 * eps))
    return values


def numerical_gradient(
    fn: Callable[..., Tensor],
    inputs: Sequence[np.ndarray],
    index: int,
    eps: float = 1e-5,
    workers: Optional[int] = None,
) -> np.ndarray:
    """Central finite-difference gradient of scalar ``fn`` w.r.t. one input.

    ``workers > 1`` distributes element probes across processes; the
    gradient is identical to the serial result.
    """
    base = [np.array(arr, dtype=np.float64) for arr in inputs]
    size = base[index].size
    if workers is not None and workers > 1 and size > 1:
        from repro.parallel.pool import Task, WorkerPool

        pool = WorkerPool(max_workers=workers)
        step = math.ceil(size / (pool.max_workers * 2))
        bounds = [(s, min(s + step, size)) for s in range(0, size, step)]
        outcomes = pool.run([
            Task(_fd_probe_slice, (fn, base, index, eps, start, stop))
            for start, stop in bounds
        ])
        flat = np.empty(size, dtype=np.float64)
        for (start, stop), outcome in zip(bounds, outcomes):
            if not outcome.ok:
                raise RuntimeError(
                    f"finite-difference probe [{start}:{stop}] failed "
                    f"({outcome.error_kind}): {outcome.error}"
                )
            flat[start:stop] = outcome.value
        return flat.reshape(base[index].shape)
    return np.asarray(
        _fd_probe_slice(fn, base, index, eps, 0, size), dtype=np.float64
    ).reshape(base[index].shape)


#: Tolerance floors applied when the analytic pass runs in float32.
#: The FD oracle stays float64 (accurate to ~1e-8 relative), so the
#: comparison noise is the float32 rounding of the analytic pass
#: itself, amplified by reduction depth -- hence the looser floors.
FLOAT32_RTOL = 2e-3
FLOAT32_ATOL = 2e-4


def grad_check(
    fn: Callable[..., Tensor],
    inputs: Sequence[np.ndarray],
    eps: float = 1e-5,
    atol: float = 1e-6,
    rtol: float = 1e-4,
    workers: Optional[int] = None,
    dtype: Optional[np.dtype] = None,
) -> bool:
    """Verify analytic gradients of a scalar-valued tensor function.

    Args:
        fn: function mapping input Tensors to a scalar Tensor.
        inputs: numpy arrays; the gradient is checked w.r.t. each.
        eps: finite-difference step.
        atol / rtol: tolerances for the comparison.
        workers: fan finite-difference probes across this many worker
            processes (``None``/``1`` = serial; the verdict and all
            compared values are identical either way).
        dtype: dtype for the analytic forward/backward pass (default
            float64).  The finite-difference oracle always evaluates in
            float64 regardless; with ``dtype=np.float32`` the
            tolerances are widened to at least :data:`FLOAT32_RTOL` /
            :data:`FLOAT32_ATOL` to absorb single-precision rounding.

    Returns:
        True when every analytic gradient matches its numerical estimate.

    Raises:
        AssertionError: with a diagnostic message on mismatch.
    """
    check_dtype = np.dtype(dtype) if dtype is not None else np.dtype(np.float64)
    if check_dtype == np.dtype(np.float32):
        atol = max(atol, FLOAT32_ATOL)
        rtol = max(rtol, FLOAT32_RTOL)
    tensors = [Tensor(np.array(arr, dtype=check_dtype), requires_grad=True)
               for arr in inputs]
    out = fn(*tensors)
    out.backward()
    for index, tensor in enumerate(tensors):
        analytic = tensor.grad
        if analytic is None:
            raise AssertionError(f"input {index} received no gradient")
        numeric = numerical_gradient(fn, [t.data for t in tensors], index,
                                     eps=eps, workers=workers)
        if not np.allclose(analytic, numeric, atol=atol, rtol=rtol):
            worst = np.abs(analytic - numeric).max()
            raise AssertionError(
                f"gradient mismatch on input {index}: max abs error {worst:.3e}\n"
                f"analytic:\n{analytic}\nnumeric:\n{numeric}"
            )
    return True

"""Numerical gradient verification.

``grad_check`` compares analytic gradients from the autograd engine
against central finite differences.  It is used throughout the test
suite to certify every op's backward pass.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from repro.autograd.tensor import Tensor


def numerical_gradient(
    fn: Callable[..., Tensor],
    inputs: Sequence[np.ndarray],
    index: int,
    eps: float = 1e-5,
) -> np.ndarray:
    """Central finite-difference gradient of scalar ``fn`` w.r.t. one input."""
    base = [np.array(arr, dtype=np.float64) for arr in inputs]
    target = base[index].reshape(-1)
    grad = np.empty(target.size, dtype=np.float64)
    for i in range(target.size):
        original = target[i]
        target[i] = original + eps
        plus = fn(*[Tensor(a) for a in base]).item()
        target[i] = original - eps
        minus = fn(*[Tensor(a) for a in base]).item()
        target[i] = original
        grad[i] = (plus - minus) / (2.0 * eps)
    return grad.reshape(base[index].shape)


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
    dtype: Optional[np.dtype] = None,
) -> bool:
    """Verify analytic gradients of a scalar-valued tensor function.

    Args:
        fn: function mapping input Tensors to a scalar Tensor.
        inputs: numpy arrays; the gradient is checked w.r.t. each.
        eps: finite-difference step.
        atol / rtol: tolerances for the comparison.
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
                                     eps=eps)
        if not np.allclose(analytic, numeric, atol=atol, rtol=rtol):
            worst = np.abs(analytic - numeric).max()
            raise AssertionError(
                f"gradient mismatch on input {index}: max abs error {worst:.3e}\n"
                f"analytic:\n{analytic}\nnumeric:\n{numeric}"
            )
    return True

"""Process-wide compute-precision policy.

Every tensor the reproduction creates used to be silently float64.  The
paper's pipeline is numerically tolerant of float32 training (the
quantization stage discards far more precision than the dtype does), and
halving the bytes every kernel moves is the cheapest remaining CPU
speedup -- so float32 is the default *compute* dtype.

The policy governs where a dtype has to be invented: int/bool tensor
promotion, python-scalar tensors, :class:`~repro.nn.module.Parameter`
construction, module buffers and DataLoader batch materialization.
``Tensor`` construction still keeps an explicit float numpy array's
dtype -- feeding float64 arrays through a float64 model computes in
float64 end to end, which is what keeps the ``--dtype float64``
reference path bit-identical to the pre-policy code.  Evaluation and
serving cast their inputs to the model's parameter dtype
(:func:`cast_to_model`), so a float32 model evaluates in float32 even
on a float64 batch such as ``images_to_batch`` returns.

Metrics that feed paper tables (PSNR/SSIM/MAPE, the Eq. 2 Pearson
probe, decoding) accumulate in :data:`METRICS_DTYPE` (float64)
regardless of the active policy, so reported numbers stay stable across
compute precisions.

Usage::

    from repro import precision

    precision.default_dtype()            # np.dtype('float32')
    with precision.use_dtype("float64"): # scoped override
        model = resnet8_tiny()           # float64 parameters
    precision.set_default_dtype("float64")  # process-wide

The CLI exposes the same switch as a global ``--dtype`` flag.
"""

from __future__ import annotations

import contextlib
from typing import Any, Iterator, Optional, Union

import numpy as np

from repro.errors import ConfigError

DTypeLike = Union[str, type, np.dtype]

#: The dtypes a compute policy may select.  Training in float16 is not
#: supported by the pure-numpy kernels (no loss scaling), and anything
#: wider than float64 buys nothing on CPU.
COMPUTE_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

#: Paper-table metrics (PSNR/SSIM/MAPE, Pearson correlation, decode)
#: always accumulate in this dtype, independent of the active policy.
METRICS_DTYPE = np.dtype(np.float64)

_default: np.dtype = np.dtype(np.float32)


def normalize_dtype(dtype: DTypeLike) -> np.dtype:
    """Validate and canonicalize a user-supplied compute dtype."""
    try:
        dt = np.dtype(dtype)
    except TypeError as exc:
        raise ConfigError(f"not a dtype: {dtype!r}") from exc
    if dt not in COMPUTE_DTYPES:
        allowed = ", ".join(d.name for d in COMPUTE_DTYPES)
        raise ConfigError(
            f"unsupported compute dtype {dt.name!r}; choose one of: {allowed}"
        )
    return dt


def default_dtype() -> np.dtype:
    """The active default compute dtype."""
    return _default


def set_default_dtype(dtype: Optional[DTypeLike]) -> np.dtype:
    """Set the process-wide compute dtype; returns the previous one.

    ``None`` is a no-op (the previous policy is still returned), so
    callers can thread an optional dtype without branching.
    """
    global _default
    previous = _default
    if dtype is not None:
        _default = normalize_dtype(dtype)
    return previous


@contextlib.contextmanager
def use_dtype(dtype: Optional[DTypeLike]) -> Iterator[np.dtype]:
    """Scope the default compute dtype; restores the previous on exit."""
    previous = set_default_dtype(dtype)
    try:
        yield _default
    finally:
        set_default_dtype(previous)


def resolve(dtype: Optional[DTypeLike] = None) -> np.dtype:
    """An explicit dtype if given, else the active policy default."""
    return _default if dtype is None else normalize_dtype(dtype)


def cast_to_model(model: Any, inputs: np.ndarray) -> np.ndarray:
    """``inputs`` as a float array of ``model``'s parameter dtype.

    The one rule of no-grad evaluation and serving: the forward runs at
    the model's precision, not the input's.  The dtype is read off the
    first of ``named_parameters()``, taken lazily: a served batch pays
    for one step of the module walk, not the whole parameter list.
    Non-float arrays, and models that expose no ``named_parameters()``
    (duck-typed wrappers) or have no parameter, pass through unchanged;
    so does an input already at the parameter dtype (no copy).
    """
    inputs = np.asarray(inputs)
    named_parameters = getattr(model, "named_parameters", None)
    if inputs.dtype.kind != "f" or named_parameters is None:
        return inputs
    first = next(named_parameters(), None)
    if first is None:
        return inputs
    return inputs.astype(first[1].data.dtype, copy=False)

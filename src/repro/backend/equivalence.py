"""Backend-equivalence harness: every kernel vs the reference oracle.

Every kernel name registered on any backend has a *case generator*
here that produces randomized-but-valid inputs.  ``check_kernel`` runs
one kernel on two backends with identical inputs and compares outputs:
float arrays must agree to ``allclose`` (default rtol 1e-6), integer
arrays (argmax, cluster indices) must match exactly, and so must every
output of an :data:`EXACT` kernel, which only moves or selects input
elements or reduces them in a fixed order.

The oracle defines each kernel on C-contiguous operands.  The cases on
the no-grad path sometimes feed the candidate a batch-last view -- an
NCHW-shaped transpose of ``(C, H, W, N)`` memory, which is what fast's
inference kernels return -- and the candidate must still give the
oracle's answer for the same values laid out contiguously.

This is the contract that lets the fast backend exist at all -- any
new backend (or new kernel on an existing backend) is expected to pass
``check_all`` against reference before it ships.  The test suite
(tests/backend/test_equivalence.py) drives this module over many seeds
and shapes.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

import numpy as np

from repro.backend.registry import Backend, get_backend

RTOL = 1e-6
ATOL = 1e-9

#: Kernels that move or select input elements without arithmetic, and
#: the reductions, whose summation order must not depend on the input's
#: layout: any backend must reproduce the oracle's outputs exactly, so a
#: mis-ordered patch column, a wrong pick or a reordered sum cannot hide
#: inside a tolerance.
EXACT = frozenset({"im2col", "maxpool2d_forward", "maxpool2d_infer",
                   "broadcast_copy", "reduce_sum", "reduce_mean"})

CaseGen = Callable[[np.random.Generator], Tuple[tuple, dict]]

# Kernel name -> generator of (args, kwargs).  Shapes are randomized
# within ranges small enough to run hundreds of cases per second but
# varied enough to cover stride/padding/kernel interactions.
CASES: Dict[str, CaseGen] = {}


def case(name: str) -> Callable[[CaseGen], CaseGen]:
    def decorate(fn: CaseGen) -> CaseGen:
        CASES[name] = fn
        return fn
    return decorate


def _conv_geometry(rng: np.random.Generator):
    """A random valid NCHW/OIHW conv configuration."""
    batch = int(rng.integers(1, 4))
    channels = int(rng.integers(1, 4))
    kernel = int(rng.integers(1, 4))
    stride = int(rng.integers(1, 3))
    padding = int(rng.integers(0, 3))
    min_size = max(kernel - 2 * padding, 1)
    height = min_size + int(rng.integers(0, 6))
    width = min_size + int(rng.integers(0, 6))
    return batch, channels, height, width, kernel, stride, padding


def _activation(rng: np.random.Generator, shape: Tuple[int, ...]) -> np.ndarray:
    """A normal array of ``shape``; half the time a batch-last view.

    The view holds ``shape[1:] + shape[:1]`` memory with the leading
    axis moved to the back, as fast's no-grad kernels return it.
    """
    if len(shape) > 1 and rng.integers(0, 2):
        return np.moveaxis(rng.normal(size=shape[1:] + shape[:1]), -1, 0)
    return rng.normal(size=shape)


def _pool_geometry(rng: np.random.Generator):
    """Pooling geometry including the stride != kernel case."""
    batch = int(rng.integers(1, 4))
    channels = int(rng.integers(1, 4))
    kernel = int(rng.integers(1, 4))
    stride = int(rng.integers(1, 4))
    height = kernel + int(rng.integers(0, 6))
    width = kernel + int(rng.integers(0, 6))
    return batch, channels, height, width, kernel, stride


@case("im2col")
def _case_im2col(rng):
    b, c, h, w, k, s, p = _conv_geometry(rng)
    x = rng.normal(size=(b, c, h, w))
    return (x, k, k, s, p), {}


@case("col2im")
def _case_col2im(rng):
    b, c, h, w, k, s, p = _conv_geometry(rng)
    from repro.backend.reference import im2col_indices

    _, _, _, out_h, out_w = im2col_indices((b, c, h, w), k, k, s, p)
    cols = rng.normal(size=(c * k * k, b * out_h * out_w))
    return (cols, (b, c, h, w), k, k, s, p), {}


@case("conv2d_forward")
def _case_conv2d_forward(rng):
    b, c, h, w, k, s, p = _conv_geometry(rng)
    out_channels = int(rng.integers(1, 5))
    x = rng.normal(size=(b, c, h, w))
    weight = rng.normal(size=(out_channels, c, k, k))
    return (x, weight, s, p), {}


@case("conv2d_backward")
def _case_conv2d_backward(rng):
    b, c, h, w, k, s, p = _conv_geometry(rng)
    out_channels = int(rng.integers(1, 5))
    from repro.backend.reference import im2col_indices

    _, _, _, out_h, out_w = im2col_indices((b, c, h, w), k, k, s, p)
    grad = rng.normal(size=(b, out_channels, out_h, out_w))
    cols = rng.normal(size=(c * k * k, b * out_h * out_w))
    weight = rng.normal(size=(out_channels, c, k, k))
    return (grad, cols, weight, (b, c, h, w), s, p), {}


@case("conv2d_infer")
def _case_conv2d_infer(rng):
    """The random small geometry, or one time in four a wide one: 8
    images of 6-8 channels at 32x32 into 8-16 channels, a GEMM large
    enough that fast multiplies it in blocks of output rows."""
    if rng.integers(0, 4):
        b, c, h, w, k, s, p = _conv_geometry(rng)
        out_channels = int(rng.integers(1, 5))
    else:
        b, c, h, w, k, s, p = 8, int(rng.integers(6, 9)), 32, 32, 3, 1, 1
        out_channels = int(rng.integers(8, 17))
    x = _activation(rng, (b, c, h, w))
    weight = rng.normal(size=(out_channels, c, k, k))
    bias = rng.normal(size=out_channels) if rng.integers(0, 2) else None
    relu = bool(rng.integers(0, 2))
    return (x, weight, bias, s, p), {"relu": relu}


@case("maxpool2d_forward")
def _case_maxpool2d_forward(rng):
    b, c, h, w, k, s = _pool_geometry(rng)
    x = rng.normal(size=(b, c, h, w))
    return (x, k, s), {}


@case("maxpool2d_backward")
def _case_maxpool2d_backward(rng):
    from repro.backend.reference import maxpool2d_forward

    b, c, h, w, k, s = _pool_geometry(rng)
    x = rng.normal(size=(b, c, h, w))
    out, argmax = maxpool2d_forward(x, k, s)
    grad = rng.normal(size=out.shape)
    return (grad, argmax, (b, c, h, w), k, s), {}


@case("maxpool2d_infer")
def _case_maxpool2d_infer(rng):
    b, c, h, w, k, s = _pool_geometry(rng)
    x = _activation(rng, (b, c, h, w))
    return (x, k, s), {}


@case("matmul")
def _case_matmul(rng):
    m, k, n = (int(rng.integers(1, 12)) for _ in range(3))
    return (rng.normal(size=(m, k)), rng.normal(size=(k, n))), {}


def _broadcast_pair(rng):
    shape = tuple(int(rng.integers(1, 5)) for _ in range(int(rng.integers(1, 5))))
    a = _activation(rng, shape)
    # sometimes broadcast the second operand
    if rng.integers(0, 2) and len(shape) > 1:
        b = rng.normal(size=shape[-1:])
    else:
        b = _activation(rng, shape)
    return a, b


@case("add")
def _case_add(rng):
    return _broadcast_pair(rng), {}


@case("sub")
def _case_sub(rng):
    return _broadcast_pair(rng), {}


@case("mul")
def _case_mul(rng):
    return _broadcast_pair(rng), {}


@case("neg")
def _case_neg(rng):
    shape = tuple(int(rng.integers(1, 9)) for _ in range(int(rng.integers(1, 4))))
    return (rng.normal(size=shape).astype(np.float32),), {}


@case("div")
def _case_div(rng):
    a, b = _broadcast_pair(rng)
    b = np.sign(b) * (np.abs(b) + 0.5)  # keep divisors away from zero
    return (a, b), {}


@case("relu")
def _case_relu(rng):
    shape = tuple(int(rng.integers(1, 6)) for _ in range(int(rng.integers(1, 5))))
    return (_activation(rng, shape),), {}


def _reduce_args(rng):
    """(a, axis, keepdims): all axes, one axis, or the trailing two
    (global average pooling's spatial axes at 4-D)."""
    ndim = int(rng.integers(1, 5))
    shape = tuple(int(rng.integers(2, 9)) for _ in range(ndim))
    axis = (None, int(rng.integers(0, ndim)), tuple(range(ndim))[-2:])[
        int(rng.integers(0, 3))]
    return _activation(rng, shape), axis, bool(rng.integers(0, 2))


@case("reduce_sum")
def _case_reduce_sum(rng):
    return _reduce_args(rng), {}


@case("reduce_mean")
def _case_reduce_mean(rng):
    return _reduce_args(rng), {}


@case("broadcast_copy")
def _case_broadcast_copy(rng):
    n = int(rng.integers(1, 6))
    m = int(rng.integers(1, 6))
    return (rng.normal(size=(1, m)), (n, m)), {}


@case("log_softmax")
def _case_log_softmax(rng):
    batch = int(rng.integers(1, 8))
    classes = int(rng.integers(2, 10))
    return (rng.normal(size=(batch, classes)) * 5.0,), {}


@case("batchnorm_stats")
def _case_batchnorm_stats(rng):
    b, c = int(rng.integers(2, 5)), int(rng.integers(1, 4))
    if rng.integers(0, 2):
        x = rng.normal(size=(b, c, int(rng.integers(2, 6)), int(rng.integers(2, 6))))
        axes = (0, 2, 3)
    else:
        x = rng.normal(size=(b, c))
        axes = (0,)
    return (x, axes), {}


@case("batchnorm_infer")
def _case_batchnorm_infer(rng):
    b, c, h, w = (int(rng.integers(1, 5)) for _ in range(4))
    x = _activation(rng, (b, c, h, w))
    shape = (1, c, 1, 1)
    mean = rng.normal(size=shape)
    var = np.abs(rng.normal(size=shape)) + 0.1
    gamma = rng.normal(size=shape)
    beta = rng.normal(size=shape)
    return (x, mean, var, gamma, beta, 1e-5), {}


def _bn_train_setup(rng):
    """Input, batch stats, and param tensors for the fused train kernels."""
    if rng.integers(0, 2):
        c = int(rng.integers(1, 4))
        x = rng.normal(size=(int(rng.integers(2, 5)), c,
                             int(rng.integers(2, 6)), int(rng.integers(2, 6))))
        axes, shape = (0, 2, 3), (1, c, 1, 1)
    else:
        c = int(rng.integers(1, 6))
        x = rng.normal(size=(int(rng.integers(2, 8)), c))
        axes, shape = (0,), (1, c)
    mean = x.mean(axis=axes, keepdims=True)
    var = x.var(axis=axes, keepdims=True)
    gamma = rng.normal(size=shape)
    beta = rng.normal(size=shape)
    return x, mean, var, gamma, beta, axes


@case("batchnorm_train_forward")
def _case_batchnorm_train_forward(rng):
    x, mean, var, gamma, beta, _ = _bn_train_setup(rng)
    return (x, mean, var, gamma, beta, 1e-5), {}


@case("batchnorm_train_backward")
def _case_batchnorm_train_backward(rng):
    x, mean, var, gamma, _, axes = _bn_train_setup(rng)
    inv_std = 1.0 / np.sqrt(var + 1e-5)
    xhat = (x - mean) * inv_std
    grad = rng.normal(size=x.shape)
    return (grad, xhat, inv_std, gamma, axes), {}


@case("assign_clusters")
def _case_assign_clusters(rng):
    boundaries = np.sort(rng.normal(size=int(rng.integers(3, 9))))
    weights = rng.normal(size=int(rng.integers(1, 64)))
    return (weights, boundaries), {}


@case("sgd_update")
def _case_sgd_update(rng):
    shape = (int(rng.integers(2, 9)), int(rng.integers(2, 17)))
    param = rng.normal(size=shape)
    grad = rng.normal(size=shape)
    momentum = float(rng.choice([0.0, 0.9]))
    # Cover all three velocity states: disabled, first step, warm.
    velocity = None
    if momentum and rng.integers(0, 2):
        velocity = rng.normal(size=shape)
    weight_decay = float(rng.choice([0.0, 5e-4]))
    return (param, grad, velocity, 0.05, momentum, weight_decay), {}


# ---------------------------------------------------------------------------
# Checking
# ---------------------------------------------------------------------------


def _as_tuple(out: Any) -> Tuple[Any, ...]:
    return out if isinstance(out, tuple) else (out,)


def _contiguous(args: tuple, kwargs: dict) -> Tuple[tuple, dict]:
    """Copies of (args, kwargs) with every ndarray in C order: the layout
    the oracle is defined on (views of any other layout are the
    candidate's to handle)."""
    def canon(value):
        if isinstance(value, np.ndarray):
            return np.asarray(value, order="C")
        return value
    return tuple(canon(a) for a in args), {k: canon(v) for k, v in kwargs.items()}


def compare_outputs(
    kernel_name: str, expected: Any, got: Any, rtol: float = RTOL, atol: float = ATOL
) -> None:
    """Assert two kernel outputs agree (exact for ints and :data:`EXACT`
    kernels, allclose for other floats)."""
    expected_t, got_t = _as_tuple(expected), _as_tuple(got)
    assert len(expected_t) == len(got_t), (
        f"{kernel_name}: output arity {len(got_t)} != {len(expected_t)}"
    )
    for idx, (ref_out, new_out) in enumerate(zip(expected_t, got_t)):
        if ref_out is None or new_out is None:
            assert ref_out is None and new_out is None, (
                f"{kernel_name}[{idx}]: one output is None, the other is not"
            )
            continue
        ref_arr, new_arr = np.asarray(ref_out), np.asarray(new_out)
        assert ref_arr.shape == new_arr.shape, (
            f"{kernel_name}[{idx}]: shape {new_arr.shape} != {ref_arr.shape}"
        )
        assert ref_arr.dtype == new_arr.dtype, (
            f"{kernel_name}[{idx}]: dtype {new_arr.dtype} != {ref_arr.dtype}"
        )
        if np.issubdtype(ref_arr.dtype, np.integer) or ref_arr.dtype == bool:
            assert np.array_equal(ref_arr, new_arr), (
                f"{kernel_name}[{idx}]: integer outputs differ"
            )
        elif kernel_name in EXACT:
            assert np.array_equal(ref_arr, new_arr), (
                f"{kernel_name}[{idx}]: data-movement outputs differ"
            )
        else:
            np.testing.assert_allclose(
                new_arr, ref_arr, rtol=rtol, atol=atol,
                err_msg=f"{kernel_name}[{idx}]",
            )


def check_kernel(
    kernel_name: str,
    candidate,
    oracle="reference",
    seed: int = 0,
    trials: int = 5,
    rtol: float = RTOL,
    atol: float = ATOL,
) -> int:
    """Run ``trials`` randomized cases of one kernel on both backends."""
    if kernel_name not in CASES:
        raise KeyError(f"no equivalence case registered for kernel {kernel_name!r}")
    candidate_b: Backend = get_backend(candidate)
    oracle_b: Backend = get_backend(oracle)
    gen = CASES[kernel_name]
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        args, kwargs = gen(rng)
        c_args, c_kwargs = _contiguous(args, kwargs)
        if candidate_b is oracle_b:  # the oracle only answers for C order
            args, kwargs = c_args, c_kwargs
        expected = oracle_b.kernel(kernel_name)(*c_args, **c_kwargs)
        got = candidate_b.kernel(kernel_name)(*args, **kwargs)
        compare_outputs(kernel_name, expected, got, rtol=rtol, atol=atol)
    return trials


def check_all(
    candidate,
    oracle="reference",
    seed: int = 0,
    trials: int = 5,
) -> List[str]:
    """check_kernel over every kernel the candidate can dispatch."""
    candidate_b = get_backend(candidate)
    checked = []
    for name in candidate_b.kernels():
        check_kernel(name, candidate_b, oracle=oracle, seed=seed, trials=trials)
        checked.append(name)
    return checked


# ---------------------------------------------------------------------------
# Dtype axis: each kernel at a compute dtype vs the float64 oracle
# ---------------------------------------------------------------------------

#: Comparison tolerances per compute dtype.  float64 keeps the strict
#: same-precision contract; float32 candidates are compared against the
#: float64 oracle, so the bound absorbs single-precision rounding of
#: the kernel's own reductions (rtol <= 1e-4 per the precision policy).
DTYPE_RTOL: Dict[np.dtype, float] = {
    np.dtype(np.float64): RTOL,
    np.dtype(np.float32): 1e-4,
}
DTYPE_ATOL: Dict[np.dtype, float] = {
    np.dtype(np.float64): ATOL,
    np.dtype(np.float32): 1e-5,
}


def _cast_floats(args: tuple, kwargs: dict, dtype: np.dtype):
    """Copies of (args, kwargs) with every float ndarray cast to dtype."""
    def cast(value):
        if isinstance(value, np.ndarray) and value.dtype.kind == "f":
            return value.astype(dtype)
        return value
    return tuple(cast(a) for a in args), {k: cast(v) for k, v in kwargs.items()}


def compare_outputs_cross_dtype(
    kernel_name: str,
    expected: Any,
    expected_same_dtype: Any,
    got: Any,
    dtype: np.dtype,
    rtol: float,
    atol: float,
) -> None:
    """Assert a ``dtype`` candidate run agrees with the float64 oracle.

    Float outputs must *be* ``dtype`` (kernels may not silently upcast)
    and match the float64 oracle to (rtol, atol).  Integer/bool outputs
    (argmax maps, cluster ids) are compared exactly against the oracle
    run on the *same-dtype* inputs -- near-boundary ties are decided by
    the rounded values either way, so that is the meaningful contract.
    Float outputs of :data:`EXACT` kernels must also equal that
    same-dtype oracle run exactly.
    """
    expected_t = _as_tuple(expected)
    same_t = _as_tuple(expected_same_dtype)
    got_t = _as_tuple(got)
    assert len(expected_t) == len(got_t), (
        f"{kernel_name}: output arity {len(got_t)} != {len(expected_t)}"
    )
    for idx, (ref_out, same_out, new_out) in enumerate(
            zip(expected_t, same_t, got_t)):
        if ref_out is None or new_out is None:
            assert ref_out is None and new_out is None, (
                f"{kernel_name}[{idx}]: one output is None, the other is not"
            )
            continue
        ref_arr, new_arr = np.asarray(ref_out), np.asarray(new_out)
        assert ref_arr.shape == new_arr.shape, (
            f"{kernel_name}[{idx}]: shape {new_arr.shape} != {ref_arr.shape}"
        )
        if np.issubdtype(ref_arr.dtype, np.integer) or ref_arr.dtype == bool:
            assert np.array_equal(np.asarray(same_out), new_arr), (
                f"{kernel_name}[{idx}]: integer outputs differ"
            )
        else:
            assert new_arr.dtype == dtype, (
                f"{kernel_name}[{idx}]: kernel did not preserve the input "
                f"dtype ({new_arr.dtype} != {dtype})"
            )
            if kernel_name in EXACT:
                assert np.array_equal(np.asarray(same_out), new_arr), (
                    f"{kernel_name}[{idx}]: data-movement outputs differ "
                    f"at {dtype}"
                )
            np.testing.assert_allclose(
                new_arr.astype(np.float64), ref_arr, rtol=rtol, atol=atol,
                err_msg=f"{kernel_name}[{idx}] at {dtype}",
            )


def check_kernel_dtype(
    kernel_name: str,
    candidate,
    dtype,
    oracle="reference",
    seed: int = 0,
    trials: int = 5,
    rtol: float = None,
    atol: float = None,
) -> int:
    """Run one kernel at ``dtype`` against the float64 oracle.

    The case generator's float inputs are cast to ``dtype`` for the
    candidate and to float64 for the oracle; outputs must preserve the
    input dtype and agree within the per-dtype tolerance (strict at
    float64, rtol <= 1e-4 at float32).
    """
    if kernel_name not in CASES:
        raise KeyError(f"no equivalence case registered for kernel {kernel_name!r}")
    dt = np.dtype(dtype)
    if dt not in DTYPE_RTOL:
        raise KeyError(f"no dtype tolerances registered for {dt}")
    rtol = DTYPE_RTOL[dt] if rtol is None else rtol
    atol = DTYPE_ATOL[dt] if atol is None else atol
    candidate_b: Backend = get_backend(candidate)
    oracle_b: Backend = get_backend(oracle)
    gen = CASES[kernel_name]
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        args, kwargs = gen(rng)
        args64, kwargs64 = _contiguous(
            *_cast_floats(args, kwargs, np.dtype(np.float64)))
        args_dt, kwargs_dt = _cast_floats(args, kwargs, dt)
        c_args_dt, c_kwargs_dt = _contiguous(args_dt, kwargs_dt)
        if candidate_b is oracle_b:  # the oracle only answers for C order
            args_dt, kwargs_dt = c_args_dt, c_kwargs_dt
        expected = oracle_b.kernel(kernel_name)(*args64, **kwargs64)
        expected_same = oracle_b.kernel(kernel_name)(*c_args_dt, **c_kwargs_dt)
        got = candidate_b.kernel(kernel_name)(*args_dt, **kwargs_dt)
        compare_outputs_cross_dtype(
            kernel_name, expected, expected_same, got, dt, rtol, atol
        )
    return trials


def check_all_dtype(
    candidate,
    dtype,
    oracle="reference",
    seed: int = 0,
    trials: int = 5,
) -> List[str]:
    """check_kernel_dtype over every kernel the candidate can dispatch."""
    candidate_b = get_backend(candidate)
    checked = []
    for name in candidate_b.kernels():
        check_kernel_dtype(name, candidate_b, dtype, oracle=oracle,
                           seed=seed, trials=trials)
        checked.append(name)
    return checked

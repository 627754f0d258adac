"""Property-based tests: autograd invariants over random inputs."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro.autograd import Tensor, functional as F

finite_floats = st.floats(min_value=-100, max_value=100, allow_nan=False,
                          allow_infinity=False, width=64)


def finite_arrays(max_dims=2, max_side=6):
    return arrays(
        dtype=np.float64,
        shape=array_shapes(min_dims=1, max_dims=max_dims, min_side=1, max_side=max_side),
        elements=finite_floats,
    )


@settings(max_examples=40, deadline=None)
@given(finite_arrays())
def test_sum_gradient_is_ones(data):
    x = Tensor(data, requires_grad=True)
    F.sum(x).backward()
    assert np.allclose(x.grad, 1.0)


@settings(max_examples=40, deadline=None)
@given(finite_arrays())
def test_linearity_of_grad(data):
    # d/dx sum(3x) == 3 everywhere.
    x = Tensor(data, requires_grad=True)
    F.sum(F.mul(x, Tensor(3.0))).backward()
    assert np.allclose(x.grad, 3.0)


@settings(max_examples=40, deadline=None)
@given(finite_arrays())
def test_add_commutes(data):
    a, b = Tensor(data), Tensor(data[::-1].copy())
    assert np.allclose(F.add(a, b).data, F.add(b, a).data)


@settings(max_examples=40, deadline=None)
@given(finite_arrays())
def test_relu_idempotent(data):
    x = Tensor(data)
    once = F.relu(x)
    assert np.allclose(F.relu(once).data, once.data)


@settings(max_examples=40, deadline=None)
@given(finite_arrays())
def test_exp_log_roundtrip(data):
    x = Tensor(np.abs(data) + 0.1)
    assert np.allclose(F.exp(F.log(x)).data, x.data, rtol=1e-9)


@settings(max_examples=40, deadline=None)
@given(finite_arrays(max_dims=2))
def test_reshape_preserves_sum(data):
    x = Tensor(data)
    assert np.isclose(F.sum(F.reshape(x, (-1,))).item(), F.sum(x).item())


@settings(max_examples=30, deadline=None)
@given(arrays(np.float64, array_shapes(min_dims=2, max_dims=2, min_side=2, max_side=6),
              elements=finite_floats))
def test_softmax_rows_are_distributions(logits):
    out = np.exp(F.log_softmax(Tensor(logits)).data)
    assert np.allclose(out.sum(axis=1), 1.0)
    assert np.all(out >= 0)


@settings(max_examples=30, deadline=None)
@given(arrays(np.float64, st.integers(min_value=2, max_value=40),
              elements=finite_floats))
def test_mean_equals_sum_over_n(data):
    x = Tensor(data)
    assert np.isclose(F.mean(x).item(), F.sum(x).item() / data.size)


@settings(max_examples=30, deadline=None)
@given(arrays(np.float64, st.integers(min_value=2, max_value=30), elements=finite_floats))
def test_max_ge_mean_ge_min(data):
    x = Tensor(data)
    eps = 1e-12 * max(1.0, float(np.abs(data).max()))
    assert F.max(x).item() >= F.mean(x).item() - eps
    assert F.mean(x).item() >= F.min(x).item() - eps

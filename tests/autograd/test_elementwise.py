"""Gradient checks for every elementwise and linear-algebra op."""

import numpy as np
import pytest

from repro.autograd import Tensor, functional as F, grad_check
from repro.errors import ShapeError

RNG = np.random.default_rng(42)


def randn(*shape):
    return RNG.standard_normal(shape)


class TestBinaryGradients:
    def test_add(self):
        grad_check(lambda a, b: F.sum(F.add(a, b)), [randn(3, 4), randn(3, 4)])

    def test_sub(self):
        grad_check(lambda a, b: F.sum(F.sub(a, b)), [randn(3, 4), randn(3, 4)])

    def test_mul(self):
        grad_check(lambda a, b: F.sum(F.mul(a, b)), [randn(3, 4), randn(3, 4)])

    def test_div(self):
        grad_check(lambda a, b: F.sum(F.div(a, b)), [randn(3, 4), RNG.random((3, 4)) + 0.5])

    def test_matmul(self):
        grad_check(lambda a, b: F.sum(F.matmul(a, b)), [randn(3, 4), randn(4, 5)])

    def test_matmul_rejects_1d(self):
        with pytest.raises(ShapeError):
            F.matmul(Tensor(randn(3)), Tensor(randn(3)))


class TestBroadcastGradients:
    def test_add_row_broadcast(self):
        grad_check(lambda a, b: F.sum(F.add(a, b)), [randn(3, 4), randn(4)])

    def test_add_column_broadcast(self):
        grad_check(lambda a, b: F.sum(F.add(a, b)), [randn(3, 4), randn(3, 1)])

    def test_mul_scalar_broadcast(self):
        grad_check(lambda a, b: F.sum(F.mul(a, b)), [randn(3, 4), randn(1)])

    def test_div_broadcast(self):
        grad_check(
            lambda a, b: F.sum(F.div(a, b)),
            [randn(2, 3, 4), RNG.random((3, 1)) + 0.5],
        )

    def test_sub_both_broadcast(self):
        grad_check(lambda a, b: F.sum(F.sub(a, b)), [randn(3, 1), randn(1, 4)])

    def test_forward_values_match_numpy(self):
        a, b = randn(3, 4), randn(4)
        assert np.allclose(F.add(Tensor(a), Tensor(b)).data, a + b)
        assert np.allclose(F.mul(Tensor(a), Tensor(b)).data, a * b)


class TestUnaryGradients:
    def test_neg(self):
        grad_check(lambda a: F.sum(F.neg(a)), [randn(5)])

    def test_pow(self):
        grad_check(lambda a: F.sum(F.pow(a, 3.0)), [RNG.random(5) + 0.5])

    def test_exp(self):
        grad_check(lambda a: F.sum(F.exp(a)), [randn(5)])

    def test_log(self):
        grad_check(lambda a: F.sum(F.log(a)), [RNG.random(5) + 0.5])

    def test_sqrt(self):
        grad_check(lambda a: F.sum(F.sqrt(a)), [RNG.random(5) + 0.5])

    def test_abs_away_from_zero(self):
        grad_check(lambda a: F.sum(F.abs(a)), [randn(6) + np.sign(randn(6)) * 0.5])

    def test_relu(self):
        values = randn(8)
        values[np.abs(values) < 0.1] = 0.5  # stay off the kink
        grad_check(lambda a: F.sum(F.relu(a)), [values])

    def test_clip(self):
        values = np.array([-2.0, -0.5, 0.3, 0.9, 2.0])
        grad_check(lambda a: F.sum(F.clip(a, -1.0, 1.0)), [values])


class TestUnaryForwardValues:
    def test_relu_values(self):
        out = F.relu(Tensor([-1.0, 0.0, 2.0]))
        assert np.allclose(out.data, [0.0, 0.0, 2.0])

    def test_clip_values(self):
        out = F.clip(Tensor([-5.0, 0.0, 5.0]), -1.0, 1.0)
        assert np.allclose(out.data, [-1.0, 0.0, 1.0])


class TestGradCheckOracle:
    def test_catches_a_wrong_backward(self):
        from repro.autograd.function import Function

        class BadDouble(Function):
            def forward(self, a):
                return a * 2.0

            def backward(self, grad):
                return (grad * 3.0,)  # wrong on purpose

        with pytest.raises(AssertionError, match="gradient mismatch"):
            grad_check(lambda a: F.sum(BadDouble.apply(a)), [randn(2, 3)])

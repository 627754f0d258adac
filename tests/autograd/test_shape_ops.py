"""Gradient and value checks for shape-manipulation ops."""

import numpy as np

from repro.autograd import Tensor, functional as F, grad_check

RNG = np.random.default_rng(11)


def randn(*shape):
    return RNG.standard_normal(shape)


class TestReshape:
    def test_gradient(self):
        weights = Tensor(randn(6))
        grad_check(lambda a: F.sum(F.mul(F.reshape(a, (6,)), weights)), [randn(2, 3)])

    def test_minus_one(self):
        out = F.reshape(Tensor(randn(2, 3, 4)), (2, -1))
        assert out.shape == (2, 12)

    def test_tuple_or_varargs(self):
        t = Tensor(randn(6))
        assert F.reshape(t, (2, 3)).shape == (2, 3)
        assert F.reshape(t, 3, 2).shape == (3, 2)

    def test_flatten(self):
        out = F.flatten(Tensor(randn(2, 3, 4)))
        assert out.shape == (2, 12)

    def test_flatten_start_axis(self):
        out = F.flatten(Tensor(randn(2, 3, 4)), start_axis=2)
        assert out.shape == (2, 3, 4)


class TestTranspose:
    def test_default_reverses(self):
        out = F.transpose(Tensor(randn(2, 3, 4)))
        assert out.shape == (4, 3, 2)

    def test_explicit_axes(self):
        out = F.transpose(Tensor(randn(2, 3, 4)), (1, 0, 2))
        assert out.shape == (3, 2, 4)

    def test_gradient_default(self):
        weights = Tensor(randn(3, 2))
        grad_check(lambda a: F.sum(F.mul(F.transpose(a), weights)), [randn(2, 3)])

    def test_gradient_permutation(self):
        weights = randn(4, 2, 3)
        grad_check(
            lambda a: F.sum(F.mul(F.transpose(a, (2, 0, 1)), Tensor(weights))),
            [randn(2, 3, 4)],
        )


class TestGetItem:
    def test_row_slice(self):
        grad_check(lambda a: F.sum(F.getitem(a, slice(1, 3))), [randn(4, 3)])

    def test_fancy_index_with_duplicates_accumulates(self):
        x = Tensor(np.zeros(3), requires_grad=True)
        F.sum(F.getitem(x, np.array([0, 0, 1]))).backward()
        assert np.allclose(x.grad, [2.0, 1.0, 0.0])

    def test_values(self):
        a = randn(4, 5)
        assert np.allclose(F.getitem(Tensor(a), (2, slice(1, 4))).data, a[2, 1:4])


class TestConcat:
    def test_axis0_gradient(self):
        grad_check(lambda a, b: F.sum(F.concat([a, b], axis=0)), [randn(2, 3), randn(4, 3)])

    def test_axis1_gradient(self):
        grad_check(lambda a, b: F.sum(F.concat([a, b], axis=1)), [randn(2, 3), randn(2, 2)])

    def test_three_way_values(self):
        parts = [randn(2, 2) for _ in range(3)]
        out = F.concat([Tensor(p) for p in parts], axis=0)
        assert np.allclose(out.data, np.concatenate(parts, axis=0))

    def test_gradient_routes_to_correct_part(self):
        a = Tensor(randn(2, 2), requires_grad=True)
        b = Tensor(randn(3, 2), requires_grad=True)
        out = F.concat([a, b], axis=0)
        F.sum(F.mul(F.getitem(out, slice(0, 2)), Tensor(np.ones((2, 2))))).backward()
        assert np.allclose(a.grad, 1.0)
        assert np.allclose(b.grad, 0.0)

"""Tensor mechanics: construction, grad bookkeeping, backward rules."""

import numpy as np
import pytest

from repro.autograd import Tensor, functional as F, no_grad, is_grad_enabled
from repro.errors import GradientError


class TestConstruction:
    def test_from_list(self):
        # lists and scalars materialize at the compute-dtype policy
        # (float32 by default; see repro.precision)
        t = Tensor([1.0, 2.0, 3.0])
        assert t.shape == (3,)
        assert t.data.dtype == np.float32

    def test_int_data_promoted_to_float(self):
        t = Tensor(np.arange(4))
        assert t.data.dtype == np.float32

    def test_bool_data_promoted_to_float(self):
        t = Tensor(np.array([True, False]))
        assert t.data.dtype == np.float32

    def test_explicit_float_array_keeps_dtype(self):
        assert Tensor(np.ones(3, dtype=np.float64)).data.dtype == np.float64
        assert Tensor(np.ones(3, dtype=np.float32)).data.dtype == np.float32

    def test_policy_scopes_construction(self):
        from repro import precision

        with precision.use_dtype("float64"):
            assert Tensor([1.0, 2.0]).data.dtype == np.float64
            assert Tensor(np.arange(3)).data.dtype == np.float64
        assert Tensor([1.0, 2.0]).data.dtype == np.float32

    def test_from_tensor_shares_nothing_structural(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor(a)
        assert not b.requires_grad

    def test_scalar_item(self):
        assert Tensor(3.5).item() == 3.5

    def test_size_ndim(self):
        t = Tensor(np.zeros((2, 3)))
        assert t.size == 6
        assert t.ndim == 2
        assert len(t) == 2

    def test_repr_mentions_requires_grad(self):
        assert "requires_grad" in repr(Tensor(1.0, requires_grad=True))
        assert "requires_grad" not in repr(Tensor(1.0))


class TestBackward:
    def test_scalar_backward_default_grad(self):
        x = Tensor(2.0, requires_grad=True)
        y = F.mul(x, x)
        y.backward()
        assert np.isclose(x.grad, 4.0)

    def test_backward_on_non_scalar_requires_grad_arg(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = F.mul(x, x)
        with pytest.raises(GradientError):
            y.backward()

    def test_backward_with_explicit_gradient(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = F.mul(x, x)
        y.backward(np.array([1.0, 1.0]))
        assert np.allclose(x.grad, [2.0, 4.0])

    def test_backward_gradient_shape_mismatch(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = F.mul(x, x)
        with pytest.raises(GradientError):
            y.backward(np.zeros(3))

    def test_backward_on_leaf_without_grad_raises(self):
        x = Tensor(1.0)
        with pytest.raises(GradientError):
            x.backward()

    def test_grad_accumulates_across_backward_calls(self):
        x = Tensor(3.0, requires_grad=True)
        F.mul(x, x).backward()
        first = float(x.grad)
        F.mul(x, x).backward()
        assert np.isclose(x.grad, 2 * first)

    def test_retain_graph_double_backward_accumulates_exactly(self):
        rng = np.random.default_rng(11)
        w = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        x = Tensor(rng.standard_normal((3, 4)))
        loss = F.sum(F.relu(F.mul(x, w)))
        loss.backward(retain_graph=True)
        loss.backward()
        mask = (x.data * w.data) > 0
        np.testing.assert_array_equal(w.grad, 2.0 * x.data * mask)

    def test_explicit_gradient_seed_scales_leaf_grads(self):
        rng = np.random.default_rng(13)
        w = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        x = Tensor(rng.standard_normal((3, 4)))
        F.sum(F.mul(x, w)).backward(np.asarray(2.0))
        np.testing.assert_array_equal(w.grad, 2.0 * x.data)

    def test_zero_grad(self):
        x = Tensor(3.0, requires_grad=True)
        F.mul(x, x).backward()
        x.zero_grad()
        assert x.grad is None

    def test_diamond_graph_accumulates(self):
        # y = x*x + x*x: gradient must be 4x, not 2x.
        x = Tensor(3.0, requires_grad=True)
        a = F.mul(x, x)
        y = F.add(a, a)
        y.backward()
        assert np.isclose(x.grad, 12.0)

    def test_shared_subexpression(self):
        x = Tensor(2.0, requires_grad=True)
        a = F.mul(x, Tensor(3.0))
        y = F.add(F.mul(a, a), a)  # y = 9x^2 + 3x -> dy/dx = 18x + 3
        y.backward()
        assert np.isclose(x.grad, 39.0)

    def test_deep_chain_does_not_recurse(self):
        x = Tensor(1.0, requires_grad=True)
        y = x
        for _ in range(2000):
            y = F.add(y, Tensor(0.001))
        y.backward()
        assert np.isclose(x.grad, 1.0)

    def test_detach_cuts_graph(self):
        x = Tensor(2.0, requires_grad=True)
        y = F.mul(x, x).detach()
        assert y._creator is None
        assert not y.requires_grad


class TestNoGrad:
    def test_no_grad_disables_graph(self):
        x = Tensor(2.0, requires_grad=True)
        with no_grad():
            y = F.mul(x, x)
        assert not y.requires_grad
        assert y._creator is None

    def test_no_grad_restores_state(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_no_grad_nested(self):
        with no_grad():
            with no_grad():
                assert not is_grad_enabled()
            assert not is_grad_enabled()

    def test_no_grad_restores_after_exception(self):
        try:
            with no_grad():
                raise ValueError("boom")
        except ValueError:
            pass
        assert is_grad_enabled()


class TestOperators:
    def test_add_operator(self):
        assert np.allclose((Tensor([1.0]) + Tensor([2.0])).data, [3.0])

    def test_radd_scalar(self):
        assert np.allclose((1.0 + Tensor([2.0])).data, [3.0])

    def test_sub_and_rsub(self):
        assert np.allclose((Tensor([5.0]) - 2.0).data, [3.0])
        assert np.allclose((5.0 - Tensor([2.0])).data, [3.0])

    def test_mul_div(self):
        assert np.allclose((Tensor([4.0]) * 2.0).data, [8.0])
        assert np.allclose((Tensor([4.0]) / 2.0).data, [2.0])
        assert np.allclose((8.0 / Tensor([4.0])).data, [2.0])

    def test_neg_pow(self):
        assert np.allclose((-Tensor([2.0])).data, [-2.0])
        assert np.allclose((Tensor([2.0]) ** 3).data, [8.0])

    def test_matmul_operator(self):
        a = Tensor(np.eye(2))
        b = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert np.allclose((a @ b).data, b.data)

    def test_getitem_operator(self):
        t = Tensor(np.arange(6.0).reshape(2, 3))
        assert np.allclose(t[0].data, [0.0, 1.0, 2.0])

    def test_method_aliases_match_functional(self):
        x = np.random.default_rng(0).standard_normal((3, 4))
        t = Tensor(x)
        assert np.allclose(t.sum().data, x.sum())
        assert np.allclose(t.mean(axis=1).data, x.mean(axis=1))
        assert np.allclose(t.reshape(4, 3).data, x.reshape(4, 3))
        assert np.allclose(t.transpose().data, x.T)
        assert np.allclose(t.exp().data, np.exp(x))
        assert np.allclose(t.abs().data, np.abs(x))

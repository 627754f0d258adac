"""Softplus / SiLU activations."""

import numpy as np

from repro.autograd import Tensor, functional as F, grad_check

RNG = np.random.default_rng(101)


class TestSoftplus:
    def test_values(self):
        out = F.softplus(Tensor([0.0]))
        assert np.isclose(out.data[0], np.log(2.0))

    def test_stable_for_large_inputs(self):
        out = F.softplus(Tensor([1000.0, -1000.0]))
        assert np.isclose(out.data[0], 1000.0)
        assert np.isclose(out.data[1], 0.0)
        assert np.all(np.isfinite(out.data))

    def test_gradient(self):
        grad_check(lambda a: F.sum(F.softplus(a)), [RNG.standard_normal(6)])

    def test_positive_everywhere(self):
        out = F.softplus(Tensor(RNG.standard_normal(20)))
        assert np.all(out.data > 0)


class TestSilu:
    def test_zero_at_zero(self):
        assert F.silu(Tensor([0.0])).data[0] == 0.0

    def test_known_value(self):
        # silu(1) = sigmoid(1) ~ 0.7311
        assert np.isclose(F.silu(Tensor([1.0])).data[0], 0.7311, atol=1e-3)

    def test_gradient(self):
        grad_check(lambda a: F.sum(F.silu(a)), [RNG.standard_normal(6)], rtol=1e-3)

    def test_lower_bound(self):
        out = F.silu(Tensor(np.linspace(-20, 20, 100)))
        assert out.data.min() > -0.3  # silu's global minimum ~ -0.278

"""Layers: shapes, values, determinism."""

import numpy as np

from repro.autograd import Tensor
from repro.nn import Conv2d, Flatten, Identity, Linear, ReLU

RNG = np.random.default_rng(3)


class TestLinear:
    def test_output_shape(self):
        layer = Linear(5, 3, rng=np.random.default_rng(0))
        assert layer(Tensor(RNG.standard_normal((4, 5)))).shape == (4, 3)

    def test_matches_manual_affine(self):
        layer = Linear(4, 2, rng=np.random.default_rng(0))
        layer.bias.data = RNG.standard_normal(2)
        x = RNG.standard_normal((3, 4))
        expected = x @ layer.weight.data.T + layer.bias.data
        assert np.allclose(layer(Tensor(x)).data, expected)

    def test_no_bias(self):
        layer = Linear(4, 2, bias=False)
        assert layer.bias is None
        assert len([n for n, _ in layer.named_parameters()]) == 1

    def test_deterministic_given_rng(self):
        a = Linear(6, 4, rng=np.random.default_rng(9))
        b = Linear(6, 4, rng=np.random.default_rng(9))
        assert np.allclose(a.weight.data, b.weight.data)

    def test_trains_toward_target(self):
        layer = Linear(3, 1, rng=np.random.default_rng(1))
        x = RNG.standard_normal((50, 3))
        target = x @ np.array([[1.0], [-2.0], [0.5]])
        from repro.nn import SGD
        opt = SGD(layer.parameters(), lr=0.1)
        for _ in range(200):
            out = layer(Tensor(x))
            diff = out - Tensor(target)
            loss = (diff * diff).mean()
            layer.zero_grad()
            loss.backward()
            opt.step()
        assert loss.item() < 1e-3


class TestConv2d:
    def test_output_shape(self):
        conv = Conv2d(3, 8, 3, stride=2, padding=1, rng=np.random.default_rng(0))
        assert conv(Tensor(RNG.standard_normal((2, 3, 8, 8)))).shape == (2, 8, 4, 4)

    def test_bias_optional(self):
        conv = Conv2d(2, 4, 3, bias=False)
        assert conv.bias is None

    def test_repr(self):
        assert "Conv2d(3, 8" in repr(Conv2d(3, 8, 3))


class TestActivations:
    def test_relu_module(self):
        assert np.allclose(ReLU()(Tensor([-1.0, 2.0])).data, [0.0, 2.0])

    def test_identity(self):
        x = Tensor(RNG.standard_normal(5))
        assert Identity()(x) is x


class TestFlatten:
    def test_default(self):
        out = Flatten()(Tensor(RNG.standard_normal((2, 3, 4))))
        assert out.shape == (2, 12)

    def test_start_axis_zero(self):
        out = Flatten(start_axis=0)(Tensor(RNG.standard_normal((2, 3))))
        assert out.shape == (6,)

"""Finite-difference gradient checks parametrized over both backends.

Covers the geometry corners the original suite was thin on: pooling
with stride != kernel and convolution with padding > 0 -- and runs
every check under reference AND fast dispatch, so a backend swap can
never silently change training gradients.
"""

import numpy as np
import pytest

from repro import backend as B
from repro.autograd import functional as F, grad_check

RNG = np.random.default_rng(77)

BACKENDS = ["reference", "fast"]


@pytest.fixture(params=BACKENDS)
def backend(request):
    with B.use_backend(request.param):
        yield request.param


class TestConvGrad:
    @pytest.mark.parametrize("stride,padding", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_conv2d_with_padding(self, backend, stride, padding):
        x = RNG.standard_normal((2, 2, 5, 5))
        w = RNG.standard_normal((3, 2, 3, 3))
        assert grad_check(
            lambda xt, wt: F.conv2d(xt, wt, stride=stride, padding=padding).sum(),
            [x, w],
        )

    def test_conv2d_with_bias_and_padding(self, backend):
        x = RNG.standard_normal((1, 2, 4, 4))
        w = RNG.standard_normal((2, 2, 3, 3))
        b = RNG.standard_normal(2)
        assert grad_check(
            lambda xt, wt, bt: F.conv2d(xt, wt, bt, padding=1).sum(),
            [x, w, b],
        )


class TestPoolingGrad:
    @pytest.mark.parametrize("kernel,stride", [(2, 1), (3, 2), (2, 3), (3, 1)])
    def test_max_pool_stride_not_equal_kernel(self, backend, kernel, stride):
        # unique values keep argmax stable under finite-difference probes
        size = 6
        x = RNG.permutation(size * size * 2).astype(np.float64)
        x = (x / x.size + 0.01 * RNG.standard_normal(x.size)).reshape(1, 2, size, size)
        assert grad_check(
            lambda xt: F.max_pool2d(xt, kernel, stride=stride).sum(),
            [x],
        )


class TestFloat32Grad:
    """The same geometry corners with the analytic pass in float32.

    The finite-difference oracle always runs in float64 (see
    ``grad_check``), so these certify that single-precision backwards
    are correct to the documented FLOAT32 tolerance floors on both
    backends -- the contract the precision policy's speedup rests on.
    """

    def test_conv2d_with_padding_float32(self, backend):
        x = RNG.standard_normal((2, 2, 5, 5))
        w = RNG.standard_normal((3, 2, 3, 3))
        assert grad_check(
            lambda xt, wt: F.conv2d(xt, wt, stride=2, padding=1).sum(),
            [x, w], dtype=np.float32,
        )

    def test_max_pool_stride_not_equal_kernel_float32(self, backend):
        size = 6
        x = RNG.permutation(size * size * 2).astype(np.float64)
        x = (x / x.size + 0.01 * RNG.standard_normal(x.size)).reshape(1, 2, size, size)
        assert grad_check(
            lambda xt: F.max_pool2d(xt, 3, stride=2).sum(),
            [x], dtype=np.float32,
        )

    def test_batchnorm_train_mode_float32(self, backend):
        # via the module so the fast backend takes the fused
        # BatchNormTrainFn node and reference the composed graph
        from repro.nn.norm import BatchNorm2d

        bn = BatchNorm2d(3)
        bn.train()
        x = RNG.standard_normal((4, 3, 5, 5))
        assert grad_check(lambda xt: bn(xt).sum(), [x], dtype=np.float32)

    def test_fused_softmax_cross_entropy_float32(self, backend):
        logits = RNG.standard_normal((6, 5))
        targets = RNG.integers(0, 5, size=6)
        assert grad_check(
            lambda lt: F.softmax_cross_entropy(lt, targets),
            [logits], dtype=np.float32,
        )


class TestBackendAgreement:
    def test_conv_gradients_bitwise_close_across_backends(self):
        # same inputs, same loss: fast gradients must match reference
        # within equivalence tolerance
        x = RNG.standard_normal((2, 3, 6, 6))
        w = RNG.standard_normal((4, 3, 3, 3))
        grads = {}
        for name in BACKENDS:
            with B.use_backend(name):
                from repro.autograd import Tensor

                xt = Tensor(x.copy(), requires_grad=True)
                wt = Tensor(w.copy(), requires_grad=True)
                F.conv2d(xt, wt, stride=2, padding=1).sum().backward()
                grads[name] = (xt.grad.copy(), wt.grad.copy())
        np.testing.assert_allclose(grads["fast"][0], grads["reference"][0],
                                   rtol=1e-6, atol=1e-9)
        np.testing.assert_allclose(grads["fast"][1], grads["reference"][1],
                                   rtol=1e-6, atol=1e-9)

"""Conv / pool / softmax ops: values against naive references, gradients
against finite differences."""

import numpy as np
import pytest

from repro.autograd import Tensor, functional as F, grad_check
from repro.autograd.ops_nn import col2im, im2col
from repro.errors import ShapeError

RNG = np.random.default_rng(23)


def randn(*shape):
    return RNG.standard_normal(shape)


def naive_conv2d(x, w, stride, padding):
    batch, _, height, width = x.shape
    out_c, in_c, kh, kw = w.shape
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out_h = (x.shape[2] - kh) // stride + 1
    out_w = (x.shape[3] - kw) // stride + 1
    out = np.zeros((batch, out_c, out_h, out_w))
    for n in range(batch):
        for f in range(out_c):
            for i in range(out_h):
                for j in range(out_w):
                    patch = x[n, :, i * stride:i * stride + kh, j * stride:j * stride + kw]
                    out[n, f, i, j] = (patch * w[f]).sum()
    return out


class TestIm2Col:
    def test_roundtrip_counts(self):
        x = randn(2, 3, 5, 5)
        cols = im2col(x, 3, 3, 1, 1)
        assert cols.shape == (27, 2 * 5 * 5)

    def test_col2im_adjointness(self):
        # <im2col(x), y> == <x, col2im(y)> -- the two must be adjoint maps.
        x = randn(2, 2, 4, 4)
        cols = im2col(x, 2, 2, 2, 0)
        y = randn(*cols.shape)
        lhs = (cols * y).sum()
        rhs = (x * col2im(y, x.shape, 2, 2, 2, 0)).sum()
        assert np.isclose(lhs, rhs)


class TestConv2d:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1), (2, 0)])
    def test_matches_naive(self, stride, padding):
        x, w = randn(2, 3, 6, 6), randn(4, 3, 3, 3)
        out = F.conv2d(Tensor(x), Tensor(w), stride=stride, padding=padding)
        assert np.allclose(out.data, naive_conv2d(x, w, stride, padding), atol=1e-10)

    def test_bias_broadcast(self):
        x, w, b = randn(1, 2, 4, 4), randn(3, 2, 3, 3), randn(3)
        out = F.conv2d(Tensor(x), Tensor(w), Tensor(b), padding=1)
        no_bias = F.conv2d(Tensor(x), Tensor(w), padding=1)
        assert np.allclose(out.data - no_bias.data, b.reshape(1, 3, 1, 1))

    def test_gradients(self):
        x, w = randn(2, 2, 5, 5), randn(3, 2, 3, 3)
        grad_check(
            lambda x, w: F.sum(F.conv2d(x, w, stride=2, padding=1)), [x, w], rtol=1e-3
        )

    def test_gradient_with_bias(self):
        x, w, b = randn(1, 2, 4, 4), randn(2, 2, 3, 3), randn(2)
        grad_check(
            lambda x, w, b: F.sum(F.mul(F.conv2d(x, w, b, padding=1), F.conv2d(x, w, b, padding=1))),
            [x, w, b], rtol=1e-3,
        )

    def test_channel_mismatch_raises(self):
        with pytest.raises(ShapeError):
            F.conv2d(Tensor(randn(1, 3, 4, 4)), Tensor(randn(2, 4, 3, 3)))

    def test_too_small_input_raises(self):
        with pytest.raises(ShapeError):
            F.conv2d(Tensor(randn(1, 1, 2, 2)), Tensor(randn(1, 1, 5, 5)))

    def test_1x1_conv(self):
        x, w = randn(2, 3, 4, 4), randn(5, 3, 1, 1)
        out = F.conv2d(Tensor(x), Tensor(w))
        assert out.shape == (2, 5, 4, 4)
        assert np.allclose(out.data, naive_conv2d(x, w, 1, 0))


class TestPooling:
    def test_max_pool_values(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out = F.max_pool2d(Tensor(x), 2)
        assert np.allclose(out.data.reshape(2, 2), [[5, 7], [13, 15]])

    def test_max_pool_gradient(self):
        x = randn(2, 3, 4, 4)
        grad_check(lambda x: F.sum(F.max_pool2d(x, 2)), [x], rtol=1e-3)

    def test_strided_pool_shape(self):
        out = F.max_pool2d(Tensor(randn(1, 1, 6, 6)), 3, stride=3)
        assert out.shape == (1, 1, 2, 2)

    def test_global_avg_pool(self):
        x = randn(2, 3, 4, 4)
        out = F.global_avg_pool2d(Tensor(x))
        assert out.shape == (2, 3)
        assert np.allclose(out.data, x.mean(axis=(2, 3)))

    def test_global_avg_pool_gradient(self):
        grad_check(lambda x: F.sum(F.global_avg_pool2d(x)), [randn(2, 2, 3, 3)])


class TestSoftmaxOps:
    def test_softmax_rows_sum_to_one(self):
        out = np.exp(F.log_softmax(Tensor(randn(5, 7))).data)
        assert np.allclose(out.sum(axis=1), 1.0)

    def test_log_softmax_matches_softmax(self):
        logits = randn(4, 6)
        softmax = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        assert np.allclose(np.exp(F.log_softmax(Tensor(logits)).data), softmax)

    def test_log_softmax_gradient(self):
        weights = Tensor(randn(3, 5))
        grad_check(lambda a: F.sum(F.mul(F.log_softmax(a), weights)),
                   [randn(3, 5)], rtol=1e-3)

    def test_log_softmax_numerically_stable(self):
        logits = np.array([[1000.0, 0.0], [0.0, -1000.0]])
        out = F.log_softmax(Tensor(logits))
        assert np.all(np.isfinite(out.data))

    def test_cross_entropy_known_value(self):
        # Uniform logits over K classes -> loss = log(K).
        logits = np.zeros((3, 4))
        loss = F.softmax_cross_entropy(Tensor(logits), np.array([0, 1, 2]))
        assert np.isclose(loss.item(), np.log(4))

    def test_cross_entropy_perfect_prediction(self):
        logits = np.full((2, 3), -100.0)
        logits[0, 1] = 100.0
        logits[1, 2] = 100.0
        loss = F.softmax_cross_entropy(Tensor(logits), np.array([1, 2]))
        assert loss.item() < 1e-6

    def test_cross_entropy_gradient(self):
        logits = randn(5, 8)
        targets = RNG.integers(0, 8, 5)
        grad_check(lambda l: F.softmax_cross_entropy(l, targets), [logits], rtol=1e-3)

    def test_cross_entropy_rejects_bad_shapes(self):
        with pytest.raises(ShapeError):
            F.softmax_cross_entropy(Tensor(randn(3, 4, 5)), np.zeros(3, dtype=int))
        with pytest.raises(ShapeError):
            F.softmax_cross_entropy(Tensor(randn(3, 4)), np.zeros(5, dtype=int))

    def test_cross_entropy_accepts_tensor_targets(self):
        loss = F.softmax_cross_entropy(Tensor(np.zeros((2, 3))), Tensor([0.0, 1.0]))
        assert np.isclose(loss.item(), np.log(3))

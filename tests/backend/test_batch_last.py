"""Batch-last inference in ``fast``: the layout moves, the bytes do not.

``fast``'s no-grad conv and max-pool return NCHW views over
``(C, H, W, N)`` memory, so activations stay batch-last from the stem to
the pool and the next conv's gather reads them without a copy.  These
tests pin both halves of that bargain: the trunk really is batch-last,
and every eval forward gives the same logits, byte for byte, as the same
forward with every kernel output forced contiguous.
"""

import numpy as np
import pytest

from repro import backend as B
from repro import precision
from repro.autograd import Tensor, no_grad
from repro.backend import fast, reference
from repro.models.registry import build_model

DTYPES = (np.float32, np.float64)

# (model, builder kwargs, input channels, image size)
MODELS = [
    ("resnet8_tiny", {}, 3, 16),
    ("simple_cnn", {"image_size": 16}, 3, 16),
    ("face_net_mini", {"num_identities": 12}, 1, 24),
]


def _batch_last(shape, dtype=np.float64, seed=0):
    """An NCHW-shaped view of (C, H, W, N) memory."""
    n, c, h, w = shape
    memory = np.random.default_rng(seed).normal(size=(c, h, w, n)).astype(dtype)
    return memory.transpose(3, 0, 1, 2)


def _contiguous_outputs(kernel):
    def call(*args, **kwargs):
        out = kernel(*args, **kwargs)
        if isinstance(out, tuple):
            return tuple(o if o is None else np.asarray(o, order="C") for o in out)
        return np.asarray(out, order="C")
    return call


def _eval_logits(name, kwargs, channels, size, dtype, batch=16):
    with precision.use_dtype(dtype):
        rng = np.random.default_rng(7)
        model = build_model(name, rng=rng, **kwargs)
        for _, module in model.named_modules():
            if hasattr(module, "running_mean"):
                shape = module.running_mean.shape
                module.update_buffer(
                    "running_mean", rng.normal(size=shape).astype(dtype))
                module.update_buffer(
                    "running_var", (np.abs(rng.normal(size=shape)) + 0.5).astype(dtype))
        model.eval()
        x = rng.normal(size=(batch, channels, size, size)).astype(dtype)
        with B.use_backend("fast"), no_grad():
            return model(Tensor(x)).data


class TestLogitsIgnoreLayout:
    @pytest.mark.parametrize("dtype", DTYPES, ids=["float32", "float64"])
    @pytest.mark.parametrize("name,kwargs,channels,size", MODELS,
                             ids=[m[0] for m in MODELS])
    def test_logits_equal_contiguous_forward(self, monkeypatch, name, kwargs,
                                             channels, size, dtype):
        batch_last = _eval_logits(name, kwargs, channels, size, dtype)
        fast_b = B.get_backend("fast")
        for kernel in fast_b.kernels():
            monkeypatch.setattr(fast_b, kernel,
                                _contiguous_outputs(fast_b.kernel(kernel)))
        contiguous = _eval_logits(name, kwargs, channels, size, dtype)
        assert batch_last.dtype == contiguous.dtype == np.dtype(dtype)
        assert batch_last.tobytes() == contiguous.tobytes()


class TestTrunkIsBatchLast:
    @pytest.mark.parametrize("padding", [0, 1])
    def test_conv2d_infer_returns_batch_last_view(self, padding):
        x = _batch_last((5, 3, 8, 8))
        w = np.random.default_rng(1).normal(size=(4, 3, 3, 3))
        out = fast.conv2d_infer(x, w, None, 1, padding, relu=True)
        assert out.shape == (5, 4, 8 - 2 + 2 * padding, 8 - 2 + 2 * padding)
        assert out.transpose(1, 2, 3, 0).flags.c_contiguous

    def test_maxpool2d_infer_returns_batch_last_view(self):
        out = fast.maxpool2d_infer(_batch_last((5, 3, 8, 8)), 2, 2)
        assert out.shape == (5, 3, 4, 4)
        assert out.transpose(1, 2, 3, 0).flags.c_contiguous

    def test_conv2d_infer_output_is_fresh_memory(self):
        # the output escapes: drawn from the pool, the next call's
        # scratch would overwrite it
        x = _batch_last((2, 3, 6, 6))
        w = np.random.default_rng(2).normal(size=(4, 3, 3, 3))
        first = fast.conv2d_infer(x, w, None, 1, 1)
        snapshot = first.copy()
        fast.conv2d_infer(x + 1.0, w, None, 1, 1)
        fast.conv2d_forward(np.ascontiguousarray(x) - 1.0, w, 1, 1)
        assert np.array_equal(first, snapshot)


class TestReductionGuard:
    @pytest.mark.parametrize("dtype", DTYPES, ids=["float32", "float64"])
    @pytest.mark.parametrize("kernel", ["reduce_mean", "reduce_sum"])
    def test_strided_view_reduces_like_contiguous(self, kernel, dtype):
        # global average pooling over a batch-last trunk: numpy sums a
        # strided view in another order, so without the guard the last
        # bits move
        view = _batch_last((16, 32, 8, 8), dtype=dtype, seed=3)
        got = getattr(fast, kernel)(view, (2, 3), False)
        want = getattr(reference, kernel)(np.ascontiguousarray(view), (2, 3), False)
        assert got.tobytes() == want.tobytes()

    def test_zero_dim_input_keeps_its_shape(self):
        out = fast.reduce_sum(np.array(2.5), None, True)
        assert out.shape == () and out == 2.5


class TestMaxPoolIsExact:
    def test_nan_and_signed_zeros_match_reference(self):
        x = _batch_last((3, 2, 6, 6), seed=4)
        x[0, 0, :2, :2] = -0.0
        x[1, 1, :2, :2] = [[0.0, -0.0], [-0.0, 0.0]]
        x[2, 0, 2, 3] = np.nan
        for kernel, stride in ((2, 2), (3, 1)):
            got = fast.maxpool2d_infer(x, kernel, stride)
            want = reference.maxpool2d_infer(np.ascontiguousarray(x), kernel, stride)
            assert np.isnan(got).any()
            assert np.ascontiguousarray(got).tobytes() == want.tobytes()

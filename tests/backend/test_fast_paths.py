"""Fast-backend internals: buffer pool, fused inference, dtype
contracts (the col2im float32 regression lives here)."""

import numpy as np
import pytest

from repro import backend as B
from repro.autograd import Tensor, no_grad
from repro.autograd.ops_nn import col2im, conv2d, im2col, max_pool2d
from repro.backend import fast
from repro.nn.norm import BatchNorm2d

RNG = np.random.default_rng(5)


@pytest.fixture(autouse=True)
def fresh_caches():
    fast.clear_caches()
    yield
    fast.clear_caches()


class TestBufferPool:
    def test_take_give_recycles(self):
        pool = fast.BufferPool()
        a = pool.take((4, 4), np.float32)
        pool.give(a)
        b = pool.take((4, 4), np.float32)
        assert b is a

    def test_distinct_keys_do_not_mix(self):
        pool = fast.BufferPool()
        a = pool.take((4, 4), np.float32)
        pool.give(a)
        b = pool.take((4, 4), np.float64)
        assert b is not a
        c = pool.take((4, 5), np.float32)
        assert c is not a

    def test_give_is_bounded_per_key(self):
        pool = fast.BufferPool(max_per_key=2)
        arrays = [np.empty((2, 2)) for _ in range(5)]
        for arr in arrays:
            pool.give(arr)
        assert len(pool._free[((2, 2), np.dtype(np.float64))]) == 2

    def test_clear_caches_empties_the_pool(self):
        fast._pool.give(np.empty((3, 3)))
        fast.clear_caches()
        assert not fast._pool._free

    def test_returned_cols_never_pooled(self):
        # the patch matrix escapes im2col and conv2d_forward: drawn from
        # the pool, the next same-shape call would overwrite it.  Both
        # gathers are covered: padded (pooled scratch) and unpadded.
        fast_b = B.get_backend("fast")
        x = RNG.normal(size=(2, 3, 6, 6))
        w = RNG.normal(size=(4, 3, 3, 3))
        for padding in (0, 1):
            _, cols_a = fast_b.conv2d_forward(x, w, 1, padding)
            cols_b = fast_b.im2col(x, 3, 3, 1, padding)
            snapshots = cols_a.copy(), cols_b.copy()
            fast_b.conv2d_forward(x + 1.0, w, 1, padding)
            fast_b.im2col(x + 2.0, 3, 3, 1, padding)
            fast_b.conv2d_infer(x - 1.0, w, None, 1, padding)
            assert np.array_equal(cols_a, snapshots[0])
            assert np.array_equal(cols_b, snapshots[1])


class TestConvBackwardGradSkip:
    def _setup(self):
        x = RNG.normal(size=(2, 3, 6, 6))
        w = RNG.normal(size=(4, 3, 3, 3))
        out, cols = B.get_backend("fast").conv2d_forward(x, w, 1, 1)
        return x, w, cols, RNG.normal(size=out.shape)

    def test_fast_skips_input_gradient_on_request(self):
        x, w, cols, grad = self._setup()
        fast_b = B.get_backend("fast")
        gx, gw = fast_b.conv2d_backward(grad, cols, w, x.shape, 1, 1,
                                        need_input_grad=False)
        assert gx is None
        full_gx, full_gw = fast_b.conv2d_backward(grad, cols, w, x.shape, 1, 1)
        assert full_gx is not None
        np.testing.assert_allclose(gw, full_gw, rtol=1e-12)

    def test_reference_oracle_ignores_the_hint(self):
        x, w, cols, grad = self._setup()
        ref = B.get_backend("reference")
        gx, gw = ref.conv2d_backward(grad, cols, w, x.shape, 1, 1,
                                     need_input_grad=False)
        assert gx is not None  # oracle always computes both gradients

    def test_graph_leaf_without_grad_trains_identically(self):
        # the skip must be invisible to training: weight grads with a
        # non-requiring input leaf equal those with a requiring one
        x = RNG.normal(size=(2, 2, 5, 5))
        w = RNG.normal(size=(3, 2, 3, 3))
        grads = {}
        with B.use_backend("fast"):
            for req in (False, True):
                xt = Tensor(x.copy(), requires_grad=req)
                wt = Tensor(w.copy(), requires_grad=True)
                conv2d(xt, wt, padding=1).sum().backward()
                grads[req] = wt.grad
        np.testing.assert_allclose(grads[False], grads[True], rtol=1e-12)


class TestFusedBatchNormTraining:
    def _layer_pair(self, num_features):
        layers = []
        for _ in range(2):
            bn = BatchNorm2d(num_features)
            bn.gamma.data[:] = np.linspace(0.5, 1.5, num_features)
            bn.beta.data[:] = np.linspace(-0.2, 0.2, num_features)
            bn.train()
            layers.append(bn)
        return layers

    @pytest.mark.parametrize("shape", [(6, 4, 5, 5), (8, 5, 1, 1)])
    def test_fused_matches_composed_graph(self, shape):
        composed, fused = self._layer_pair(shape[1])
        x = RNG.normal(size=shape)
        with B.use_backend("reference"):
            ref_out = composed(Tensor(x.copy(), requires_grad=True))
            ref_out.sum().backward()
        with B.use_backend("fast"):
            fast_out = fused(Tensor(x.copy(), requires_grad=True))
            fast_out.sum().backward()
        np.testing.assert_allclose(fast_out.data, ref_out.data,
                                   rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(fused.gamma.grad, composed.gamma.grad,
                                   rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(fused.beta.grad, composed.beta.grad,
                                   rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(fused.running_mean, composed.running_mean,
                                   rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(fused.running_var, composed.running_var,
                                   rtol=1e-9, atol=1e-12)

    def test_input_gradient_matches_composed_graph(self):
        composed, fused = self._layer_pair(3)
        x = RNG.normal(size=(4, 3, 6, 6))
        grads = {}
        for backend, bn in (("reference", composed), ("fast", fused)):
            with B.use_backend(backend):
                xt = Tensor(x.copy(), requires_grad=True)
                bn(xt).sum().backward()
                grads[backend] = xt.grad
        np.testing.assert_allclose(grads["fast"], grads["reference"],
                                   rtol=1e-9, atol=1e-12)

    def test_reference_backend_keeps_composed_graph(self):
        # the capability flag is fast-only: under reference the training
        # forward must build the composed multi-node graph (bit-identity)
        bn = BatchNorm2d(2)
        bn.train()
        with B.use_backend("reference"):
            out = bn(Tensor(RNG.normal(size=(3, 2, 4, 4)), requires_grad=True))
        assert type(out._creator).__name__ != "BatchNormTrainFn"
        with B.use_backend("fast"):
            out = bn(Tensor(RNG.normal(size=(3, 2, 4, 4)), requires_grad=True))
        assert type(out._creator).__name__ == "BatchNormTrainFn"

    def test_fused_path_under_no_grad_still_updates_running_stats(self):
        bn = BatchNorm2d(2)
        bn.train()
        x = RNG.normal(size=(3, 2, 4, 4))
        with B.use_backend("fast"), no_grad():
            out = bn(Tensor(x))
        assert not out.requires_grad
        assert not np.allclose(bn.running_mean, 0.0)


class TestCol2imContract:
    """Satellite: explicit dtype/contiguity contract for col2im."""

    @pytest.mark.parametrize("backend", ["reference", "fast"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("padding", [0, 1])
    def test_dtype_preserved(self, backend, dtype, padding):
        # regression: bincount produces float64; a float32 cols input
        # must NOT come back silently upcast
        bk = B.get_backend(backend)
        shape = (2, 3, 6, 6)
        cols = bk.im2col(RNG.normal(size=shape).astype(dtype), 3, 3, 1, padding)
        assert cols.dtype == dtype
        out = bk.col2im(cols, shape, 3, 3, 1, padding)
        assert out.dtype == dtype
        assert out.shape == shape

    @pytest.mark.parametrize("backend", ["reference", "fast"])
    @pytest.mark.parametrize("padding", [0, 2])
    def test_output_c_contiguous(self, backend, padding):
        bk = B.get_backend(backend)
        shape = (2, 2, 5, 5)
        cols = bk.im2col(RNG.normal(size=shape), 2, 2, 1, padding)
        out = bk.col2im(cols, shape, 2, 2, 1, padding)
        assert out.flags["C_CONTIGUOUS"]


class TestFusedInference:
    def test_conv2d_infer_matches_graph_path(self):
        x = RNG.normal(size=(2, 3, 8, 8)).astype(np.float32)
        w = RNG.normal(size=(5, 3, 3, 3)).astype(np.float32)
        b = RNG.normal(size=5).astype(np.float32)
        graph = conv2d(Tensor(x), Tensor(w), Tensor(b), stride=1, padding=1)
        graph = Tensor(np.maximum(graph.data, 0.0))
        for backend in ("reference", "fast"):
            fused = B.get_backend(backend).conv2d_infer(x, w, b, 1, 1, relu=True)
            np.testing.assert_allclose(fused, graph.data, rtol=1e-6, atol=1e-6)

    def test_no_grad_conv_uses_inference_path(self):
        x, w = RNG.normal(size=(1, 2, 5, 5)), RNG.normal(size=(3, 2, 3, 3))
        with_grad = conv2d(Tensor(x, requires_grad=True), Tensor(w), padding=1)
        assert with_grad.requires_grad
        with no_grad():
            inferred = conv2d(Tensor(x, requires_grad=True), Tensor(w), padding=1)
        assert not inferred.requires_grad
        np.testing.assert_allclose(inferred.data, with_grad.data,
                                   rtol=1e-6, atol=1e-9)

    @pytest.mark.parametrize("backend", ["reference", "fast"])
    def test_no_grad_pooling_matches_graph(self, backend):
        x = RNG.normal(size=(2, 3, 7, 7))
        with B.use_backend(backend):
            graph_max = max_pool2d(Tensor(x), 2, stride=2)
            with no_grad():
                fast_max = max_pool2d(Tensor(x), 2, stride=2)
        np.testing.assert_allclose(fast_max.data, graph_max.data, rtol=1e-6)

    @pytest.mark.parametrize("backend", ["reference", "fast"])
    def test_batchnorm_eval_no_grad_path(self, backend):
        bn = BatchNorm2d(3)
        x = RNG.normal(size=(4, 3, 5, 5))
        bn.train()
        bn(Tensor(x))  # populate running statistics
        bn.eval()
        graph_out = bn(Tensor(x, requires_grad=True))
        with B.use_backend(backend), no_grad():
            infer_out = bn(Tensor(x))
        np.testing.assert_allclose(infer_out.data, graph_out.data,
                                   rtol=1e-6, atol=1e-8)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64],
                             ids=["float32", "float64"])
    def test_batchnorm_infer_bytes_equal_scale_shift_expression(self, dtype):
        # one temporary instead of two: the same multiply and add, so
        # the same bytes, on the batch-last views the trunk feeds it
        rng = np.random.default_rng(8)
        for c, h, w, n in [(8, 32, 32, 64), (16, 16, 16, 7), (3, 5, 4, 1)]:
            x = np.moveaxis(rng.normal(size=(c, h, w, n)).astype(dtype), -1, 0)
            shape = (1, c, 1, 1)
            mean, gamma, beta = (rng.normal(size=shape).astype(dtype)
                                 for _ in range(3))
            var = (np.abs(rng.normal(size=shape)) + 0.1).astype(dtype)
            scale = gamma / np.sqrt(var + 1e-5)
            want = x * scale + (beta - mean * scale)
            got = fast.batchnorm_infer(x, mean, var, gamma, beta, 1e-5)
            assert got.dtype == want.dtype
            assert got.strides == want.strides
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("padding", [1, 2])
    def test_padding_border_is_zero_over_stale_scratch(self, padding):
        # the padded input comes from the pool and only its border is
        # zeroed: a NaN-filled buffer of that shape must not leak
        x = RNG.normal(size=(3, 2, 6, 5))
        padded_shape = (2, 6 + 2 * padding, 5 + 2 * padding, 3)
        stale = np.full(padded_shape, np.nan)
        fast._pool.give(stale)
        got = fast.im2col(x, 3, 3, 1, padding)
        # the gather took the stale buffer and gave it back
        assert fast._pool._free[(padded_shape, np.dtype(np.float64))][0] is stale
        ref = B.get_backend("reference").im2col(x, 3, 3, 1, padding)
        assert np.array_equal(got, ref)

    def test_col2im_matches_reference_across_geometries(self):
        # the slice-accumulation scatter must agree with np.add.at on
        # every stride/kernel/padding combination, including stride > 1
        # gaps and kernels wider than the stride (overlapping taps)
        ref = B.get_backend("reference")
        fast_b = B.get_backend("fast")
        for kernel, stride, padding in [(1, 1, 0), (2, 2, 0), (3, 1, 1),
                                        (3, 2, 2), (2, 3, 1), (4, 2, 0)]:
            shape = (3, 2, 9, 8)
            cols = ref.im2col(RNG.normal(size=shape), kernel, kernel,
                              stride, padding)
            want = ref.col2im(cols, shape, kernel, kernel, stride, padding)
            got = fast_b.col2im(cols, shape, kernel, kernel, stride, padding)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_im2col_dispatches_through_active_backend(self):
        x = RNG.normal(size=(2, 2, 6, 6))
        with B.use_backend("reference"):
            ref_cols = im2col(x, 3, 3, 1, 1)
        with B.use_backend("fast"):
            fast_cols = im2col(x, 3, 3, 1, 1)
        np.testing.assert_allclose(ref_cols, fast_cols, rtol=1e-12)
        with B.use_backend("fast"):
            back = col2im(fast_cols, x.shape, 3, 3, 1, 1)
        assert back.shape == x.shape

"""Invalid conv/pool geometry raises ShapeError on every backend.

``reference.conv_output_size`` is the one geometry check every gather
and scatter calls: kernel >= 1, stride >= 1 and padding >= 0.  Without
it a zero stride divided by zero, a zero pooling kernel failed inside a
numpy reshape, and a negative padding returned a map of wrapped-around
sums without complaint.
"""

import numpy as np
import pytest

from repro import backend as B
from repro.autograd import Tensor, no_grad
from repro.autograd.ops_nn import col2im, conv2d, im2col, max_pool2d
from repro.errors import ShapeError

X = np.random.default_rng(0).normal(size=(2, 3, 8, 8))
W = np.random.default_rng(1).normal(size=(4, 3, 3, 3))

CASES = {
    "conv_stride_0": lambda x: conv2d(x, Tensor(W), stride=0),
    "conv_stride_negative": lambda x: conv2d(x, Tensor(W), stride=-1),
    "conv_padding_negative": lambda x: conv2d(x, Tensor(W), padding=-1),
    "conv_kernel_0": lambda x: conv2d(x, Tensor(np.ones((4, 3, 0, 3)))),
    "max_pool_kernel_0": lambda x: max_pool2d(x, 0),
    "max_pool_stride_0": lambda x: max_pool2d(x, 2, stride=0),
}


@pytest.mark.parametrize("backend", ["reference", "fast"])
@pytest.mark.parametrize("grad", [True, False], ids=["grad", "no_grad"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_invalid_geometry_raises_shape_error(case, grad, backend):
    with B.use_backend(backend):
        if grad:
            with pytest.raises(ShapeError, match="geometry"):
                CASES[case](Tensor(X.copy(), requires_grad=True))
        else:
            with no_grad(), pytest.raises(ShapeError, match="geometry"):
                CASES[case](Tensor(X.copy()))


@pytest.mark.parametrize("backend", ["reference", "fast"])
@pytest.mark.parametrize("kernel,stride,padding",
                         [(0, 1, 0), (3, 0, 1), (3, 1, -1)])
def test_gather_and_scatter_check_geometry(backend, kernel, stride, padding):
    with B.use_backend(backend):
        with pytest.raises(ShapeError, match="geometry"):
            im2col(X, kernel, kernel, stride, padding)
        with pytest.raises(ShapeError, match="geometry"):
            col2im(np.zeros((27, 128)), X.shape, kernel, kernel, stride, padding)


def test_valid_edge_geometry_still_runs():
    # the smallest legal values: 1x1 kernel, stride 1, no padding
    for backend in ("reference", "fast"):
        with B.use_backend(backend):
            out = conv2d(Tensor(X), Tensor(np.ones((2, 3, 1, 1))))
            assert out.shape == (2, 2, 8, 8)
            assert max_pool2d(Tensor(X), 1).shape == X.shape

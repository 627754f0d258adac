"""The fast patch gather is reference's gather, element for element.

``fast`` builds the im2col patch matrix with one strided slice copy per
kernel tap instead of reference's fancy-index gather.  It only moves
data, so every column must be ``array_equal`` to reference's, with the
same dtype and shape -- that is what keeps each conv matmul's operands,
and so every trained and released number, bit-identical across the two
gathers.  That the returned columns never alias pooled scratch is pinned
in ``test_fast_paths.py`` (``TestBufferPool``).
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import fast, reference

DTYPES = (np.float32, np.float64)


def assert_same_columns(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert np.array_equal(got, want)


@st.composite
def conv_inputs(draw):
    """(x, kh, kw, stride, padding): any valid geometry, kh != kw allowed."""
    kh, kw = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    stride, padding = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    batch, channels = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    height = max(kh - 2 * padding, 1) + draw(st.integers(0, 5))
    width = max(kw - 2 * padding, 1) + draw(st.integers(0, 5))
    dtype = draw(st.sampled_from(DTYPES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=(batch, channels, height, width)).astype(dtype)
    if draw(st.booleans()):
        # a non-contiguous view: every other column of a wider array
        wide = rng.normal(size=(batch, channels, height, 2 * width)).astype(dtype)
        x = wide[..., ::2]
    return x, kh, kw, stride, padding


@given(conv_inputs())
@settings(max_examples=150, deadline=None)
def test_im2col_equals_reference(case):
    x, kh, kw, stride, padding = case
    assert_same_columns(fast.im2col(x, kh, kw, stride, padding),
                        reference.im2col(x, kh, kw, stride, padding))


@given(conv_inputs())
@settings(max_examples=100, deadline=None)
def test_conv2d_forward_columns_equal_reference(case):
    x, kh, kw, stride, padding = case
    weight = np.ones((2, x.shape[1], kh, kw), dtype=x.dtype)
    _, cols = fast.conv2d_forward(x, weight, stride, padding)
    assert_same_columns(cols, reference.im2col(x, kh, kw, stride, padding))


@pytest.mark.parametrize("dtype", DTYPES, ids=["float32", "float64"])
@pytest.mark.parametrize("stride,padding",
                         list(itertools.product((1, 2, 3), (0, 1, 2))))
def test_single_image_rectangular_kernel(stride, padding, dtype):
    x = np.random.default_rng(3).normal(size=(1, 2, 7, 6)).astype(dtype)
    want = reference.im2col(x, 3, 2, stride, padding)
    assert_same_columns(fast.im2col(x, 3, 2, stride, padding), want)
    _, cols = fast.conv2d_forward(x, np.ones((4, 2, 3, 2), dtype), stride, padding)
    assert_same_columns(cols, want)


@pytest.mark.parametrize("dtype", DTYPES, ids=["float32", "float64"])
def test_non_contiguous_input_views(dtype):
    base = np.random.default_rng(4).normal(size=(3, 4, 9, 9)).astype(dtype)
    views = [base[:, ::2], base[..., 1:, :-1], base.transpose(0, 1, 3, 2),
             base[::-1]]
    for x in views:
        assert not x.flags["C_CONTIGUOUS"]
        for padding in (0, 1):
            assert_same_columns(fast.im2col(x, 3, 3, 2, padding),
                                reference.im2col(x, 3, 3, 2, padding))


@given(kernel=st.integers(1, 3), stride=st.integers(1, 3),
       batch=st.integers(1, 3), channels=st.integers(1, 3),
       extra_h=st.integers(0, 5), extra_w=st.integers(0, 5),
       dtype=st.sampled_from(DTYPES), ties=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_maxpool_argmax_equals_reference(kernel, stride, batch, channels,
                                         extra_h, extra_w, dtype, ties, seed):
    rng = np.random.default_rng(seed)
    shape = (batch, channels, kernel + extra_h, kernel + extra_w)
    # rounded inputs put ties in windows: both must pick the same tap
    x = rng.normal(size=shape)
    x = (np.round(x) if ties else x).astype(dtype)
    out, argmax = fast.maxpool2d_forward(x, kernel, stride)
    want_out, want_argmax = reference.maxpool2d_forward(x, kernel, stride)
    assert argmax.dtype == want_argmax.dtype
    assert np.array_equal(argmax, want_argmax)
    assert_same_columns(out, want_out)
    assert_same_columns(fast.maxpool2d_infer(x, kernel, stride), want_out)

"""The numpy SSIM window and KS statistic equal scipy's bit for bit.

``repro`` carries no scipy at run time; scipy stays the test oracle.
Every comparison here is on bytes, not within a tolerance.
"""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import ndimage, stats

from repro.defenses.detection import weight_distribution_anomaly
from repro.errors import ShapeError
from repro.metrics import batch_ssim, gaussian_filter, ks_distance, ks_statistic, ssim
from repro.models.introspect import parameter_vector
from repro.models.mlp import MLP

seeds = st.integers(0, 2 ** 32 - 1)


def same_bytes(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and \
        got.tobytes() == want.tobytes()


def scipy_planes(images, sigma):
    """scipy's filter applied to every (H, W) plane of a float64 array."""
    images = np.asarray(images, dtype=np.float64)
    out = np.empty(images.shape)
    for index in np.ndindex(*images.shape[:-2]):
        out[index] = ndimage.gaussian_filter(images[index], sigma)
    return out


def scipy_ssim(x, y):
    """The per-channel SSIM the library computed when it imported scipy."""
    c1, c2 = (0.01 * 255.0) ** 2, (0.03 * 255.0) ** 2
    channels = []
    for c in range(x.shape[2]):
        a = np.asarray(x[..., c], dtype=np.float64)
        b = np.asarray(y[..., c], dtype=np.float64)
        mu_a, mu_b = (ndimage.gaussian_filter(v, 1.5) for v in (a, b))
        mu_a_sq, mu_b_sq, mu_ab = mu_a * mu_a, mu_b * mu_b, mu_a * mu_b
        sigma_a = ndimage.gaussian_filter(a * a, 1.5) - mu_a_sq
        sigma_b = ndimage.gaussian_filter(b * b, 1.5) - mu_b_sq
        sigma_ab = ndimage.gaussian_filter(a * b, 1.5) - mu_ab
        numerator = (2 * mu_ab + c1) * (2 * sigma_ab + c2)
        denominator = (mu_a_sq + mu_b_sq + c1) * (sigma_a + sigma_b + c2)
        channels.append(float((numerator / denominator).mean()))
    return float(np.mean(channels))


def scipy_ks(a, b):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return float(stats.ks_2samp(a, b)[0])


@settings(max_examples=80, deadline=None)
@given(seed=seeds,
       lead=st.lists(st.integers(1, 3), max_size=2),
       # sides from 1 up: sigma up to 4 gives radius 16, longer than most
       side=st.tuples(st.integers(1, 24), st.integers(1, 24)),
       sigma=st.floats(0.05, 4.0),
       as_uint8=st.booleans())
def test_gaussian_filter_matches_scipy(seed, lead, side, sigma, as_uint8):
    rng = np.random.default_rng(seed)
    shape = tuple(lead) + side
    if as_uint8:
        images = rng.integers(0, 256, shape).astype(np.uint8)
    else:
        images = rng.standard_normal(shape) * rng.choice([1e-3, 1.0, 1e3])
    assert same_bytes(gaussian_filter(images, sigma), scipy_planes(images, sigma))


def test_gaussian_filter_blocks_many_planes():
    # more planes than one cache block holds: block edges change nothing
    images = np.random.default_rng(0).standard_normal((70, 3, 24, 24))
    assert same_bytes(gaussian_filter(images, 1.5), scipy_planes(images, 1.5))


@settings(max_examples=60, deadline=None)
@given(seed=seeds, n=st.integers(0, 5),
       side=st.tuples(st.integers(1, 40), st.integers(1, 40)),
       channels=st.sampled_from([None, 1, 2, 3]),
       as_uint8=st.booleans(), identical=st.booleans())
def test_batch_ssim_matches_scipy(seed, n, side, channels, as_uint8, identical):
    rng = np.random.default_rng(seed)
    shape = (n,) + side + ((channels,) if channels else ())
    originals = rng.integers(0, 256, shape).astype(np.uint8)
    recons = originals.copy() if identical else \
        rng.integers(0, 256, shape).astype(np.uint8)
    if not as_uint8:
        recons = recons.astype(np.float32) + rng.random(shape, dtype=np.float32)
    want = np.array([
        scipy_ssim(o if channels else o[..., None], r if channels else r[..., None])
        for o, r in zip(originals, recons)])
    got = batch_ssim(originals, recons)
    assert same_bytes(got, want)
    if n:
        assert ssim(originals[0], recons[0]) == want[0]


sizes = st.one_of(st.integers(1, 60), st.integers(9_990, 10_010),
                  st.integers(10_001, 15_000))


@settings(max_examples=60, deadline=None)
@example(seed=0, n1=10_000, n2=37, kind="normal")  # the last rounded size
@example(seed=0, n1=10_001, n2=37, kind="normal")
@given(seed=seeds, n1=sizes, n2=sizes,
       kind=st.sampled_from(["normal", "ties", "float32", "int"]))
def test_ks_statistic_matches_scipy(seed, n1, n2, kind):
    # sample sizes on both sides of 10,000, where scipy stops rounding D
    rng = np.random.default_rng(seed)
    if kind == "normal":
        a, b = rng.standard_normal(n1), rng.standard_normal(n2) + rng.uniform(-1, 1)
    elif kind == "ties":
        a, b = (rng.integers(0, 4, n).astype(np.float64) for n in (n1, n2))
    elif kind == "float32":
        a, b = (rng.standard_normal(n).astype(np.float32) for n in (n1, n2))
    else:
        a, b = rng.integers(-2, 3, n1), rng.integers(-2, 3, n2)
    got = ks_statistic(a, b)
    assert type(got) is float and same_bytes(got, scipy_ks(a, b))


@settings(max_examples=30, deadline=None)
@given(seed=seeds, n1=st.integers(2, 400), n2=st.integers(2, 400))
def test_ks_distance_matches_scipy(seed, n1, n2):
    rng = np.random.default_rng(seed)
    a, b = rng.gamma(2.0, size=n1), rng.standard_normal(n2)

    def scale(v):
        return (v - v.min()) / (v.max() - v.min())

    assert same_bytes(ks_distance(a, b), scipy_ks(scale(a), scale(b)))


@settings(max_examples=15, deadline=None)
@given(seed=seeds, hidden=st.integers(2, 40), wide=st.booleans())
def test_weight_distribution_anomaly_matches_scipy(seed, hidden, wide):
    # the wide reference crosses 10,000 weights: the unrounded branch
    rng = np.random.default_rng(seed)
    model = MLP([16, hidden, 4], rng=rng)
    reference = MLP([16, 700 if wide else hidden, 4], rng=rng)

    def standardise(vector):
        return (vector - vector.mean()) / vector.std()

    want = scipy_ks(standardise(parameter_vector(model)),
                    standardise(parameter_vector(reference)))
    assert same_bytes(weight_distribution_anomaly(model, reference), want)


def test_ks_statistic_nan_propagates_like_scipy():
    a, b = np.array([0.5, np.nan, 1.0]), np.array([0.2, 0.4])
    assert np.isnan(ks_statistic(a, b)) and np.isnan(scipy_ks(a, b))
    assert np.isnan(ks_statistic(b, a))


def test_ks_statistic_rejects_empty_samples():
    with pytest.raises(ShapeError):
        ks_statistic(np.array([]), np.array([1.0]))
    with pytest.raises(ShapeError):
        ks_statistic(np.array([1.0]), [])

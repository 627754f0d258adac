"""Distribution distances for the Fig. 2 / Fig. 3 shape claims.

The paper argues visually that (a) the attack reshapes the weight
distribution towards the target pixel distribution and (b) Algorithm 1
preserves that shape while weighted-entropy quantization destroys it.
These two distances quantify those claims so the benchmarks can assert
them numerically.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ShapeError


def histogram_overlap(a: np.ndarray, b: np.ndarray, bins: int = 64) -> float:
    """Overlap coefficient of two samples' normalised histograms.

    Both samples are min-max mapped to [0, 1] first (the attack encodes
    an affine image of the pixels, so shape comparison must be
    scale-free).  1.0 means identical shapes, 0.0 means disjoint.
    """
    def _normalised_hist(sample: np.ndarray) -> np.ndarray:
        sample = np.asarray(sample, dtype=np.float64).reshape(-1)
        if sample.size == 0:
            raise ShapeError("cannot histogram an empty sample")
        low, high = sample.min(), sample.max()
        if high - low < 1e-12:
            scaled = np.zeros_like(sample)
        else:
            scaled = (sample - low) / (high - low)
        counts, _ = np.histogram(scaled, bins=bins, range=(0.0, 1.0))
        return counts / counts.sum()

    hist_a = _normalised_hist(a)
    hist_b = _normalised_hist(b)
    return float(np.minimum(hist_a, hist_b).sum())


def ks_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic on min-max scaled samples."""
    def _scale(sample: np.ndarray) -> np.ndarray:
        sample = np.asarray(sample, dtype=np.float64).reshape(-1)
        low, high = sample.min(), sample.max()
        if high - low < 1e-12:
            return np.zeros_like(sample)
        return (sample - low) / (high - low)

    return ks_statistic(_scale(a), _scale(b))


# above this sample size ks_2samp's "auto" method leaves D unrounded
_EXACT_MAX_N = 10_000


def ks_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic D = sup |F_a - F_b|.

    The statistic of ``scipy.stats.ks_2samp(a, b)`` (two-sided,
    ``method="auto"``) bit for bit, without the p-value: the empirical
    CDFs are compared at every sample point via ``searchsorted``, and
    when ``max(n1, n2) <= 10_000`` D is rounded to a multiple of
    ``1 / lcm(n1, n2)`` as scipy's exact mode does.  NaN in either
    sample gives NaN; an empty sample raises
    :class:`~repro.errors.ShapeError`.
    """
    a = np.sort(np.ravel(a))
    b = np.sort(np.ravel(b))
    n1, n2 = a.size, b.size
    if min(n1, n2) == 0:
        raise ShapeError("ks_statistic needs two non-empty samples")
    if np.isnan(a[-1]) or np.isnan(b[-1]):  # sort puts NaN last
        return float("nan")
    both = np.concatenate([a, b])
    diffs = (np.searchsorted(a, both, side="right") / n1
             - np.searchsorted(b, both, side="right") / n2)
    below = np.clip(-diffs.min(), 0, 1)
    above = diffs.max()
    statistic = below if below > above else above
    if max(n1, n2) <= _EXACT_MAX_N:
        lcm = (n1 // math.gcd(n1, n2)) * n2
        return int(np.round(statistic * lcm)) * 1.0 / lcm
    return float(statistic)

"""Target-correlated (image-based) weight quantization -- Algorithm 1.

The adversary's quantizer.  Instead of placing clusters where a benign
objective (range coverage, weighted entropy) dictates, cluster sizes are
dictated by the *pixel-value histogram of the correlation target set*:

    line 3:  H  <- hist(T, l)                    (l-bin pixel histogram)
    lines 4-7:  b_i <- b_{i-1} + H[i-1] * ell     (boundary indices)
    line 8:  S  <- sort(weights)
    lines 9-13: r_i = mean(S[b_i : b_{i+1}]),  v_i = S[b_i],  v_l = inf
    lines 14-16: q_j = f_q(w_j)  -- assign by boundary values, emit r_k.

Because the attacked weight distribution already mirrors the target
pixel distribution (Fig. 2), quantile-matching the clusters to the pixel
histogram preserves that shape (Fig. 3b), keeping both accuracy and the
embedded data intact.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.attacks.secret import SecretPayload
from repro.errors import QuantizationError
from repro.quantization.base import Quantizer, assign_to_boundaries
from repro.telemetry.trace import timed_stage


def pixel_histogram(target_images: np.ndarray, levels: int) -> np.ndarray:
    """Normalised l-bin histogram of the target set's pixel values (line 3)."""
    pixels = np.asarray(target_images, dtype=np.float64).reshape(-1)
    if pixels.size == 0:
        raise QuantizationError("target image set is empty")
    counts, _ = np.histogram(pixels, bins=levels, range=(0.0, 255.0))
    return counts / counts.sum()


class TargetCorrelatedQuantizer(Quantizer):
    """Algorithm 1: image-histogram-guided weight quantization.

    Args:
        target_images: the correlation target set ``T`` (or a payload).
        levels: quantization level count ``l``.
        scope: codebook scope (Algorithm 1 sorts the total weight list,
            i.e. ``"global"``).
        flip: reverse the histogram.  Eq. 1 maximises the *absolute*
            correlation, so training may converge to a negative
            weight-pixel correlation; the weight distribution then
            mirrors the flipped pixel distribution.  The malicious
            training code has both weights and targets at quantization
            time, so it detects the sign and sets this flag (see
            :func:`detect_flip`).
    """

    def __init__(self, target_images: np.ndarray, levels: int, scope: str = "global",
                 flip: bool = False) -> None:
        super().__init__(levels, scope)
        if isinstance(target_images, SecretPayload):
            target_images = target_images.images
        histogram = pixel_histogram(target_images, levels)
        self.flip = bool(flip)
        self.histogram = histogram[::-1].copy() if self.flip else histogram

    def _quantize(self, weights: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        count = weights.size
        if count < self.levels:
            raise QuantizationError(
                f"cannot form {self.levels} clusters from {count} weights"
            )
        with timed_stage("quant.target_correlated.cluster", weights=count):
            # Lines 4-7: cumulative histogram mass -> boundary indices into
            # the sorted weight list.
            boundaries_idx = np.concatenate(
                ([0], np.round(np.cumsum(self.histogram) * count).astype(np.int64))
            )
            boundaries_idx[-1] = count  # guard against rounding drift
            boundaries_idx = np.maximum.accumulate(boundaries_idx)

            sorted_weights = np.sort(weights)  # line 8

            codebook = np.empty(self.levels)
            boundary_values = np.empty(self.levels + 1)
            previous = float(sorted_weights[0])
            for k in range(self.levels):  # lines 9-12
                start, stop = boundaries_idx[k], boundaries_idx[k + 1]
                if stop > start:
                    codebook[k] = float(sorted_weights[start:stop].mean())
                    boundary_values[k] = sorted_weights[start]
                    previous = codebook[k]
                else:  # empty histogram bin -> empty cluster
                    codebook[k] = previous
                    boundary_values[k] = sorted_weights[min(start, count - 1)]
            boundary_values[0] = -np.inf
            boundary_values[-1] = np.inf  # line 13
            boundary_values[1:-1] = np.maximum.accumulate(boundary_values[1:-1])

        with timed_stage("quant.target_correlated.assign", weights=count):
            assignment = assign_to_boundaries(weights, boundary_values)  # lines 14-16
        return codebook, assignment


def detect_flip(weights: np.ndarray, secret: np.ndarray) -> bool:
    """True when the established weight-secret correlation is negative.

    Computed over the first ``min(len(weights), len(secret))`` aligned
    entries -- the same alignment the encoder used.
    """
    weights = np.asarray(weights, dtype=np.float64).reshape(-1)
    secret = np.asarray(secret, dtype=np.float64).reshape(-1)
    length = min(weights.size, secret.size)
    if length < 2:
        return False
    w = weights[:length] - weights[:length].mean()
    s = secret[:length] - secret[:length].mean()
    denom = np.sqrt((w * w).sum()) * np.sqrt((s * s).sum())
    if denom < 1e-12:
        return False
    return float((w * s).sum() / denom) < 0.0

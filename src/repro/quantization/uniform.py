"""Linear (uniform) and k-means quantizers.

The uniform quantizer linearly spaces representatives across the weight
range; k-means refines a linear initialisation with Lloyd iterations --
exactly deep compression's "linearly space the centroids ... to
initialize the shared weights" (Han et al., 2015).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.quantization.base import Quantizer


class UniformQuantizer(Quantizer):
    """Evenly spaced representatives between the min and max weight."""

    def _quantize(self, weights: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        low, high = float(weights.min()), float(weights.max())
        if high - low < 1e-12:
            return np.array([low]), np.zeros(weights.size, dtype=np.int64)
        codebook = np.linspace(low, high, self.levels)
        # Nearest representative == index by rounding into the grid.
        step = (high - low) / (self.levels - 1)
        assignment = np.clip(np.round((weights - low) / step), 0, self.levels - 1)
        return codebook, assignment.astype(np.int64)


class KMeansQuantizer(Quantizer):
    """1-D Lloyd's k-means with linear initialisation (deep compression)."""

    def __init__(self, levels: int, scope: str = "global", iterations: int = 25) -> None:
        super().__init__(levels, scope)
        self.iterations = int(iterations)

    def _quantize(self, weights: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        low, high = float(weights.min()), float(weights.max())
        if high - low < 1e-12:
            return np.array([low]), np.zeros(weights.size, dtype=np.int64)
        centroids = np.linspace(low, high, self.levels)
        order = np.argsort(weights)
        sorted_weights = weights[order]
        for _ in range(self.iterations):
            # 1-D assignment: midpoints between sorted centroids split the line.
            midpoints = (centroids[1:] + centroids[:-1]) / 2.0
            assignment_sorted = np.searchsorted(midpoints, sorted_weights)
            sums = np.bincount(assignment_sorted, weights=sorted_weights,
                               minlength=self.levels)
            counts = np.bincount(assignment_sorted, minlength=self.levels)
            updated = np.where(counts > 0, sums / np.maximum(counts, 1), centroids)
            if np.allclose(updated, centroids, atol=1e-10):
                centroids = updated
                break
            centroids = updated
        midpoints = (centroids[1:] + centroids[:-1]) / 2.0
        assignment = np.searchsorted(midpoints, weights).astype(np.int64)
        return centroids, assignment

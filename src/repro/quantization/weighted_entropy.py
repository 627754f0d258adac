"""Weighted-entropy-based quantization (Park et al., CVPR 2017).

Park et al. assign each weight an *importance* (approximately the
squared weight value: large-magnitude weights matter more to the
output), then choose cluster boundaries over the sorted weights that
maximise the weighted entropy

    S = - sum_k P_k log P_k,   P_k = (importance mass of cluster k) / total.

Entropy is maximised when every cluster carries equal importance mass,
so the quantizer partitions the sorted weight list at equal cumulative
importance and represents each cluster by its importance-weighted mean.
This reproduces the behaviour the DAC'20 paper exploits: clusters
concentrate where |w| is moderate-to-large, which *reshapes* a
correlation-attacked weight distribution (Fig. 3a) and destroys the
embedded data at low bit widths (Table I).  The boundary-search
simplification is documented in DESIGN.md.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.quantization.base import Quantizer, assign_to_boundaries
from repro.telemetry.trace import timed_stage


def weight_importance(weights: np.ndarray) -> np.ndarray:
    """Park et al.'s importance measure: the squared weight value."""
    return weights.astype(np.float64) ** 2


def weighted_entropy(importance_mass: np.ndarray) -> float:
    """Weighted entropy of a cluster importance-mass vector."""
    total = importance_mass.sum()
    if total <= 0:
        return 0.0
    probabilities = importance_mass[importance_mass > 0] / total
    return float(-(probabilities * np.log(probabilities)).sum())


class WeightedEntropyQuantizer(Quantizer):
    """Equal-importance-mass clustering over the sorted weight list."""

    def _quantize(self, weights: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        with timed_stage("quant.weighted_entropy.cluster", weights=weights.size):
            order = np.argsort(weights, kind="stable")
            sorted_weights = weights[order]
            importance = weight_importance(sorted_weights)
            cumulative = np.cumsum(importance)
            total = cumulative[-1]
            if total <= 0:  # all-zero weights
                return np.array([0.0]), np.zeros(weights.size, dtype=np.int64)

            # Boundary indices at equal cumulative-importance quantiles.
            targets = total * np.arange(1, self.levels) / self.levels
            cut_indices = np.searchsorted(cumulative, targets, side="left") + 1
            boundaries_idx = np.concatenate(([0], cut_indices, [weights.size]))
            boundaries_idx = np.maximum.accumulate(boundaries_idx)  # monotone

            codebook = np.empty(self.levels)
            boundary_values = np.empty(self.levels + 1)
            previous = sorted_weights[0]
            for k in range(self.levels):
                start, stop = boundaries_idx[k], boundaries_idx[k + 1]
                if stop > start:
                    cluster = sorted_weights[start:stop]
                    mass = importance[start:stop]
                    mass_sum = mass.sum()
                    if mass_sum > 0:
                        codebook[k] = float((cluster * mass).sum() / mass_sum)
                    else:  # a cluster of exact zeros
                        codebook[k] = float(cluster.mean())
                    boundary_values[k] = cluster[0]
                    previous = codebook[k]
                else:  # empty cluster: collapse onto the previous representative
                    codebook[k] = previous
                    boundary_values[k] = sorted_weights[min(start, weights.size - 1)]
            boundary_values[0] = -np.inf
            boundary_values[-1] = np.inf
            # Boundaries must be non-decreasing for searchsorted assignment.
            boundary_values[1:-1] = np.maximum.accumulate(boundary_values[1:-1])

        with timed_stage("quant.weighted_entropy.assign", weights=weights.size):
            assignment = assign_to_boundaries(weights, boundary_values)
        return codebook, assignment

"""White-box audits a data holder can run before releasing a model.

Two complementary signals:

1. **Distribution anomaly** -- the correlation attack visibly reshapes
   the weight distribution towards the pixel distribution (the paper's
   own Fig. 2a); a KS test against a benign reference model flags it.
2. **Correlation scan** -- the data holder *owns the training data*, so
   they can directly measure the Pearson correlation between weight
   slices and each training image.  A benign model shows |corr| near 0
   (order 1/sqrt(u)); an attacked model shows |corr| near 1 on the
   embedded images.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.datasets.base import ImageDataset
from repro.metrics.distribution import ks_statistic
from repro.models.introspect import parameter_vector
from repro.nn.module import Module


@dataclass(frozen=True)
class DetectionReport:
    """Outcome of a pre-release audit."""

    max_abs_correlation: float
    suspicious_images: int
    ks_statistic: Optional[float]
    flagged: bool

    def __str__(self) -> str:
        verdict = "ATTACK SUSPECTED" if self.flagged else "clean"
        ks_text = f", ks={self.ks_statistic:.3f}" if self.ks_statistic is not None else ""
        return (f"DetectionReport({verdict}: max|corr|={self.max_abs_correlation:.3f}, "
                f"{self.suspicious_images} suspicious images{ks_text})")


def weight_distribution_anomaly(
    model: Module, reference: Module, names: Optional[Sequence[str]] = None
) -> float:
    """KS statistic between a model's weights and a benign reference's.

    Both vectors are standardised first so that scale differences from
    training randomness do not dominate.
    """
    def _standardise(vector: np.ndarray) -> np.ndarray:
        std = vector.std()
        return (vector - vector.mean()) / (std if std > 1e-12 else 1.0)

    weights = _standardise(parameter_vector(model, list(names) if names else None))
    ref = _standardise(parameter_vector(reference, list(names) if names else None))
    return ks_statistic(weights, ref)


def correlation_scan(
    model: Module,
    dataset: ImageDataset,
    names: Optional[Sequence[str]] = None,
    stride_fraction: float = 0.25,
) -> Tuple[np.ndarray, np.ndarray]:
    """Scan weight slices for correlation with each training image.

    The encoder packs each image into a contiguous weight slice, but the
    auditor does not know the offsets, so the scan slides a window of
    one image-length over the weight vector with the given stride.

    Returns:
        (max_abs_corr, best_offset) arrays, one entry per image.
    """
    weights = parameter_vector(model, list(names) if names else None)
    pixels_per_image = dataset.pixels_per_image
    if weights.size < pixels_per_image:
        return np.zeros(len(dataset)), np.zeros(len(dataset), dtype=np.int64)
    stride = max(1, int(pixels_per_image * stride_fraction))
    offsets = np.arange(0, weights.size - pixels_per_image + 1, stride)

    # Precompute windowed weight statistics for every offset.
    windows = np.stack([weights[o:o + pixels_per_image] for o in offsets])
    windows = windows - windows.mean(axis=1, keepdims=True)
    window_norms = np.sqrt((windows ** 2).sum(axis=1))
    window_norms[window_norms < 1e-12] = 1.0

    flat_images = dataset.images.reshape(len(dataset), -1).astype(np.float64)
    flat_images = flat_images - flat_images.mean(axis=1, keepdims=True)
    image_norms = np.sqrt((flat_images ** 2).sum(axis=1))
    image_norms[image_norms < 1e-12] = 1.0

    # corr[i, o] = <image_i, window_o> / (|image_i| |window_o|)
    correlation = (flat_images @ windows.T) / image_norms[:, None] / window_norms[None, :]
    best = np.abs(correlation).argmax(axis=1)
    max_abs = np.abs(correlation)[np.arange(len(dataset)), best]
    return max_abs, offsets[best]


def detect_attack(
    model: Module,
    dataset: ImageDataset,
    reference: Optional[Module] = None,
    correlation_threshold: float = 0.5,
    ks_threshold: float = 0.15,
    max_images: int = 64,
    seed: int = 0,
) -> DetectionReport:
    """Run the full audit: correlation scan (+ optional KS anomaly).

    Args:
        model: the model about to be released.
        dataset: the holder's training data (a random subsample of
            ``max_images`` is scanned -- the attack embeds a sizable
            subset, so sampling finds it with high probability).
        reference: optional benign model of the same architecture.
        correlation_threshold: |corr| above this flags an image.
        ks_threshold: KS statistic above this flags the distribution.
    """
    if len(dataset) > max_images:
        rng = np.random.default_rng(seed)
        indices = rng.choice(len(dataset), size=max_images, replace=False)
        dataset = dataset.subset(np.sort(indices))
    max_abs, _ = correlation_scan(model, dataset)
    suspicious = int((max_abs > correlation_threshold).sum())
    ks_statistic = None
    ks_flag = False
    if reference is not None:
        ks_statistic = weight_distribution_anomaly(model, reference)
        ks_flag = ks_statistic > ks_threshold
    flagged = suspicious > 0 or ks_flag
    return DetectionReport(
        max_abs_correlation=float(max_abs.max()) if len(max_abs) else 0.0,
        suspicious_images=suspicious,
        ks_statistic=ks_statistic,
        flagged=flagged,
    )

"""Shared attack evaluation: evasiveness + effectiveness in one sweep."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro import backend as _backend
from repro.attacks.decoder import decode_groups, decode_images
from repro.attacks.layerwise import LayerGroup
from repro.attacks.secret import SecretPayload
from repro.metrics.accuracy import evaluate_accuracy
from repro.metrics.mape import batch_mape
from repro.metrics.recognizability import recognizable_mask
from repro.metrics.ssim import batch_ssim
from repro.nn.module import Module
from repro.telemetry.trace import span


@dataclass
class AttackEvaluation:
    """Everything the paper's tables report about one released model."""

    accuracy: float
    reconstructions: np.ndarray
    originals: np.ndarray
    mape_per_image: np.ndarray
    ssim_per_image: np.ndarray
    recognizable: np.ndarray

    @property
    def encoded_images(self) -> int:
        return len(self.originals)

    @property
    def mean_mape(self) -> float:
        return float(self.mape_per_image.mean()) if len(self.mape_per_image) else float("nan")

    @property
    def mean_ssim(self) -> float:
        return float(self.ssim_per_image.mean()) if len(self.ssim_per_image) else float("nan")

    @property
    def recognized_count(self) -> int:
        return int(self.recognizable.sum())

    @property
    def recognized_percent(self) -> float:
        return 100.0 * self.recognized_count / max(self.encoded_images, 1)

    def mape_above(self, threshold: float = 20.0) -> int:
        """Badly encoded images (Table II metric)."""
        return int((self.mape_per_image > threshold).sum())

    def mape_below(self, threshold: float = 20.0) -> int:
        return int((self.mape_per_image < threshold).sum())

    def ssim_above(self, threshold: float = 0.5) -> int:
        return int((self.ssim_per_image > threshold).sum())


def evaluate_attack(
    model: Module,
    test_inputs: np.ndarray,
    test_labels: np.ndarray,
    groups: Optional[Sequence[LayerGroup]] = None,
    payload: Optional[SecretPayload] = None,
    weight_vector: Optional[np.ndarray] = None,
    polarity: str = "reference",
    mean: Optional[np.ndarray] = None,
    std: Optional[np.ndarray] = None,
    backend: Optional[str] = None,
) -> AttackEvaluation:
    """Evaluate a released model's evasiveness and data leakage.

    Either ``groups`` (layer-wise attack) or ``payload`` +
    ``weight_vector`` (uniform attack over a flat weight vector) selects
    the decoding source.  ``backend`` scopes the kernel backend used for
    the forward passes (the accuracy and recognizability sweeps run
    no-grad, so the fast backend's fused inference kernels apply).
    """
    with _backend.use_backend(backend):
        return _evaluate_attack(
            model, test_inputs, test_labels, groups, payload,
            weight_vector, polarity, mean, std,
        )


def _evaluate_attack(
    model, test_inputs, test_labels, groups, payload,
    weight_vector, polarity, mean, std,
) -> AttackEvaluation:
    # one span per stage, named after the metric row it times
    with span("metrics.accuracy"):
        accuracy = evaluate_accuracy(model, test_inputs, test_labels)
    with span("attacks.decode"):
        if groups is not None:
            reconstructions, originals, _ = decode_groups(groups, polarity=polarity)
            labels: List[int] = []
            for group in groups:
                if group.payload is not None:
                    labels.extend(group.payload.labels.tolist())
            labels = np.asarray(labels)
        elif payload is not None and weight_vector is not None:
            reconstructions = decode_images(weight_vector, payload, polarity=polarity)
            originals = payload.images
            labels = payload.labels
        else:
            raise ValueError("need either groups or (payload, weight_vector)")
    with span("metrics.mape"):
        mape = batch_mape(originals, reconstructions)
    with span("metrics.ssim"):
        ssim_values = batch_ssim(originals, reconstructions)
    with span("metrics.recognizable"):
        recognizable = recognizable_mask(model, reconstructions, labels, mean, std)
    return AttackEvaluation(
        accuracy=accuracy,
        reconstructions=reconstructions,
        originals=originals,
        mape_per_image=mape,
        ssim_per_image=ssim_values,
        recognizable=recognizable,
    )

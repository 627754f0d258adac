"""Baselines: benign training, the original uniform attack, and
quantize-with-any-method -- the comparison arms of Tables I/III/IV.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.attacks.correlated import CorrelationPenalty
from repro.attacks.secret import SecretPayload
from repro.datasets.base import ImageDataset
from repro.datasets.transforms import images_to_batch, normalize_batch
from repro.errors import ConfigError
from repro.metrics.accuracy import evaluate_accuracy
from repro.models.introspect import encodable_parameters
from repro.nn.dataloader import DataLoader
from repro.nn.module import Module
from repro.pipeline.config import QuantizationConfig, TrainingConfig
from repro.pipeline.evaluation import AttackEvaluation, evaluate_attack
from repro.pipeline.trainer import Trainer, TrainHistory
from repro.quantization.base import QuantizationResult, Quantizer, apply_quantization
from repro.quantization.finetune import finetune_quantized
from repro.quantization.target_correlated import TargetCorrelatedQuantizer
from repro.quantization.uniform import KMeansQuantizer, UniformQuantizer
from repro.quantization.weighted_entropy import WeightedEntropyQuantizer
from repro.telemetry.trace import span


def make_quantizer(
    config: QuantizationConfig,
    target_images: Optional[np.ndarray] = None,
    flip: bool = False,
) -> Quantizer:
    """Build the quantizer named by a :class:`QuantizationConfig`.

    ``flip`` only affects the target-correlated method: it reverses the
    pixel histogram when the trained weight-pixel correlation is
    negative (see :func:`repro.quantization.target_correlated.detect_flip`).
    """
    config.validate()
    if config.method == "target_correlated":
        if target_images is None:
            raise ConfigError("target_correlated quantization needs target_images")
        return TargetCorrelatedQuantizer(target_images, config.levels, config.scope,
                                         flip=flip)
    if config.method == "weighted_entropy":
        return WeightedEntropyQuantizer(config.levels, config.scope)
    if config.method == "uniform":
        return UniformQuantizer(config.levels, config.scope)
    return KMeansQuantizer(config.levels, config.scope)


def quantize_model_for_attack(
    model: Module,
    config: QuantizationConfig,
    target_images: Optional[np.ndarray] = None,
    flip: bool = False,
    encoding_names: Optional[list] = None,
) -> QuantizationResult:
    """Quantize as the adversary would: Algorithm 1 on the layers that
    carry data, a benign quantizer (k-means, same levels) elsewhere.

    Applying the target pixel histogram to *non-encoding* layers hurts
    accuracy when the histogram is skewed (dark-background digits,
    bright-background faces) -- those layers' weights are ordinary
    Gaussians, not pixel mirrors.  The adversary writes the quantizer,
    so nothing stops them from mixing methods per layer.
    """
    if (config.method == "target_correlated" and encoding_names):
        quantizer = make_quantizer(config, target_images=target_images, flip=flip)
        result = quantizer.quantize_model(model, names=encoding_names)
        wanted = set(encoding_names)
        other_names = [n for n, _ in encodable_parameters(model) if n not in wanted]
        if other_names:
            benign = KMeansQuantizer(config.levels, config.scope)
            other = benign.quantize_model(model, names=other_names)
            result.codebooks.update(other.codebooks)
            result.assignments.update(other.assignments)
            result.validate()
        return result
    quantizer = make_quantizer(config, target_images=target_images, flip=flip)
    return quantizer.quantize_model(model)


@dataclass
class BenignResult:
    model: Module
    accuracy: float
    history: TrainHistory
    mean: np.ndarray
    std: np.ndarray


def train_benign(
    train_dataset: ImageDataset,
    test_dataset: ImageDataset,
    model_builder: Callable[[], Module],
    training: TrainingConfig = TrainingConfig(),
    ddp_workers: Optional[int] = None,
) -> BenignResult:
    """Plain training run -- the reference the data holder validates against."""
    train_batch = images_to_batch(train_dataset.images)
    train_batch, mean, std = normalize_batch(train_batch)
    test_batch = images_to_batch(test_dataset.images)
    test_batch, _, _ = normalize_batch(test_batch, mean, std)
    model = model_builder()
    trainer = Trainer(model, train_batch, train_dataset.labels, training,
                      ddp_workers=ddp_workers)
    history = trainer.train()
    with span("benign.evaluate"):
        accuracy = evaluate_accuracy(model, test_batch, test_dataset.labels)
    return BenignResult(model, accuracy, history, mean, std)


@dataclass
class OriginalAttackResult:
    """Uniform-rate correlated value encoding (Song et al. / Eq. 1)."""

    model: Module
    payload: SecretPayload
    penalty: CorrelationPenalty
    history: TrainHistory
    evaluation: AttackEvaluation
    mean: np.ndarray
    std: np.ndarray

    def weight_vector(self) -> np.ndarray:
        from repro.attacks.decoder import extract_weight_vector
        return extract_weight_vector(self.model)


def original_correlation_attack(
    train_dataset: ImageDataset,
    test_dataset: ImageDataset,
    model_builder: Callable[[], Module],
    training: TrainingConfig = TrainingConfig(),
    rate: float = 5.0,
    num_images: Optional[int] = None,
    selection_seed: int = 0,
    polarity: str = "reference",
) -> OriginalAttackResult:
    """The original attack: one uniform rate over *all* encodable weights,
    targets drawn randomly with no std pre-processing."""
    train_batch = images_to_batch(train_dataset.images)
    train_batch, mean, std = normalize_batch(train_batch)
    test_batch = images_to_batch(test_dataset.images)
    test_batch, _, _ = normalize_batch(test_batch, mean, std)

    model = model_builder()
    params = [p for _, p in encodable_parameters(model)]
    total_weights = sum(p.size for p in params)
    capacity = total_weights // train_dataset.pixels_per_image
    count = min(capacity, len(train_dataset)) if num_images is None else num_images
    rng = np.random.default_rng(selection_seed)
    indices = rng.choice(len(train_dataset), size=count, replace=False)
    payload = SecretPayload.from_dataset(train_dataset, np.sort(indices))

    penalty = CorrelationPenalty(params, payload.secret_vector(), rate)
    trainer = Trainer(model, train_batch, train_dataset.labels, training, penalty=penalty)
    history = trainer.train()

    from repro.attacks.decoder import extract_weight_vector
    evaluation = evaluate_attack(
        model, test_batch, test_dataset.labels,
        payload=payload, weight_vector=extract_weight_vector(model),
        polarity=polarity, mean=mean, std=std,
    )
    return OriginalAttackResult(model, payload, penalty, history, evaluation, mean, std)


def quantize_and_finetune(
    model: Module,
    config: QuantizationConfig,
    train_dataset: ImageDataset,
    training: TrainingConfig,
    mean: np.ndarray,
    std: np.ndarray,
    target_images: Optional[np.ndarray] = None,
    penalty=None,
    flip: bool = False,
    encoding_names: Optional[list] = None,
) -> QuantizationResult:
    """Quantize a trained model and run the light fine-tuning pass.

    When ``encoding_names`` is given and the method is target-correlated,
    the mixed per-layer strategy of :func:`quantize_model_for_attack` is
    used.
    """
    result = quantize_model_for_attack(
        model, config, target_images=target_images, flip=flip,
        encoding_names=encoding_names,
    )
    apply_quantization(model, result)
    if config.finetune_epochs > 0:
        train_batch = images_to_batch(train_dataset.images)
        train_batch, _, _ = normalize_batch(train_batch, mean, std)
        loader = DataLoader(
            train_batch, train_dataset.labels,
            batch_size=training.batch_size, seed=training.seed + 1,
        )
        finetune_quantized(
            model, result, loader,
            epochs=config.finetune_epochs, lr=config.finetune_lr,
            momentum=training.momentum, penalty=penalty,
        )
    return result

"""The paper's end-to-end quantized correlation encoding attack (Fig. 1).

Three stages, each a "normal looking" part of a training pipeline:

1. **Data pre-processing** (Sec. IV-A): select target images whose pixel
   std sits in a window around the dataset mean, sized to the model's
   capacity.
2. **Layer-wise correlation training** (Sec. IV-B, Eq. 2): train with
   cross-entropy plus per-group correlation penalties; accuracy-critical
   early groups get rate 0.
3. **Target-correlated quantization** (Sec. IV-C, Algorithm 1) plus
   light cluster-shared fine-tuning.

The returned result carries the uncompressed and quantized evaluations
side by side -- exactly the columns of Table III.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from repro.attacks.layerwise import (
    LayerGroup,
    LayerwiseCorrelationPenalty,
    assign_payload,
    group_by_layer_ranges,
)
from repro.attacks.secret import SecretPayload
from repro.datasets.base import ImageDataset
from repro.datasets.transforms import images_to_batch, normalize_batch
from repro.errors import CapacityError
from repro.nn.dataloader import DataLoader
from repro.nn.module import Module
from repro.pipeline.config import AttackConfig, QuantizationConfig, TrainingConfig
from repro.pipeline.evaluation import AttackEvaluation, evaluate_attack
from repro.pipeline.trainer import Trainer, TrainHistory
from repro.preprocessing.selection import SelectionResult, select_encoding_targets
from repro.quantization.base import QuantizationResult, apply_quantization
from repro.quantization.finetune import finetune_quantized
from repro.telemetry.events import get_logger
from repro.telemetry.trace import timed_stage


@dataclass
class AttackFlowResult:
    """Everything produced by one run of the quantized attack flow."""

    model: Module
    groups: List[LayerGroup]
    selection: SelectionResult
    payload: SecretPayload
    history: TrainHistory
    uncompressed: AttackEvaluation
    quantized: Optional[AttackEvaluation]
    quantization: Optional[QuantizationResult]
    mean: np.ndarray
    std: np.ndarray

    @property
    def encoded_images(self) -> int:
        return self.uncompressed.encoded_images


def run_quantized_correlation_attack(
    train_dataset: ImageDataset,
    test_dataset: ImageDataset,
    model_builder: Callable[[], Module],
    training: TrainingConfig = TrainingConfig(),
    attack: AttackConfig = AttackConfig(),
    quantization: Optional[QuantizationConfig] = QuantizationConfig(),
    progress: Optional[Callable[[str], None]] = None,
    backend: Optional[str] = None,
    monitor: Optional[object] = None,
    dtype: Optional[str] = None,
    ddp_workers: Optional[int] = None,
) -> AttackFlowResult:
    """Run the full Fig. 1 flow and evaluate it.

    Args:
        train_dataset / test_dataset: uint8 NHWC image datasets.
        model_builder: zero-argument callable building a fresh model.
        training / attack / quantization: stage configurations; pass
            ``quantization=None`` to stop after the uncompressed attack.
        progress: optional stage-name callback.
        backend: kernel backend name (``"reference"``/``"fast"``) scoped
            around the whole flow; ``None`` keeps the process default.
        dtype: compute dtype (``"float32"``/``"float64"``) scoped around
            the whole flow including model construction, so parameters,
            batches and training all run at one precision; ``None``
            keeps the process policy (see :mod:`repro.precision`).
            Evaluation metrics accumulate in float64 either way.
        monitor: optional :class:`repro.monitor.Monitor`.  It is bound
            to the attack's layer groups/payload after pre-processing,
            observed per epoch throughout correlation training, and
            ticked once more after quantization so the timeseries shows
            the imprint appearing and then being erased.
        ddp_workers: data-parallel rank count for the correlation
            training stage (see :class:`~repro.pipeline.trainer.Trainer`);
            ``None`` follows the process default (the CLI's
            ``--ddp-workers``).  The workers are torn down before the
            quantization stage, so everything downstream of training is
            unchanged.

    Returns:
        An :class:`AttackFlowResult` with per-stage artifacts and both
        evaluations.
    """
    from repro import backend as _backend
    from repro import precision as _precision
    with _backend.use_backend(backend), _precision.use_dtype(dtype):
        return _run_attack_flow(
            train_dataset, test_dataset, model_builder,
            training, attack, quantization, progress, monitor,
            ddp_workers,
        )


def _run_attack_flow(
    train_dataset: ImageDataset,
    test_dataset: ImageDataset,
    model_builder: Callable[[], Module],
    training: TrainingConfig,
    attack: AttackConfig,
    quantization: Optional[QuantizationConfig],
    progress: Optional[Callable[[str], None]],
    monitor: Optional[object] = None,
    ddp_workers: Optional[int] = None,
) -> AttackFlowResult:
    training.validate()
    attack.validate()
    if quantization is not None:
        quantization.validate()

    logger = get_logger()

    def _report(stage: str) -> None:
        logger.debug("attack.stage", stage=stage)
        if progress is not None:
            progress(stage)

    # ------------------------------------------------------- data setup
    with timed_stage("attack.setup"):
        train_batch = images_to_batch(train_dataset.images)
        train_batch, mean, std = normalize_batch(train_batch)
        test_batch = images_to_batch(test_dataset.images)
        test_batch, _, _ = normalize_batch(test_batch, mean, std)

        model = model_builder()

    # ------------------------------------------- stage 1: pre-processing
    _report("pre-processing")
    with timed_stage("attack.pre_processing"):
        groups = group_by_layer_ranges(model, attack.layer_ranges, attack.rates)
        pixels = train_dataset.pixels_per_image
        capacity = sum(g.capacity(pixels) for g in groups if g.rate > 0.0)
        capacity = max(1, int(capacity * attack.capacity_fraction)) if capacity else 0
        if capacity == 0:
            raise CapacityError(
                "active groups cannot hold a single image; use a larger model "
                "or smaller images"
            )
        selection = select_encoding_targets(
            train_dataset, capacity,
            window=attack.std_window,
            seed=attack.selection_seed,
            std_range=attack.std_range,
        )
        full_payload = SecretPayload.from_dataset(train_dataset, selection.target_indices)
        assigned = assign_payload(groups, full_payload)
        payload = full_payload.take(assigned)

    # --------------------------------- stage 2: correlation training
    _report("training")
    if monitor is not None:
        monitor.bind(groups=groups, payload=payload, mean=mean, std=std)
    with timed_stage("attack.training", epochs=training.epochs):
        penalty = LayerwiseCorrelationPenalty(groups)
        trainer = Trainer(model, train_batch, train_dataset.labels, training,
                          penalty=penalty, probes=monitor,
                          ddp_workers=ddp_workers)
        history = trainer.train()

    _report("evaluating uncompressed")
    with timed_stage("attack.evaluate", which="uncompressed"):
        uncompressed = evaluate_attack(
            model, test_batch, test_dataset.labels, groups=groups,
            polarity=attack.polarity, mean=mean, std=std,
        )

    # ------------------------------------------ stage 3: quantization
    quantized_eval: Optional[AttackEvaluation] = None
    quant_result: Optional[QuantizationResult] = None
    if quantization is not None:
        _report("quantizing")
        with timed_stage("attack.quantize", bits=quantization.bits,
                         method=quantization.method):
            # Algorithm 1 assumes the weights mirror the pixel distribution;
            # under Eq. 1's |corr| the mirror may be negative, so detect the
            # sign on the first active group and flip the histogram if needed.
            from repro.quantization.target_correlated import detect_flip
            flip = False
            encoding_names: List[str] = []
            for group in groups:
                if group.payload is not None:
                    if not encoding_names:
                        flip = detect_flip(group.weight_vector(),
                                           group.payload.secret_vector())
                    encoding_names.extend(group.param_names)
            from repro.pipeline.baselines import quantize_model_for_attack
            quant_result = quantize_model_for_attack(
                model, quantization, target_images=payload.images, flip=flip,
                encoding_names=encoding_names,
            )
            apply_quantization(model, quant_result)
        if quantization.finetune_epochs > 0:
            with timed_stage("attack.finetune",
                             epochs=quantization.finetune_epochs):
                loader = DataLoader(
                    train_batch, train_dataset.labels,
                    batch_size=training.batch_size, seed=training.seed + 1,
                )
                finetune_quantized(
                    model, quant_result, loader,
                    epochs=quantization.finetune_epochs,
                    lr=quantization.finetune_lr,
                    momentum=training.momentum,
                    penalty=penalty,
                )
        _report("evaluating quantized")
        with timed_stage("attack.evaluate", which="quantized"):
            quantized_eval = evaluate_attack(
                model, test_batch, test_dataset.labels, groups=groups,
                polarity=attack.polarity, mean=mean, std=std,
            )
        if monitor is not None:
            # One post-release tick: the same probes over the quantized
            # weights, so the timeseries ends with the erased imprint.
            monitor.on_epoch(model, epoch=history.epochs, history=history)

    return AttackFlowResult(
        model=model,
        groups=groups,
        selection=selection,
        payload=payload,
        history=history,
        uncompressed=uncompressed,
        quantized=quantized_eval,
        quantization=quant_result,
        mean=mean,
        std=std,
    )

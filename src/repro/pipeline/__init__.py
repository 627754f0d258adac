"""End-to-end pipelines: Fig. 1's attack flow and the baselines.

* :class:`TrainingConfig` / :class:`AttackConfig` /
  :class:`QuantizationConfig` -- experiment configuration.
* :class:`Trainer` -- the training loop with optional penalty hooks.
* :func:`run_quantized_correlation_attack` -- the paper's full flow:
  pre-processing -> layer-wise correlation training -> target-correlated
  quantization (+ fine-tuning) -> extraction -> evaluation.
* :mod:`repro.pipeline.baselines` -- benign training, the original
  uniform correlation attack, and quantize-with-any-method.
"""

from repro.pipeline.config import AttackConfig, QuantizationConfig, TrainingConfig
from repro.pipeline.trainer import Trainer, TrainHistory
from repro.pipeline.attack_flow import AttackFlowResult, run_quantized_correlation_attack
from repro.pipeline.baselines import (
    make_quantizer,
    original_correlation_attack,
    quantize_and_finetune,
    train_benign,
)
from repro.pipeline.evaluation import AttackEvaluation, evaluate_attack
from repro.pipeline.reporting import format_records, format_table
from repro.pipeline.results_io import (
    attack_result_to_dict,
    evaluation_to_dict,
    load_manifest,
    load_result,
    manifest_path,
    save_manifest,
    save_result,
)
from repro.pipeline.sweep import Sweep, SweepResult, expand_grid

__all__ = [
    "TrainingConfig", "AttackConfig", "QuantizationConfig",
    "Trainer", "TrainHistory",
    "AttackFlowResult", "run_quantized_correlation_attack",
    "train_benign", "original_correlation_attack", "quantize_and_finetune",
    "make_quantizer", "AttackEvaluation", "evaluate_attack", "format_table",
    "format_records",
    "evaluation_to_dict", "attack_result_to_dict", "save_result", "load_result",
    "save_manifest", "load_manifest", "manifest_path",
    "Sweep", "SweepResult", "expand_grid",
]

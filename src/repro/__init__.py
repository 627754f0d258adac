"""Reproduction of "Stealing Your Data from Compressed Machine Learning
Models" (Xu, Liu, Liu, Liu, Guo, Wen -- DAC 2020).

Public API tour:

* :mod:`repro.autograd` / :mod:`repro.nn` / :mod:`repro.models` -- the
  training substrate (numpy autograd, layers, ResNets).
* :mod:`repro.datasets` -- synthetic CIFAR-10 / FaceScrub stand-ins.
* :mod:`repro.preprocessing` -- Sec. IV-A target selection.
* :mod:`repro.attacks` -- correlated value encoding (Eq. 1), layer-wise
  regularization (Eq. 2), LSB/sign baselines, decoding.
* :mod:`repro.quantization` -- weighted-entropy / uniform / k-means
  quantizers and the paper's target-correlated Algorithm 1.
* :mod:`repro.metrics` -- MAPE, SSIM, accuracy, recognizability.
* :mod:`repro.pipeline` -- the end-to-end Fig. 1 attack flow plus the
  benign and original-attack baselines.
* :mod:`repro.telemetry` -- metrics registry, span tracing (with kernel
  time attributed to spans) and structured run logging.
* :mod:`repro.precision` -- process/context-scoped compute dtype policy
  (float32 training by default; ``use_dtype("float64")`` to widen).

Quickstart::

    from repro.datasets import make_synthetic_cifar, train_test_split
    from repro.models import resnet8_tiny
    from repro.pipeline import (
        AttackConfig, QuantizationConfig, TrainingConfig,
        run_quantized_correlation_attack,
    )

    data = make_synthetic_cifar()
    train, test = train_test_split(data)
    result = run_quantized_correlation_attack(
        train, test, lambda: resnet8_tiny(),
        TrainingConfig(epochs=10),
        AttackConfig(layer_ranges=((1, 3), (4, -1)), rates=(0.0, 5.0)),
        QuantizationConfig(bits=4),
    )
    print(result.quantized.accuracy, result.quantized.mean_mape)
"""

from repro.version import __version__
from repro import errors
from repro import precision
from repro import telemetry

__all__ = ["__version__", "errors", "precision", "telemetry"]

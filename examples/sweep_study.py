"""Parameter-sweep study: rate x bit-width grid + sensitivity-driven groups.

Demonstrates the programmatic experiment tooling:

1. :class:`repro.pipeline.Sweep` expands a (rate, bits) grid, runs the
   full attack flow per point and collects one record per run;
2. the records are filtered/ranked and exported to CSV;
3. :func:`repro.quantization.suggest_groups` derives the layer grouping
   from a measured sensitivity profile instead of hand-picking it.

Run:  python examples/sweep_study.py     (~2-3 minutes on CPU)
"""

import numpy as np

from repro.datasets import SyntheticCifarConfig, make_synthetic_cifar, train_test_split
from repro.datasets.transforms import images_to_batch, normalize_batch
from repro.models import resnet8_tiny
from repro.pipeline import (
    AttackConfig,
    QuantizationConfig,
    Sweep,
    TrainingConfig,
    run_quantized_correlation_attack,
)
from repro.quantization import quantization_sensitivity, suggest_groups


def builder():
    return resnet8_tiny(num_classes=6, in_channels=3, width=8,
                        rng=np.random.default_rng(7))


def main() -> None:
    data = make_synthetic_cifar(
        SyntheticCifarConfig(num_images=240, num_classes=6, image_size=16, seed=3)
    )
    train, test = train_test_split(data, test_fraction=0.2, seed=0)
    training = TrainingConfig(epochs=10, batch_size=32, lr=0.08)

    # ---------------------------------------------------- 1. the sweep
    def experiment(rate, bits):
        result = run_quantized_correlation_attack(
            train, test, builder, training,
            AttackConfig(layer_ranges=((1, 2), (3, 4), (5, -1)),
                         rates=(0.0, 0.0, rate), std_window=8.0),
            QuantizationConfig(bits=bits, method="target_correlated"),
        )
        quantized = result.quantized
        return {
            "accuracy": round(quantized.accuracy, 3),
            "mape": round(quantized.mean_mape, 2),
            "recognized": quantized.recognized_count,
            "encoded": quantized.encoded_images,
        }

    sweep = Sweep({"rate": [5.0, 20.0], "bits": [4, 3]}, experiment)
    print(f"running {len(sweep)} experiments ...")
    # progress fires per point as it is submitted, in grid order; a
    # failed point comes back as a record with "error"/"error_kind"
    result = sweep.run(progress=lambda p: print(f"  {p}"))
    print()
    print(result.to_table(title="rate x bits sweep (quantized attack model)"))
    best = result.best("recognized")
    print(f"\nbest operating point: rate={best['rate']}, bits={best['bits']} "
          f"({best['recognized']}/{best['encoded']} recognizable at "
          f"{best['accuracy']:.1%} accuracy)")
    result.to_csv("/tmp/repro_sweep.csv")
    print("records exported to /tmp/repro_sweep.csv")

    # --------------------------- 2. sensitivity-derived layer grouping
    print("\nmeasuring per-layer quantization sensitivity ...")
    model = builder()
    batch = images_to_batch(train.images)
    batch, _, _ = normalize_batch(batch)
    from repro.pipeline import Trainer
    Trainer(model, batch, train.labels, training).train()
    profile = quantization_sensitivity(model, batch, train.labels, bits=1)
    for entry in profile:
        print(f"  {entry.name:30s} accuracy drop {entry.accuracy_drop:+.3f}")
    ranges = suggest_groups(profile, num_groups=3)
    print(f"suggested contiguous layer groups: {ranges}")
    print("(use these as AttackConfig.layer_ranges with rates (0, 0, lambda))")


if __name__ == "__main__":
    main()

"""Monitor probe-overhead gate.

Times the same attack-training epoch with and without the full default
probe suite attached (correlation, drift, decode, grad/update, memory,
throughput, kernel share) and asserts the probed epoch stays under the
overhead budget.  The gate bounds the relative cost only; where an
epoch's time goes is read from a traced run (``repro analyze``).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.attacks.layerwise import (
    LayerwiseCorrelationPenalty,
    assign_payload,
    group_by_layer_ranges,
)
from repro.attacks.secret import SecretPayload
from repro.datasets import SyntheticCifarConfig, make_synthetic_cifar
from repro.datasets.transforms import images_to_batch, normalize_batch
from repro.models import resnet8_tiny
from repro.monitor import Monitor, default_probes
from repro.pipeline import TrainingConfig
from repro.pipeline.trainer import Trainer

pytestmark = pytest.mark.slow

# Probed epoch may cost at most this much extra.  The budget is
# relative to the bare epoch: float32 compute plus the tape planner
# made training ~1.5x faster while the probe suite stays pinned to
# float64 metrics by design (repro.precision.METRICS_DTYPE), so the
# same absolute probe cost is a larger fraction than under the old
# float64 compute path (where the budget was 7%).  A drift in absolute
# probe cost that stays inside the budget is not caught here.
OVERHEAD_BUDGET = 0.15


def _attack_setup():
    data = make_synthetic_cifar(
        SyntheticCifarConfig(num_images=160, num_classes=4, image_size=16,
                             seed=9))
    batch = images_to_batch(data.images)
    batch, mean, std = normalize_batch(batch)
    model = resnet8_tiny(num_classes=4, in_channels=3, width=8,
                         rng=np.random.default_rng(9))
    groups = group_by_layer_ranges(model, ((1, 2), (3, 4), (5, -1)),
                                   (0.0, 0.0, 20.0))
    pixels = data.pixels_per_image
    capacity = sum(g.capacity(pixels) for g in groups if g.rate > 0.0)
    payload_all = SecretPayload.from_dataset(
        data, np.arange(min(capacity, len(data))))
    payload = payload_all.take(assign_payload(groups, payload_all))
    penalty = LayerwiseCorrelationPenalty(groups)
    return model, batch, data.labels, groups, payload, mean, std, penalty


def _best_epoch_seconds(trainer: Trainer, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        trainer.train_epoch()
        best = min(best, time.perf_counter() - start)
    return best


def test_monitor_probe_overhead():
    model, batch, labels, groups, payload, mean, std, penalty = _attack_setup()
    config = TrainingConfig(epochs=1, batch_size=32, lr=0.05, seed=0)

    bare = Trainer(model, batch, labels, config, penalty=penalty)
    bare.train_epoch()  # warm-up: first-touch allocations stay untimed
    bare_s = _best_epoch_seconds(bare)

    monitor = Monitor(default_probes(decode_images=2)).bind(
        groups=groups, payload=payload, mean=mean, std=std)
    probed = Trainer(model, batch, labels, config, penalty=penalty,
                     probes=monitor)
    probed_s = _best_epoch_seconds(probed)

    overhead = probed_s / bare_s - 1.0

    assert monitor.probe_records(scope="epoch"), "probes never fired"
    assert not monitor.errors(), f"probe errors: {monitor.errors()}"
    assert overhead < OVERHEAD_BUDGET, (
        f"probe suite costs {overhead:.1%} per epoch "
        f"(bare {bare_s * 1e3:.1f} ms, probed {probed_s * 1e3:.1f} ms); "
        f"budget {OVERHEAD_BUDGET:.0%}")

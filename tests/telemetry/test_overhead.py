"""Disabled-telemetry overhead guard.

The instrumentation left in the training hot loop must be near-free
when no recorder is active.  Rather than racing two training
runs against each other (noisy), this measures the disabled fast paths
directly -- the exact per-batch work `Trainer.train_epoch` adds -- and
asserts that one epoch's worth costs <5% of a real (small) epoch.
"""

import time

import numpy as np

from repro.models import resnet8_tiny
from repro.pipeline import TrainingConfig
from repro.pipeline.trainer import Trainer
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.trace import get_recorder, span


def _per_batch_instrumentation_cost(reps: int = 2000) -> float:
    """Seconds per batch spent in the disabled instrumentation paths."""
    assert get_recorder() is None
    registry = MetricsRegistry()
    histogram = registry.histogram("probe.batch_s")
    start = time.perf_counter()
    for _ in range(reps):
        # Mirrors one loop iteration of Trainer.train_epoch: a batch
        # span, the batch perf_counter pair, and a histogram observation
        # (the per-epoch counters/gauges are amortized over all batches).
        t0 = time.perf_counter()
        with span("probe.batch"):
            pass
        histogram.observe(time.perf_counter() - t0)
    return (time.perf_counter() - start) / reps


def _epoch_seconds() -> tuple:
    """(seconds per epoch, batches per epoch) for a small real epoch."""
    rng = np.random.default_rng(0)
    inputs = rng.normal(size=(96, 3, 16, 16))
    labels = rng.integers(0, 4, size=96)
    model = resnet8_tiny(num_classes=4, in_channels=3, width=8, rng=rng)
    trainer = Trainer(model, inputs, labels,
                      TrainingConfig(epochs=1, batch_size=32, lr=0.05))
    trainer.train_epoch()  # warm-up
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        trainer.train_epoch()
        best = min(best, time.perf_counter() - start)
    return best, int(np.ceil(len(labels) / 32))


def test_disabled_overhead_is_under_five_percent():
    per_batch = _per_batch_instrumentation_cost()
    epoch_seconds, batches = _epoch_seconds()
    # Per epoch: per-batch probes plus a fixed handful of counter/gauge/
    # timer updates and two epoch-level spans (budgeted as 20 probes).
    epoch_overhead = per_batch * (batches + 20)
    assert epoch_overhead < 0.05 * epoch_seconds, (
        f"instrumentation {epoch_overhead * 1e3:.3f} ms/epoch vs "
        f"epoch {epoch_seconds * 1e3:.1f} ms"
    )


def test_noop_span_is_sub_microsecond_scale():
    # A direct absolute bound keeps the fast path honest even if epochs
    # get faster: 10k disabled spans must stay under 50 ms.
    start = time.perf_counter()
    for _ in range(10_000):
        with span("noop"):
            pass
    assert time.perf_counter() - start < 0.05

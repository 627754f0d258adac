"""Backend acceptance gates: end-to-end speedup and kernel attribution.

Two bars for the ``repro.backend`` layer on a fixed-seed training
epoch of the tiny ResNet substrate:

* the fast backend must be at least **1.3x** faster than reference on
  the same data, same seeds, same model init;
* a traced epoch must attribute at least **90%** of its wall time to
  named backend kernels (the kernel rows of its self-time table) -- if
  attribution decays, the kernel seam has sprung a leak (ops inlining
  numpy again).

Timing halves are marked ``slow`` (deselect with ``-m "not slow"``)
and skip on single-core machines where wall-clock comparisons of
BLAS-threaded workloads are too noisy to gate on.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro import backend as B
from repro.backend import fast
from repro.models import resnet8_tiny
from repro.pipeline.config import TrainingConfig
from repro.pipeline.trainer import Trainer
from repro.telemetry import attribute, recording

BATCH_SIZE = 64  # amortizes per-op Python overhead like real training
SEED = 123


def make_trainer(backend):
    rng = np.random.default_rng(SEED)
    inputs = rng.normal(size=(192, 3, 16, 16))
    labels = rng.integers(0, 6, size=192)
    model = resnet8_tiny(num_classes=6, in_channels=3, width=8,
                         rng=np.random.default_rng(SEED + 1))
    config = TrainingConfig(epochs=1, batch_size=BATCH_SIZE, lr=0.05, seed=SEED)
    return Trainer(model, inputs, labels, config, backend=backend)


def epoch_seconds(backend, repeats=3):
    """Best-of-``repeats`` wall time of one training epoch."""
    trainer = make_trainer(backend)
    trainer.train_epoch()  # warm-up: buffer pools, BLAS init
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        trainer.train_epoch()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.slow
@pytest.mark.skipif((os.cpu_count() or 1) < 2,
                    reason="wall-clock gate needs 2+ cores")
class TestBackendSpeedup:
    def test_fast_backend_at_least_1_3x(self):
        fast.clear_caches()
        reference_s = epoch_seconds("reference")
        fast_s = epoch_seconds("fast")
        speedup = reference_s / fast_s
        print(f"\ntraining epoch: reference {reference_s * 1e3:.1f} ms, "
              f"fast {fast_s * 1e3:.1f} ms, speedup {speedup:.2f}x")
        assert speedup >= 1.3

    def test_trace_attributes_90_percent_to_kernels(self):
        # Pinned to float64: the 90% bar gauges attribution completeness
        # (every hot path behind a named kernel), and was calibrated on
        # double-precision kernel times.  Under the float32 policy the
        # kernels themselves shrink against fixed per-op Python overhead,
        # which would move this ratio without any attribution leak.
        from repro import precision
        with precision.use_dtype("float64"):
            trainer = make_trainer("fast")
            trainer.train_epoch()  # warm-up
            with recording() as recorder:
                trainer.train_epoch()
        (lane,) = attribute(recorder.chrome_trace())
        kernels = [row for row in lane.rows if row[0] == "kernel"]
        wall = recorder.by_name("trainer.epoch")[0].duration
        coverage = sum(row[3] for row in kernels) / wall
        top = ", ".join(f"{name} {s * 1e3:.1f}ms"
                        for _, name, _, s in kernels[:3])
        print(f"\nkernel coverage {coverage:.1%} of "
              f"{wall * 1e3:.1f} ms epoch (top: {top})")
        assert coverage >= 0.90


class TestBackendEquivalenceGate:
    def test_training_losses_in_tolerance_band(self):
        # cheap enough to run in the default suite: one epoch per backend.
        # Pinned to float64 -- the 1e-5 band is a double-precision
        # contract; the float32 policy's cross-dtype bands live in
        # backend.equivalence.DTYPE_RTOL and test_precision_speedup.py.
        from repro import precision

        with precision.use_dtype("float64"):
            reference = make_trainer("reference")
            fast_t = make_trainer("fast")
            ref_loss = reference.train_epoch()
            fast_loss = fast_t.train_epoch()
        np.testing.assert_allclose(fast_loss, ref_loss, rtol=1e-5)

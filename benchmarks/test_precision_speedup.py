"""Precision-policy speed gate: a float32 fast-backend training epoch
must be at least **1.25x** faster than the float64 one, on the same
fixed-seed epoch the backend gate uses.

The correctness bars live in tier-1: the tape planner's >=30% peak
saved-bytes cut and its balanced books in
``tests/precision/test_planner.py``, float32 loss tracking float64 and
the golden bands at every dtype in ``tests/contract/test_mode_contract.py``.

Marked ``slow`` and skipped on single-core machines, like the backend
speedup gate; the timings are printed with ``-s``.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro import precision
from repro.backend import fast
from repro.models import resnet8_tiny
from repro.pipeline.config import TrainingConfig
from repro.pipeline.trainer import Trainer

BATCH_SIZE = 64
SEED = 123


def make_trainer(dtype):
    rng = np.random.default_rng(SEED)
    inputs = rng.normal(size=(192, 3, 16, 16))
    labels = rng.integers(0, 6, size=192)
    with precision.use_dtype(dtype):
        # parameters materialize at the policy dtype; the trainer then
        # scopes the same policy around every epoch
        model = resnet8_tiny(num_classes=6, in_channels=3, width=8,
                             rng=np.random.default_rng(SEED + 1))
    config = TrainingConfig(epochs=1, batch_size=BATCH_SIZE, lr=0.05, seed=SEED)
    return Trainer(model, inputs, labels, config, backend="fast", dtype=dtype)


def epoch_seconds(dtype, repeats=3):
    """Best-of-``repeats`` wall time of one training epoch at ``dtype``."""
    trainer = make_trainer(dtype)
    trainer.train_epoch()  # warm-up: index caches, pools, BLAS init
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        trainer.train_epoch()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.slow
@pytest.mark.skipif((os.cpu_count() or 1) < 2,
                    reason="wall-clock gate needs 2+ cores")
class TestPrecisionSpeedup:
    def test_float32_epoch_at_least_1_25x_over_float64(self):
        fast.clear_caches()
        float64_s = epoch_seconds("float64")
        fast.clear_caches()
        float32_s = epoch_seconds("float32")
        speedup = float64_s / float32_s
        print(f"\ntraining epoch (fast backend): float64 "
              f"{float64_s * 1e3:.1f} ms, float32 {float32_s * 1e3:.1f} ms, "
              f"speedup {speedup:.2f}x")
        assert speedup >= 1.25

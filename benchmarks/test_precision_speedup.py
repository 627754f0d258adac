"""Precision-policy acceptance gates: dtype speedup and tape memory.

Two bars for the float32 compute policy plus the autograd tape memory
planner, on the same fixed-seed training epoch the backend gate uses:

* **Speed**: a float32 epoch on the fast backend (the shipping
  configuration) must be at least **1.25x** faster than the float64
  fast-backend epoch -- the PR-3 baseline this PR starts from.
* **Memory**: the tape planner's early release must cut the peak of
  live saved-activation bytes by at least **30%** versus the unplanned
  tape (every saved array pinned until the walk ends), measured by the
  planner's own byte accounting during a real epoch.

The third gate -- golden fixed-seed attack metrics staying inside their
bands at float32 -- is enforced by
``tests/integration/test_golden_pipeline.py``, which runs under the
float32 default policy.

Timing halves are marked ``slow`` (deselect with ``-m "not slow"``)
and skip on single-core machines, like the backend speedup gate; the
timings are printed with ``-s``.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro import precision
from repro.autograd import last_tape_stats
from repro.backend import fast
from repro.models import resnet8_tiny
from repro.pipeline.config import TrainingConfig
from repro.pipeline.trainer import Trainer

BATCH_SIZE = 64
SEED = 123


def make_trainer(dtype, backend="fast"):
    rng = np.random.default_rng(SEED)
    inputs = rng.normal(size=(192, 3, 16, 16))
    labels = rng.integers(0, 6, size=192)
    with precision.use_dtype(dtype):
        # parameters materialize at the policy dtype; the trainer then
        # scopes the same policy around every epoch
        model = resnet8_tiny(num_classes=6, in_channels=3, width=8,
                             rng=np.random.default_rng(SEED + 1))
    config = TrainingConfig(epochs=1, batch_size=BATCH_SIZE, lr=0.05, seed=SEED)
    return Trainer(model, inputs, labels, config, backend=backend, dtype=dtype)


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


class TestTapePlanner:
    def test_peak_saved_bytes_cut_by_30_percent(self):
        trainer = make_trainer("float32")
        trainer.train_epoch()
        stats = last_tape_stats()
        assert stats is not None and stats.functions > 0
        print(f"\ntape planner: peak {stats.peak_live_bytes / 2**20:.2f} MiB "
              f"planned vs {stats.unplanned_peak_bytes / 2**20:.2f} MiB "
              f"unplanned ({stats.peak_reduction:.1%} reduction, "
              f"{stats.recycled_buffers} buffers recycled)")
        assert stats.peak_reduction >= 0.30

    def test_planner_books_balance(self):
        trainer = make_trainer("float32")
        trainer.train_epoch()
        stats = last_tape_stats()
        assert stats.released_bytes == stats.total_saved_bytes
        assert stats.peak_live_bytes <= stats.unplanned_peak_bytes

    def test_float32_training_loss_tracks_float64(self):
        # same seeds, same data: the dtype must only perturb the loss at
        # single-precision rounding scale, never change the trajectory
        loss32 = make_trainer("float32", backend="reference").train_epoch()
        loss64 = make_trainer("float64", backend="reference").train_epoch()
        np.testing.assert_allclose(loss32, loss64, rtol=1e-3)


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

"""Data-parallel acceptance gate: 4 ranks must beat serial by >= 2.5x.

The DDP runtime's reason to exist is wall-clock: shard every batch
across persistent fork workers, move gradients through shared memory
(never pickle), and pay only a tree all-reduce plus a few barriers per
step.  This gate trains the same fixed-seed workload serially and at
``ddp_workers=4`` and requires a **2.5x** epoch-throughput speedup
(ISSUE/ROADMAP target; the theoretical ceiling at 4 ranks is 4x, and
the barrier + all-reduce overhead must stay under the difference).

The workload is compute-bound on purpose -- big enough batches through
a real conv net that per-step numpy work dwarfs the per-step barrier
cost; a dispatch-bound workload (tiny batches) would measure fork
overhead instead of scaling.  Losses are not compared bit-exactly here
(per-rank batch-norm statistics make multi-rank training a *different*
but equally valid run -- the DDP rows of
``tests/contract/test_mode_contract.py`` pin the behavioural contract); this gate checks the loss stays finite and
the run really was data-parallel.

The timings are printed with ``-s``.  Marked ``slow`` and
skipped below 4 cores, where 4 ranks time-slice a smaller number of
cores and the ratio measures the scheduler, not the runtime.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro import precision
from repro.models import resnet8_tiny
from repro.parallel import ddp
from repro.pipeline.config import TrainingConfig
from repro.pipeline.trainer import Trainer

SEED = 321
IMAGE_SIZE = 16
BATCH_SIZE = 64         # compute-bound: amortize barriers over real work
N_IMAGES = 512
REPEATS = 3
WORLD = 4
GATE = 2.5


def make_trainer(ddp_workers: int) -> Trainer:
    rng = np.random.default_rng(SEED)
    inputs = rng.standard_normal(
        (N_IMAGES, 3, IMAGE_SIZE, IMAGE_SIZE)
    ).astype(np.float32)
    labels = rng.integers(0, 6, size=N_IMAGES)
    with precision.use_dtype("float32"):
        model = resnet8_tiny(num_classes=6, in_channels=3, width=16,
                             rng=np.random.default_rng(SEED + 1))
    config = TrainingConfig(epochs=1, batch_size=BATCH_SIZE, lr=0.01,
                            seed=SEED)
    return Trainer(model, inputs, labels, config, dtype="float32",
                   backend="fast", ddp_workers=ddp_workers)


def epoch_seconds(trainer: Trainer) -> float:
    """Best-of-``REPEATS`` wall time of one training epoch (after a
    warm-up epoch that forks the workers / initializes BLAS)."""
    trainer.train_epoch()
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        trainer.train_epoch()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.slow
@pytest.mark.skipif((os.cpu_count() or 1) < WORLD,
                    reason=f"scaling gate needs {WORLD}+ cores")
@pytest.mark.skipif(not ddp.available(), reason="fork start method unavailable")
class TestDdpSpeedupGate:
    def test_four_workers_at_least_2_5x_over_serial(self):
        serial = make_trainer(1)
        serial_s = epoch_seconds(serial)

        parallel = make_trainer(WORLD)
        try:
            parallel_s = epoch_seconds(parallel)
            epoch = dict(parallel._ddp.last_epoch)
        finally:
            parallel.close()

        # the run really was data-parallel, over shared memory
        steps = N_IMAGES // BATCH_SIZE
        assert epoch["steps"] == steps
        assert epoch["worker_steps"] == steps * (WORLD - 1)
        assert epoch["bytes_moved"] > 0
        assert np.isfinite(parallel.history.task_loss).all()

        speedup = serial_s / parallel_s
        allreduce_ms = epoch["allreduce_s"] / epoch["steps"] * 1e3
        print(f"\nddp speedup: serial {serial_s * 1e3:.1f} ms/epoch vs "
              f"{WORLD} workers {parallel_s * 1e3:.1f} ms/epoch -> "
              f"{speedup:.2f}x (allreduce {allreduce_ms:.2f} ms/step)")

        assert speedup >= GATE, \
            f"ddp speedup {speedup:.2f}x is below the {GATE}x gate"

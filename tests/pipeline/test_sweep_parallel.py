"""Parallel sweep execution: determinism and failure-record semantics.

The determinism regression tests pin the tentpole guarantee: the same
grid run with ``parallel=1`` and ``parallel=4`` yields identical record
lists, including derived per-point seeds and failure entries.
"""

import json
import os
import sys

import numpy as np
import pytest

from repro.pipeline.sweep import ERROR_KEY, Sweep, SweepResult


# Module-level experiments: picklable under any start method.

def deterministic_experiment(a, b):
    return {"sum": a + b, "product": a * b}


def seeded_experiment(scale, rng):
    # The draw depends only on the point's derived seed, not on which
    # process (or how many siblings) ran it.
    return {"draw": float(rng.random()) * scale}


def flaky_experiment(x):
    if x % 3 == 0:
        raise RuntimeError(f"diverged at {x}")
    return {"y": x * 10}


def timed_experiment(x):
    from repro.telemetry import default_registry
    default_registry().histogram("sweeptest.step_s").observe(0.01 * x)
    return {"y": x}


GRID = {"a": [1, 2, 3, 4], "b": [10, 20, 30, 40]}  # 16 points

_PID_LOG = None  # a path set by a test; forked workers inherit it


def train_point(lr, batch_size, rng):
    """Train a tiny ResNet on seeded data: every draw comes from ``rng``.

    Appends the running pid to ``_PID_LOG`` when set, so a test can see
    which process ran which point.
    """
    from repro.models import resnet8_tiny
    from repro.pipeline.config import TrainingConfig
    from repro.pipeline.trainer import Trainer

    if _PID_LOG is not None:
        with open(_PID_LOG, "a") as log:
            log.write(f"{os.getpid()}\n")
    seed = int(rng.integers(2**31))
    data_rng = np.random.default_rng(seed)
    inputs = data_rng.normal(size=(32, 3, 12, 12))
    labels = data_rng.integers(0, 4, size=32)
    model = resnet8_tiny(num_classes=4, in_channels=3, width=8,
                         rng=np.random.default_rng(seed + 1))
    trainer = Trainer(
        model, inputs, labels,
        TrainingConfig(epochs=2, batch_size=batch_size, lr=lr, seed=seed),
    )
    history = trainer.train()
    return {"final_loss": float(history.task_loss[-1])}


class TestDeterminism:
    def test_parallel_matches_serial(self):
        sweep = Sweep(GRID, deterministic_experiment)
        serial = sweep.run(parallel=1)
        pooled = sweep.run(parallel=4)
        assert serial.records == pooled.records
        assert len(serial) == 16

    def test_parallel_matches_legacy_inline(self):
        sweep = Sweep(GRID, deterministic_experiment)
        assert sweep.run().records == sweep.run(parallel=4).records

    def test_seeded_records_identical(self):
        sweep = Sweep({"scale": [1.0, 2.0, 3.0]}, seeded_experiment)
        serial = sweep.run(parallel=1, seed=99)
        pooled = sweep.run(parallel=4, seed=99)
        assert serial.records == pooled.records
        # and the seed actually matters
        assert sweep.run(parallel=1, seed=100).records != serial.records

    def test_seeds_differ_across_points(self):
        sweep = Sweep({"scale": [1.0, 1.0, 1.0]}, seeded_experiment)
        draws = [r["draw"] for r in sweep.run(parallel=1, seed=5).records]
        assert len(set(draws)) == 3

    def test_failure_records_identical(self):
        sweep = Sweep({"x": [0, 1, 2, 3, 4, 5]}, flaky_experiment)
        serial = sweep.run(parallel=1)
        pooled = sweep.run(parallel=3)
        assert serial.records == pooled.records
        assert len(serial.failures()) == 2
        assert len(serial.ok()) == 4

    def test_progress_called_in_grid_order(self):
        seen = []
        Sweep({"x": [1, 2, 3]}, lambda x: {"y": x}).run(
            progress=seen.append, parallel=1)
        assert seen == [{"x": 1}, {"x": 2}, {"x": 3}]


class TestTrainingPoints:
    def test_reused_worker_gives_serial_records(self, tmp_path, monkeypatch):
        """Six trained points on two workers: each worker runs several
        points back to back, and nothing one point leaves in its process
        (buffer pool, RNGs, registry) changes the next point's record."""
        sweep = Sweep({"lr": [0.02, 0.05, 0.08], "batch_size": [16, 24]},
                      train_point)
        serial = sweep.run(parallel=1, seed=123)
        log = tmp_path / "pids.log"
        monkeypatch.setattr(sys.modules[__name__], "_PID_LOG", str(log))
        pooled = sweep.run(parallel=2, seed=123)
        pids = log.read_text().split()
        assert len(pids) == 6 and len(set(pids)) <= 2
        assert str(os.getpid()) not in pids
        assert not serial.failures().records
        assert json.dumps(serial.records) == json.dumps(pooled.records)


class TestFailureRecords:
    def test_failed_point_keeps_params(self):
        result = Sweep({"x": [3]}, flaky_experiment).run(parallel=1)
        record = result.records[0]
        assert record["x"] == 3
        assert "diverged at 3" in record[ERROR_KEY]
        assert record["error_kind"] == "exception"

    def test_default_run_records_a_raising_point(self):
        result = Sweep({"x": [3, 4]}, flaky_experiment).run()
        failed, ok = result.records
        assert failed["x"] == 3 and failed["error_kind"] == "exception"
        assert "diverged at 3" in failed[ERROR_KEY]
        assert ok == {"x": 4, "y": 40}

    def test_best_skips_failures(self):
        result = Sweep({"x": [0, 1, 2]}, flaky_experiment).run(parallel=2)
        assert result.best("y")["x"] == 2

    def test_csv_export_with_failures(self, tmp_path):
        result = Sweep({"x": [0, 1]}, flaky_experiment).run(parallel=1)
        path = tmp_path / "records.csv"
        result.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 3  # header + 2 records, ragged keys padded

    def test_table_render_with_failures(self):
        result = Sweep({"x": [0, 1]}, flaky_experiment).run(parallel=1)
        table = result.to_table(title="flaky")
        assert "error" in table


class TestPooledTelemetry:
    def test_pooled_telemetry_attaches_per_point_duration(self):
        sweep = Sweep({"x": [1, 2]}, lambda x: {"y": x}, telemetry=True)
        result = sweep.run(parallel=1)
        for record in result.records:
            assert record["duration_s"] >= 0.0

    @pytest.mark.parametrize("parallel", [2])
    def test_telemetry_records_hold_only_scalars(self, parallel):
        # histogram snapshots carry a bucket vector; records flatten it
        # away
        sweep = Sweep({"x": [1, 2]}, timed_experiment, telemetry=True)
        for record in sweep.run(parallel=parallel).records:
            tm = {k: v for k, v in record.items() if k.startswith("tm.")}
            assert not any(isinstance(v, list) for v in tm.values())
            assert record["tm.sweeptest.step_s.p50"] > 0.0

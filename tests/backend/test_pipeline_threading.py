"""Backend threading through trainer, evaluation, sweep, and CLI --
plus the golden fixed-seed equivalence between the two backends."""

import numpy as np
import pytest

from repro import backend as B
from repro.cli import main
from repro.models.simple_cnn import SimpleCNN
from repro.pipeline import Trainer, TrainingConfig
from repro.pipeline.sweep import Sweep


def tiny_conv_problem(n=48, size=8, channels=2, classes=3, seed=0):
    rng = np.random.default_rng(seed)
    inputs = rng.standard_normal((n, channels, size, size)).astype(np.float64)
    labels = (np.arange(n) % classes).astype(np.int64)
    return inputs, labels


def train_history(backend, epochs=2, seed=0):
    inputs, labels = tiny_conv_problem()
    model = SimpleCNN(in_channels=2, num_classes=3, image_size=8, width=4,
                      rng=np.random.default_rng(seed))
    config = TrainingConfig(epochs=epochs, batch_size=16, lr=0.05, seed=seed)
    trainer = Trainer(model, inputs, labels, config, backend=backend)
    return trainer.train(), model


class TestTrainerBackend:
    def test_backend_scoped_to_epoch_only(self):
        before = B.active()
        history, _ = train_history("fast", epochs=1)
        assert history.epochs == 1
        assert B.active() is before  # training must not leak the backend

    def test_none_backend_keeps_process_default(self):
        history, _ = train_history(None, epochs=1)
        assert history.epochs == 1

    def test_golden_reference_run_is_bit_identical(self):
        # --backend reference must not change a single bit of training
        # relative to the process default (which IS reference)
        default_hist, default_model = train_history(None)
        ref_hist, ref_model = train_history("reference")
        assert default_hist.task_loss == ref_hist.task_loss
        for (name, p_default), (_, p_ref) in zip(
            default_model.named_parameters(), ref_model.named_parameters()
        ):
            assert np.array_equal(p_default.data, p_ref.data), name

    def test_golden_fast_run_stays_in_tolerance_band(self):
        # fast is allclose-equivalent per kernel; over a short training
        # run the losses must stay within a small relative band
        ref_hist, _ = train_history("reference")
        fast_hist, _ = train_history("fast")
        np.testing.assert_allclose(
            fast_hist.task_loss, ref_hist.task_loss, rtol=1e-4
        )


class TestEvaluationBackend:
    def test_evaluate_attack_accepts_backend(self):
        from repro.attacks.layerwise import group_by_layer_ranges, assign_payload
        from repro.attacks.secret import SecretPayload
        from repro.datasets.synthetic_digits import (
            SyntheticDigitsConfig,
            make_synthetic_digits,
        )
        from repro.pipeline.evaluation import evaluate_attack

        dataset = make_synthetic_digits(
            SyntheticDigitsConfig(num_images=24, image_size=12, seed=3)
        )
        model = SimpleCNN(in_channels=1, num_classes=10, image_size=12, width=4,
                          rng=np.random.default_rng(0))
        groups = group_by_layer_ranges(model, [(1, -1)], [10.0])
        payload = SecretPayload.from_dataset(dataset, [0, 1])
        assign_payload(groups, payload)
        batch = dataset.images.transpose(0, 3, 1, 2).astype(np.float64) / 255.0
        results = {}
        for backend in (None, "reference", "fast"):
            results[backend] = evaluate_attack(
                model, batch, dataset.labels, groups=groups, backend=backend
            )
        assert results[None].accuracy == results["reference"].accuracy
        assert results["fast"].accuracy == pytest.approx(
            results["reference"].accuracy, abs=1e-9
        )


class TestSweepBackend:
    def grid_experiment(self):
        def experiment(scale):
            return {"backend_name": B.active().name, "scale": scale * 2}
        return {"scale": [1, 2]}, experiment

    def test_inline_sweep_threads_backend(self):
        grid, experiment = self.grid_experiment()
        result = Sweep(grid, experiment).run(backend="fast")
        assert [r["backend_name"] for r in result.records] == ["fast", "fast"]
        assert B.active().name == "reference"  # restored after each point

    def test_pool_sweep_threads_backend_by_name(self):
        grid, experiment = self.grid_experiment()
        result = Sweep(grid, experiment).run(parallel=1, backend="fast")
        assert [r["backend_name"] for r in result.records] == ["fast", "fast"]

    def test_sweep_without_backend_uses_default(self):
        grid, experiment = self.grid_experiment()
        result = Sweep(grid, experiment).run()
        assert [r["backend_name"] for r in result.records] == \
            ["reference", "reference"]


class TestCliBackend:
    def test_global_backend_flag_is_restored(self, capsys):
        code = main(["--backend", "fast", "info"])
        out = capsys.readouterr().out
        assert code == 0
        rows = [line.split("|") for line in out.splitlines()]
        backend = [cells[1].split() for cells in rows
                   if len(cells) > 1 and cells[0].strip() == "backend"]
        assert backend and backend[0][0] == "fast"
        assert B.active().name == "reference"  # flag must not leak

    def test_traced_run_analyzes_to_kernel_rows(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        assert main(["--backend", "fast", "--trace-out", str(trace),
                     "benign", "--dataset", "digits", "--epochs", "1",
                     "--batch-size", "64"]) == 0
        capsys.readouterr()
        assert main(["analyze", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "conv2d_backward" in out
        assert "kernel" in out and "unattributed" in out

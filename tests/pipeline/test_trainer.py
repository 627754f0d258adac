"""Trainer: loss decreases, penalty hooks fire, history recorded."""

import numpy as np
import pytest

from repro.autograd.tensor import Tensor
from repro.models.mlp import MLP
from repro.pipeline import Trainer, TrainingConfig


def toy_problem(n=90, features=6, classes=3, seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((classes, features)) * 3
    labels = np.arange(n) % classes
    inputs = centers[labels] + rng.standard_normal((n, features)) * 0.3
    return inputs, labels


class TestTrainer:
    def test_loss_decreases(self):
        inputs, labels = toy_problem()
        model = MLP([6, 16, 3], rng=np.random.default_rng(0))
        trainer = Trainer(model, inputs, labels, TrainingConfig(epochs=10, lr=0.1))
        history = trainer.train()
        assert history.task_loss[-1] < history.task_loss[0]
        assert history.epochs == 10

    def test_model_in_eval_mode_after_training(self):
        inputs, labels = toy_problem()
        model = MLP([6, 8, 3], rng=np.random.default_rng(0))
        Trainer(model, inputs, labels, TrainingConfig(epochs=1)).train()
        assert not model.training

    def test_penalty_included_in_history(self):
        inputs, labels = toy_problem()
        model = MLP([6, 8, 3], rng=np.random.default_rng(0))
        calls = []

        def penalty():
            calls.append(1)
            return Tensor(0.25)

        trainer = Trainer(model, inputs, labels,
                          TrainingConfig(epochs=2, batch_size=30), penalty=penalty)
        history = trainer.train()
        assert len(calls) == 2 * 3  # epochs * batches
        assert np.allclose(history.penalty, 0.25)

    def test_penalty_affects_updates(self):
        inputs, labels = toy_problem()
        from repro.attacks import CorrelationPenalty
        model_a = MLP([6, 8, 3], rng=np.random.default_rng(1))
        model_b = MLP([6, 8, 3], rng=np.random.default_rng(1))
        secret = np.random.default_rng(2).random(48)
        penalty = CorrelationPenalty([model_b.fc0.weight], secret, rate=50.0)
        Trainer(model_a, inputs, labels, TrainingConfig(epochs=3, seed=4)).train()
        Trainer(model_b, inputs, labels, TrainingConfig(epochs=3, seed=4),
                penalty=penalty).train()
        assert not np.allclose(model_a.fc0.weight.data, model_b.fc0.weight.data)

    def test_progress_callback(self):
        inputs, labels = toy_problem()
        model = MLP([6, 8, 3], rng=np.random.default_rng(0))
        seen = []
        Trainer(model, inputs, labels, TrainingConfig(epochs=3)).train(
            progress=lambda e, l: seen.append(e))
        assert seen == [0, 1, 2]

    def test_explicit_epoch_override(self):
        inputs, labels = toy_problem()
        model = MLP([6, 8, 3], rng=np.random.default_rng(0))
        history = Trainer(model, inputs, labels, TrainingConfig(epochs=10)).train(epochs=2)
        assert history.epochs == 2

    def test_deterministic_given_seed(self):
        inputs, labels = toy_problem()
        results = []
        for _ in range(2):
            model = MLP([6, 8, 3], rng=np.random.default_rng(5))
            Trainer(model, inputs, labels, TrainingConfig(epochs=3, seed=9)).train()
            results.append(model.fc0.weight.data.copy())
        assert np.allclose(results[0], results[1])


def assert_twins_identical(a, b):
    """Loss traces, parameters, gradients and buffers all bit-equal."""
    assert a.history.task_loss == b.history.task_loss
    assert a.history.penalty == b.history.penalty
    for (name, pa), pb in zip(a.model.named_parameters(), b.model.parameters()):
        assert pa.data.dtype == pb.data.dtype, name
        np.testing.assert_array_equal(pa.data, pb.data, err_msg=name)
        np.testing.assert_array_equal(pa.grad, pb.grad, err_msg=name)
    buffers_b = dict(b.model.named_buffers())
    for name, buf in a.model.named_buffers():
        np.testing.assert_array_equal(buf, buffers_b[name], err_msg=name)


class TestEagerTwins:
    """Two identically seeded trainers must agree bit for bit."""

    @staticmethod
    def cnn_trainer(backend, n=20, batch=8):
        from repro.attacks import CorrelationPenalty
        from repro.models.simple_cnn import SimpleCNN

        rng = np.random.default_rng(7)
        inputs = rng.standard_normal((n, 3, 8, 8))
        labels = rng.integers(0, 5, size=n)
        model = SimpleCNN(num_classes=5, image_size=8, width=4,
                          rng=np.random.default_rng(8))
        penalty = CorrelationPenalty([model.parameters()[0]],
                                     rng.standard_normal(16), rate=0.1)
        return Trainer(model, inputs, labels,
                       TrainingConfig(epochs=2, batch_size=batch, lr=0.05, seed=7),
                       penalty=penalty, backend=backend)

    @pytest.mark.parametrize("backend", ["fast", "reference"])
    def test_batchnorm_cnn_with_ragged_final_batch(self, backend):
        # 20 images / batch 8 -> 8, 8, 4; fast runs the fused batch-norm
        # node, reference the composed one, and both update running stats
        twins = [self.cnn_trainer(backend) for _ in range(2)]
        for trainer in twins:
            trainer.train()
        assert_twins_identical(*twins)
        bn_means = [buf for name, buf in twins[0].model.named_buffers()
                    if name.endswith("running_mean")]
        assert bn_means and all(np.any(m != 0.0) for m in bn_means)

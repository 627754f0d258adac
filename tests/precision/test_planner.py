"""The autograd tape memory planner: release, retain, recycle, report."""

import numpy as np
import pytest

from repro import backend as B
from repro.autograd import functional as F, last_tape_stats
from repro.autograd.tensor import Tensor
from repro.errors import GradientError


def _conv_loss(seed=3):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal((2, 2, 8, 8)).astype(np.float32),
               requires_grad=True)
    w = Tensor(rng.standard_normal((3, 2, 3, 3)).astype(np.float32),
               requires_grad=True)
    loss = F.sum(F.max_pool2d(F.relu(F.conv2d(x, w, padding=1)), 2))
    return x, w, loss


class TestRelease:
    def test_saved_state_released_after_backward(self):
        x, w, loss = _conv_loss()
        conv_fn = None
        node = loss
        while node._creator is not None:
            conv_fn = node._creator
            node = conv_fn.inputs[0]
        assert conv_fn.saved_arrays(), "conv should have saved arrays"
        loss.backward()
        assert conv_fn.released
        assert conv_fn.saved == ()
        assert conv_fn.saved_arrays() == ()

    def test_second_backward_raises_without_retain(self):
        _, _, loss = _conv_loss()
        loss.backward()
        with pytest.raises(GradientError, match="retain_graph"):
            loss.backward()

    def test_retain_graph_allows_double_backward(self):
        x, w, loss = _conv_loss()
        loss.backward(retain_graph=True)
        first = (x.grad.copy(), w.grad.copy())
        loss.backward(retain_graph=True)
        np.testing.assert_allclose(x.grad, 2.0 * first[0], rtol=1e-6)
        np.testing.assert_allclose(w.grad, 2.0 * first[1], rtol=1e-6)
        # a final non-retaining pass releases and still accumulates
        loss.backward()
        np.testing.assert_allclose(w.grad, 3.0 * first[1], rtol=1e-6)

    def test_extra_saved_attributes_released(self):
        x = Tensor(np.random.default_rng(0).standard_normal(
            (1, 2, 6, 6)).astype(np.float32), requires_grad=True)
        out = F.max_pool2d(x, 2)
        pool_fn = out._creator
        assert pool_fn._argmax is not None
        F.sum(out).backward()
        assert pool_fn._argmax is None
        assert pool_fn.released


class TestStats:
    def test_stats_recorded(self):
        _, _, loss = _conv_loss()
        loss.backward()
        stats = last_tape_stats()
        assert stats is not None
        assert stats.functions > 0
        assert stats.total_saved_bytes > 0
        assert stats.released_bytes == stats.total_saved_bytes
        assert 0 < stats.peak_live_bytes <= stats.unplanned_peak_bytes
        assert 0.0 <= stats.peak_reduction < 1.0

    def test_retained_graph_releases_nothing(self):
        _, _, loss = _conv_loss()
        loss.backward(retain_graph=True)
        stats = last_tape_stats()
        assert stats.released_bytes == 0

    def test_gauges_published(self):
        from repro.telemetry.metrics import default_registry

        _, _, loss = _conv_loss()
        loss.backward()
        registry = default_registry()
        stats = last_tape_stats()
        assert registry.gauge("autograd.live_saved_bytes").snapshot() == \
            float(stats.peak_live_bytes)
        assert registry.gauge("autograd.saved_bytes_total").snapshot() == \
            float(stats.total_saved_bytes)
        assert registry.gauge("autograd.unplanned_peak_bytes").snapshot() == \
            float(stats.unplanned_peak_bytes)

    def test_memory_probe_reports_tape_stats(self):
        from repro.monitor.probes import ProbeContext
        from repro.monitor.system import MemoryProbe
        from repro.nn.layers import Linear

        _, _, loss = _conv_loss()
        loss.backward()
        values = MemoryProbe().observe(
            ProbeContext(model=Linear(2, 2), epoch=0))
        assert "tape_live_peak_mib" in values
        assert "tape_unplanned_peak_mib" in values
        assert values["tape_live_peak_mib"] <= values["tape_unplanned_peak_mib"]
        assert 0.0 <= values["tape_peak_reduction"] < 1.0


class TestRecycling:
    def test_fast_backend_recycles_gradient_buffers(self):
        with B.use_backend("fast"):
            _, _, loss = _conv_loss()
            loss.backward()
            stats = last_tape_stats()
        assert stats.recycled_buffers > 0
        assert stats.recycled_bytes > 0

    def test_reference_backend_never_recycles(self):
        with B.use_backend("reference"):
            _, _, loss = _conv_loss()
            loss.backward()
            stats = last_tape_stats()
        assert stats.recycled_buffers == 0

    def test_recycling_does_not_change_gradients(self):
        grads = {}
        for name in ("reference", "fast"):
            with B.use_backend(name):
                x, w, loss = _conv_loss(seed=9)
                loss.backward()
                grads[name] = (x.grad.copy(), w.grad.copy())
        np.testing.assert_allclose(grads["fast"][0], grads["reference"][0],
                                   rtol=1e-4, atol=1e-6)
        np.testing.assert_allclose(grads["fast"][1], grads["reference"][1],
                                   rtol=1e-4, atol=1e-6)

    def test_shared_gradient_object_not_recycled_too_early(self):
        # Add.backward hands the SAME array to both parents; each parent
        # feeds a different chain.  If the buffer were recycled after
        # the first consumer, the second chain would read poisoned data.
        with B.use_backend("fast"):
            rng = np.random.default_rng(5)
            a = Tensor(rng.standard_normal((16, 16)).astype(np.float32),
                       requires_grad=True)
            b = Tensor(rng.standard_normal((16, 16)).astype(np.float32),
                       requires_grad=True)
            left = F.mul(a, Tensor(np.float32(2.0)))
            right = F.mul(b, Tensor(np.float32(3.0)))
            loss = F.sum(F.add(left, right))
            loss.backward()
            np.testing.assert_allclose(a.grad, np.full((16, 16), 2.0,
                                                       dtype=np.float32))
            np.testing.assert_allclose(b.grad, np.full((16, 16), 3.0,
                                                       dtype=np.float32))


class TestTrainingWithPlanner:
    def test_small_training_step_matches_across_backends(self):
        from repro.nn.layers import Conv2d, Flatten, Linear
        from repro.nn.losses import CrossEntropyLoss
        from repro.nn.module import Module

        class Tiny(Module):
            def __init__(self):
                super().__init__()
                rng = np.random.default_rng(21)
                self.conv = Conv2d(1, 2, 3, rng=rng)
                self.flat = Flatten()
                self.fc = Linear(2 * 4 * 4, 3, rng=rng)

            def forward(self, x):
                return self.fc(self.flat(F.relu(self.conv(x))))

        rng = np.random.default_rng(2)
        inputs = rng.standard_normal((4, 1, 6, 6)).astype(np.float32)
        labels = rng.integers(0, 3, size=4)
        results = {}
        for name in ("reference", "fast"):
            with B.use_backend(name):
                model = Tiny()
                loss = CrossEntropyLoss()(model(Tensor(inputs)), labels)
                model.zero_grad()
                loss.backward()
                results[name] = [p.grad.copy() for p in model.parameters()]
        for g_fast, g_ref in zip(results["fast"], results["reference"]):
            np.testing.assert_allclose(g_fast, g_ref, rtol=1e-4, atol=1e-6)


def _resnet_epoch_stats():
    """Tape stats of one float32 fast-backend training epoch of
    resnet8_tiny (192 16x16 RGB images, batch 64)."""
    from repro import precision
    from repro.models import resnet8_tiny
    from repro.pipeline.config import TrainingConfig
    from repro.pipeline.trainer import Trainer

    rng = np.random.default_rng(123)
    inputs = rng.normal(size=(192, 3, 16, 16))
    labels = rng.integers(0, 6, size=192)
    with precision.use_dtype("float32"):
        model = resnet8_tiny(num_classes=6, in_channels=3, width=8,
                             rng=np.random.default_rng(124))
    config = TrainingConfig(epochs=1, batch_size=64, lr=0.05, seed=123)
    Trainer(model, inputs, labels, config, backend="fast",
            dtype="float32").train_epoch()
    return last_tape_stats()


class TestTrainingEpochPlan:
    def test_peak_saved_bytes_cut_by_30_percent(self):
        stats = _resnet_epoch_stats()
        assert stats is not None and stats.functions > 0
        assert stats.peak_reduction >= 0.30

    def test_planner_books_balance(self):
        stats = _resnet_epoch_stats()
        assert stats.released_bytes == stats.total_saved_bytes
        assert stats.peak_live_bytes <= stats.unplanned_peak_bytes

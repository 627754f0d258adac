"""Leakage + systems probes: correct values, graceful no-context skips."""

from __future__ import annotations

import numpy as np
import pytest

from repro.models.mlp import MLP
from repro.monitor import (
    CorrelationProbe,
    DecodeProbe,
    GradNormProbe,
    MemoryProbe,
    ProbeContext,
    ThroughputProbe,
    UpdateRatioProbe,
    WeightDriftProbe,
    histogram_entropy,
    pearson,
)
from tests.monitor.conftest import make_group, make_payload


def _ctx(groups=None, model=None, epoch=0):
    return ProbeContext(model=model, epoch=epoch, groups=groups)


class TestPearson:
    def test_perfectly_correlated(self):
        x = np.arange(50, dtype=float)
        assert pearson(x, 3.0 * x + 2.0) == pytest.approx(1.0, abs=1e-9)

    def test_anticorrelated(self):
        x = np.arange(50, dtype=float)
        assert pearson(x, -x) == pytest.approx(-1.0, abs=1e-9)

    def test_truncates_to_shorter(self):
        x = np.arange(100, dtype=float)
        assert pearson(x, x[:40]) == pytest.approx(1.0, abs=1e-9)

    def test_degenerate_is_nan_or_zero(self):
        assert np.isnan(pearson(np.array([1.0]), np.array([2.0])))
        assert pearson(np.ones(10), np.arange(10.0)) == pytest.approx(0.0, abs=1e-6)


class TestHistogramEntropy:
    def test_uniform_has_high_entropy(self):
        rng = np.random.default_rng(0)
        flat = histogram_entropy(rng.uniform(size=10_000), bins=32)
        assert flat > 4.5  # close to log2(32) = 5

    def test_point_mass_has_zero_entropy(self):
        assert histogram_entropy(np.zeros(100)) == pytest.approx(0.0)

    def test_empty_is_nan(self):
        assert np.isnan(histogram_entropy(np.array([])))


class TestCorrelationProbe:
    def test_encoding_group_reads_high(self, encoding_group):
        values = CorrelationProbe().observe(_ctx(groups=[encoding_group]))
        assert values["corr_group1"] > 0.95
        assert values["corr_abs_mean"] > 0.95
        assert values["corr_abs_max"] >= values["corr_abs_mean"]

    def test_benign_group_reads_low(self, benign_group):
        values = CorrelationProbe().observe(_ctx(groups=[benign_group]))
        assert abs(values["corr_group1"]) < 0.3

    def test_no_groups_skips(self):
        assert CorrelationProbe().observe(_ctx()) == {}
        payload = make_payload()
        empty = make_group(payload, name="g")
        empty.payload = None
        assert CorrelationProbe().observe(_ctx(groups=[empty])) == {}


class TestDecodeProbe:
    def test_encoding_group_decodes_well(self, encoding_group):
        values = DecodeProbe(max_images=2).observe(_ctx(groups=[encoding_group]))
        assert values["images"] == 2.0
        assert values["psnr_best"] > 30.0  # near-exact affine mirror
        assert values["ssim_best"] > 0.9
        assert values["ssim_mean"] <= values["ssim_best"]

    def test_benign_group_decodes_poorly(self, benign_group):
        values = DecodeProbe(max_images=2).observe(_ctx(groups=[benign_group]))
        assert values["psnr_best"] < 20.0

    def test_no_groups_skips(self):
        assert DecodeProbe().observe(_ctx()) == {}


class TestWeightDriftProbe:
    def test_per_group_fields(self, encoding_group):
        values = WeightDriftProbe().observe(_ctx(groups=[encoding_group]))
        assert set(values) == {"entropy_group1", "std_group1", "absmax_group1"}
        assert values["std_group1"] > 0.0

    def test_model_fallback_without_groups(self):
        model = MLP([4, 8, 3], rng=np.random.default_rng(0))
        values = WeightDriftProbe().observe(_ctx(model=model))
        assert set(values) == {"entropy_all", "std_all", "absmax_all"}


class TestSystemsProbes:
    def test_grad_norm_requires_gradients(self):
        model = MLP([4, 8, 3], rng=np.random.default_rng(0))
        assert GradNormProbe().observe(_ctx(model=model)) == {}

    def test_update_ratio_needs_two_ticks(self):
        model = MLP([4, 8, 3], rng=np.random.default_rng(0))
        probe = UpdateRatioProbe()
        assert probe.observe(_ctx(model=model)) == {}
        for param in model.parameters():
            param.data = param.data + 0.01
        values = probe.observe(_ctx(model=model))
        assert values["update_ratio"] > 0.0

    def test_memory_probe_reports_mib(self):
        values = MemoryProbe().observe(_ctx())
        # /proc + getrusage both exist on the CI platform
        assert values.get("rss_mib", 0.0) > 1.0
        assert values.get("peak_rss_mib", 0.0) >= values.get("rss_mib", 0.0) * 0.5

    def test_throughput_probe_reads_trainer_metrics(self):
        from repro.telemetry.metrics import default_registry
        registry = default_registry()
        registry.reset()
        assert ThroughputProbe().observe(_ctx()) == {}
        registry.gauge("trainer.images_per_s").set(512.0)
        values = ThroughputProbe().observe(_ctx())
        assert values["images_per_s"] == pytest.approx(512.0)
        registry.reset()

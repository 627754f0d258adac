"""SloHistogram: buckets, quantiles, exact merge, registry + Prometheus."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.telemetry.metrics import MetricsRegistry, prometheus_text
from repro.telemetry.slo import EDGES, SloHistogram


class TestBucketEdges:
    def test_log_spacing_and_coverage(self):
        assert EDGES[0] == 1e-6
        assert EDGES[-1] == 1e5
        assert len(EDGES) == 111
        ratios = [b / a for a, b in zip(EDGES, EDGES[1:])]
        assert all(r == pytest.approx(10 ** 0.1, rel=1e-6) for r in ratios)

    def test_deterministic_across_computations(self):
        # every process must bucket identically for counts to add: the
        # layout is one constant, the same for every histogram
        assert SloHistogram("a").snapshot()["counts"] == \
            SloHistogram("b").snapshot()["counts"]
        assert len(SloHistogram("a").counts) == len(EDGES) + 1


class TestObserve:
    def test_count_sum_min_max_are_exact(self):
        hist = SloHistogram("lat")
        values = [0.5, 3.0, 12.0, 75.0, 420.0]
        for value in values:
            hist.observe(value)
        assert hist.count == len(values)
        assert hist.total == pytest.approx(sum(values))
        assert hist.min == 0.5
        assert hist.max == 420.0
        assert hist.mean == pytest.approx(np.mean(values))
        assert sum(hist.counts) == len(values)

    def test_underflow_and_overflow_buckets(self):
        hist = SloHistogram("lat")
        hist.observe(1e-9)   # below the first edge -> bucket 0
        hist.observe(1e9)    # above the last edge -> overflow bucket
        assert hist.counts[0] == 1
        assert hist.counts[-1] == 1
        # overflow quantile answers with the observed max, not a bucket
        assert hist.quantile(1.0) == 1e9

    def test_breaches_count_only_above_slo(self):
        hist = SloHistogram("lat", slo=100.0)
        for value in (10.0, 100.0, 101.0, 500.0):
            hist.observe(value)
        assert hist.breaches == 2  # strictly above the target

    def test_no_slo_means_no_breaches(self):
        hist = SloHistogram("lat")
        hist.observe(1e9)
        assert hist.breaches == 0


class TestQuantiles:
    def test_within_bucket_resolution_of_numpy(self):
        rng = np.random.default_rng(7)
        values = rng.lognormal(mean=3.0, sigma=1.0, size=5000)
        hist = SloHistogram("lat")
        for value in values:
            hist.observe(float(value))
        # bucket ratio at 10/decade is 10**0.1 (~26%); the geometric
        # midpoint estimate stays within one bucket of the true quantile
        ratio = 10 ** 0.1
        for q in (0.5, 0.9, 0.99):
            exact = float(np.quantile(values, q))
            estimate = hist.quantile(q)
            assert exact / ratio <= estimate <= exact * ratio

    def test_clamped_to_observed_range(self):
        hist = SloHistogram("lat")
        hist.observe(42.0)
        for q in (0.0, 0.5, 1.0):
            assert hist.quantile(q) == 42.0

    def test_empty_histogram_is_nan(self):
        hist = SloHistogram("lat")
        assert math.isnan(hist.quantile(0.5))
        assert math.isnan(hist.mean)

    def test_percentiles_keys(self):
        hist = SloHistogram("lat")
        hist.observe(5.0)
        assert set(hist.percentiles()) == {"p50", "p90", "p99", "p999"}

    def test_quantile_validation(self):
        with pytest.raises(ConfigError):
            SloHistogram("lat").quantile(1.5)


class TestMerge:
    def test_merged_quantiles_equal_single_stream(self):
        # the whole point of fixed buckets: two shards' histograms merge
        # into exactly what one observer of both streams would hold
        rng = np.random.default_rng(3)
        stream_a = rng.uniform(1.0, 500.0, size=400)
        stream_b = rng.uniform(0.1, 50.0, size=300)
        merged = SloHistogram("lat", slo=100.0)
        for value in stream_a:
            merged.observe(float(value))
        other = SloHistogram("lat", slo=100.0)
        for value in stream_b:
            other.observe(float(value))
        merged.merge_snapshot(other.snapshot())

        single = SloHistogram("lat", slo=100.0)
        for value in list(stream_a) + list(stream_b):
            single.observe(float(value))
        assert merged.counts == single.counts
        assert merged.count == single.count
        assert merged.total == pytest.approx(single.total)
        assert merged.breaches == single.breaches
        assert merged.min == single.min and merged.max == single.max
        for q in (0.5, 0.9, 0.99):
            assert merged.quantile(q) == single.quantile(q)

    def test_layout_mismatch_raises(self):
        hist = SloHistogram("lat")
        other = SloHistogram("lat")
        other.observe(10.0)
        snap = other.snapshot()
        snap["counts"] = snap["counts"][:-1]
        with pytest.raises(ConfigError):
            hist.merge_snapshot(snap)
        del snap["counts"]
        with pytest.raises(ConfigError):
            hist.merge_snapshot(snap)
        assert hist.count == 0

    def test_extremes_are_exact(self):
        hist = SloHistogram("lat")
        for value in (10.1, 10.2, 10.3):   # one bucket
            hist.observe(value)
        assert hist.quantile(0.0) == 10.1
        assert hist.quantile(1.0) == 10.3

    def test_empty_snapshot_is_a_noop(self):
        hist = SloHistogram("lat")
        hist.observe(1.0)
        hist.merge_snapshot(SloHistogram("lat").snapshot())
        assert hist.count == 1

    def test_reset(self):
        hist = SloHistogram("lat", slo=1.0)
        hist.observe(5.0)
        hist.reset()
        assert hist.count == 0 and hist.breaches == 0
        assert sum(hist.counts) == 0


class TestRegistryIntegration:
    def test_typed_snapshot_roundtrip_across_registries(self):
        source = MetricsRegistry()
        hist = source.histogram("serve.latency_ms", slo=100.0)
        for value in (10.0, 150.0, 30.0):
            hist.observe(value)
        shipped = source.typed_snapshot()
        assert "serve.latency_ms" in shipped["histograms"]

        parent = MetricsRegistry()
        parent.merge_typed(shipped)
        merged = parent.histogram("serve.latency_ms")
        assert merged.slo == 100.0   # the target ships with the snapshot
        assert merged.count == 3
        assert merged.breaches == 1
        assert merged.counts == hist.counts

    def test_later_target_applies_but_merges_keep_it(self):
        registry = MetricsRegistry()
        registry.histogram("serve.latency_ms", slo=10.0).observe(20.0)
        hist = registry.histogram("serve.latency_ms", slo=500.0)
        hist.observe(20.0)
        assert (hist.slo, hist.breaches) == (500.0, 1)
        assert registry.histogram("serve.latency_ms").slo == 500.0
        worker = MetricsRegistry()
        worker.histogram("serve.latency_ms", slo=10.0).observe(1.0)
        registry.merge_typed(worker.typed_snapshot())
        assert (hist.slo, hist.count) == (500.0, 3)

    def test_accessor_kind_collision_raises(self):
        registry = MetricsRegistry()
        registry.histogram("x")
        with pytest.raises(ConfigError):
            registry.counter("x")

    def test_flat_snapshot_skips_bucket_vector(self):
        registry = MetricsRegistry()
        registry.histogram("x", slo=1.0).observe(2.0)
        flat = registry.flat_snapshot()
        assert flat["x.count"] == 1
        assert flat["x.breaches"] == 1.0
        assert "x.counts" not in flat
        assert all(isinstance(v, (int, float)) for v in flat.values())


class TestPrometheusRendering:
    def test_native_histogram_series(self):
        registry = MetricsRegistry()
        hist = registry.histogram("serve.latency_ms", slo=50.0)
        for value in (1.0, 10.0, 100.0):
            hist.observe(value)
        text = prometheus_text(registry)
        assert "# TYPE repro_serve_latency_ms histogram" in text
        assert 'repro_serve_latency_ms_bucket{le="+Inf"} 3' in text
        assert "repro_serve_latency_ms_count 3" in text
        assert "repro_serve_latency_ms_breaches 1.0" in text
        # bucket series are cumulative: the last finite bucket holds all
        lines = [l for l in text.splitlines()
                 if l.startswith("repro_serve_latency_ms_bucket")]
        counts = [int(l.rsplit(" ", 1)[1]) for l in lines]
        assert counts == sorted(counts)

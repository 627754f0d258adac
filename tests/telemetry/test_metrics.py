"""Metrics registry: counter/gauge/histogram semantics."""

import json
import math

import pytest

from repro.errors import ConfigError
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    MetricsRegistry,
    default_registry,
)
from repro.telemetry.slo import SloHistogram


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = Counter("c")
        assert c.snapshot() == 0.0
        c.inc()
        c.inc(4)
        assert c.snapshot() == 5.0

    def test_negative_increment_raises(self):
        with pytest.raises(ConfigError):
            Counter("c").inc(-1)

    def test_reset(self):
        c = Counter("c")
        c.inc(3)
        c.reset()
        assert c.snapshot() == 0.0


class TestGauge:
    def test_nan_until_set(self):
        g = Gauge("g")
        assert math.isnan(g.snapshot())
        g.set(2.5)
        assert g.snapshot() == 2.5

    def test_last_write_wins(self):
        g = Gauge("g")
        g.set(1.0)
        g.set(-7.0)
        assert g.snapshot() == -7.0


class TestHistogram:
    def test_count_sum_min_max(self):
        h = SloHistogram("h")
        for v in [3.0, 1.0, 2.0]:
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 3
        assert snap["sum"] == 6.0
        assert snap["min"] == 1.0
        assert snap["max"] == 3.0
        assert snap["mean"] == 2.0

    def test_quantiles(self):
        h = SloHistogram("h")
        for v in range(101):
            h.observe(float(v))
        assert h.quantile(0.0) == 0.0
        # within one bucket (ratio 10**0.1) of the exact median
        assert 50.0 / 10 ** 0.1 <= h.quantile(0.5) <= 50.0 * 10 ** 0.1
        assert h.quantile(1.0) == 100.0

    def test_empty_quantile_is_nan(self):
        assert math.isnan(SloHistogram("h").quantile(0.5))

    def test_bad_quantile_raises(self):
        with pytest.raises(ConfigError):
            SloHistogram("h").quantile(1.5)


class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        assert len(reg) == 1

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ConfigError):
            reg.gauge("x")

    def test_snapshot_is_json_serializable(self):
        reg = MetricsRegistry()
        reg.counter("a").inc(2)
        reg.gauge("b").set(1.5)
        reg.histogram("c").observe(3.0)
        data = reg.snapshot()
        json.dumps(data)
        assert data["a"] == 2.0
        assert data["c"]["count"] == 1

    def test_flat_snapshot_dotted_keys(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.histogram("h").observe(1.0)
        flat = reg.flat_snapshot()
        assert flat["a"] == 1.0
        assert flat["h.count"] == 1

    def test_reset_keeps_names(self):
        reg = MetricsRegistry()
        reg.counter("a").inc(5)
        reg.reset()
        assert reg.names() == ["a"]
        assert reg.counter("a").snapshot() == 0.0

    def test_render_table(self):
        reg = MetricsRegistry()
        reg.counter("calls").inc(3)
        reg.histogram("step_s").observe(0.25)
        table = reg.render_table()
        assert "calls" in table
        assert "step_s" in table

    def test_default_registry_is_a_singleton(self):
        assert default_registry() is default_registry()


class TestCrossProcessMerge:
    """typed_snapshot/merge_typed: the worker ship-back contract."""

    def make_source(self):
        src = MetricsRegistry()
        src.counter("jobs").inc(3)
        src.gauge("loss").set(0.5)
        for v in (1.0, 2.0, 3.0):
            src.histogram("sizes").observe(v)
        src.histogram("step_s").observe(0.25)
        src.histogram("step_s").observe(0.35)
        return src

    def test_counters_add_gauges_overwrite(self):
        dst = MetricsRegistry()
        dst.counter("jobs").inc(1)
        dst.gauge("loss").set(9.0)
        dst.merge_typed(self.make_source().typed_snapshot())
        assert dst.counter("jobs").snapshot() == 4.0
        assert dst.gauge("loss").snapshot() == 0.5

    def test_histogram_and_timer_fold(self):
        dst = MetricsRegistry()
        dst.histogram("sizes").observe(10.0)
        dst.merge_typed(self.make_source().typed_snapshot())
        snap = dst.histogram("sizes").snapshot()
        assert snap["count"] == 4
        assert snap["min"] == 1.0 and snap["max"] == 10.0
        timer = dst.histogram("step_s").snapshot()
        assert timer["count"] == 2
        assert timer["sum"] == pytest.approx(0.6)
        assert timer["min"] == 0.25 and timer["max"] == 0.35

    def test_zero_count_snapshots_do_not_create_metrics(self):
        # a worker that registered names but observed nothing (e.g. a
        # forked child after reset()) must not leave NaN-valued ghosts
        src = MetricsRegistry()
        src.histogram("ghost_h")
        src.gauge("ghost_g")
        src.counter("ghost_c")
        dst = MetricsRegistry()
        dst.merge_typed(src.typed_snapshot())
        assert dst.snapshot() == {}

    def test_merged_registry_roundtrips_through_json(self):
        dst = MetricsRegistry()
        dst.merge_typed(self.make_source().typed_snapshot())
        flat = dst.flat_snapshot()
        assert flat == json.loads(json.dumps(flat))  # no NaN anywhere

    def test_merge_only_histogram_quantiles_are_exact(self):
        # a registry fed only by worker snapshots reports the quantiles
        # of one that observed the same values in-process
        dst = MetricsRegistry()
        dst.merge_typed(self.make_source().typed_snapshot())
        local = MetricsRegistry()
        for v in (1.0, 2.0, 3.0):
            local.histogram("sizes").observe(v)
        assert dst.histogram("sizes").snapshot() == \
            local.histogram("sizes").snapshot()

    def test_typed_snapshot_has_three_kinds(self):
        assert set(self.make_source().typed_snapshot()) == {
            "counters", "gauges", "histograms"}

    def test_timer_is_a_histogram_alias(self):
        reg = MetricsRegistry()
        assert reg.timer("t_s") is reg.histogram("t_s")

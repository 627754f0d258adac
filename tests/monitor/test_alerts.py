"""Alert rules engine: rule semantics, engine emission, monitor wiring."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.monitor import Monitor
from repro.monitor.alerts import (
    Alert,
    AlertEngine,
    BurnRateRule,
    DriftRule,
    MetricRule,
    ProbeDisabledRule,
    StallRule,
    ThresholdRule,
    default_rules,
    serving_rules,
)
from repro.monitor.probes import Probe
from repro.telemetry.metrics import default_registry


def _hard_crash():
    os._exit(13)  # a worker dying without an exception


def record(probe="correlation", epoch=0, **fields):
    return {"probe": probe, "scope": "epoch", "epoch": epoch, "batch": None,
            **fields}


class TestThresholdRule:
    def test_fires_above_bound(self):
        rule = ThresholdRule("leak", field="corr_abs_mean", above=0.25)
        assert rule.evaluate(record(corr_abs_mean=0.1)) is None
        alert = rule.evaluate(record(corr_abs_mean=0.4, epoch=2))
        assert alert is not None
        assert alert.rule == "leak"
        assert alert.value == pytest.approx(0.4)
        assert alert.epoch == 2

    def test_fire_once_latches(self):
        rule = ThresholdRule("leak", field="corr_abs_mean", above=0.25)
        assert rule.evaluate(record(corr_abs_mean=0.4)) is not None
        assert rule.evaluate(record(corr_abs_mean=0.9)) is None
        rule.reset()
        assert rule.evaluate(record(corr_abs_mean=0.9)) is not None

    def test_min_epoch_suppresses_early_noise(self):
        rule = ThresholdRule("leak", field="corr_abs_mean", above=0.25,
                             min_epoch=2)
        assert rule.evaluate(record(corr_abs_mean=0.9, epoch=1)) is None
        assert rule.evaluate(record(corr_abs_mean=0.9, epoch=2)) is not None

    def test_below_bound_and_probe_filter(self):
        rule = ThresholdRule("acc", field="accuracy", below=0.5,
                             probe="decode")
        assert rule.evaluate(record(probe="correlation", accuracy=0.1)) is None
        assert rule.evaluate(record(probe="decode", accuracy=0.1)) is not None

    def test_requires_exactly_one_bound(self):
        with pytest.raises(ConfigError):
            ThresholdRule("x", field="f")
        with pytest.raises(ConfigError):
            ThresholdRule("x", field="f", above=1.0, below=0.0)


class TestDriftRule:
    def test_stable_series_never_fires(self):
        rule = DriftRule("d", field="v", sigmas=4.0, warmup=3)
        for i in range(20):
            assert rule.evaluate(record(v=1.0 + 0.01 * (i % 3))) is None

    def test_level_shift_fires_once_then_adapts(self):
        rule = DriftRule("d", field="v", sigmas=4.0, warmup=3, alpha=0.5)
        for _ in range(6):
            rule.evaluate(record(v=1.0))
        for i in range(4):
            rule.evaluate(record(v=1.0 + 0.02 * (-1) ** i))
        alerts = [rule.evaluate(record(v=5.0)) for _ in range(6)]
        assert alerts[0] is not None
        assert "sigma" in alerts[0].message
        # the shifted level becomes the new normal
        assert alerts[-1] is None

    def test_warmup_suppresses(self):
        rule = DriftRule("d", field="v", warmup=5)
        assert rule.evaluate(record(v=0.0)) is None
        assert rule.evaluate(record(v=100.0)) is None  # still warming up


class TestStallRule:
    def test_fires_after_window_without_improvement(self):
        rule = StallRule("stall", field="psnr_mean", window=3, min_delta=0.1)
        assert rule.evaluate(record(psnr_mean=10.0)) is None
        for value in (10.0, 10.05, 10.02):
            alert = rule.evaluate(record(psnr_mean=value))
        assert alert is not None
        assert "not improved" in alert.message

    def test_fires_once_per_streak_and_rearms(self):
        rule = StallRule("stall", field="v", window=2, min_delta=0.1)
        rule.evaluate(record(v=1.0))
        assert rule.evaluate(record(v=1.0)) is None
        assert rule.evaluate(record(v=1.0)) is not None   # streak fires
        assert rule.evaluate(record(v=1.0)) is None        # latched
        assert rule.evaluate(record(v=2.0)) is None        # recovery re-arms
        rule.evaluate(record(v=2.0))
        assert rule.evaluate(record(v=2.0)) is not None

    def test_decreasing_mode(self):
        rule = StallRule("loss", field="loss", window=2, increasing=False)
        rule.evaluate(record(loss=1.0))
        rule.evaluate(record(loss=0.5))    # improving (decreasing)
        rule.evaluate(record(loss=0.6))
        alert = rule.evaluate(record(loss=0.7))
        assert alert is not None


class TestMetricRule:
    def test_absolute_above(self):
        rule = MetricRule("crash", metric="pool.worker_crashes", above=0.0)
        assert rule.evaluate_registry({"pool.worker_crashes": 0.0}, 1) is None
        alert = rule.evaluate_registry({"pool.worker_crashes": 2.0}, 1)
        assert alert is not None
        assert alert.field == "pool.worker_crashes"

    def test_below_frac_of_peak(self):
        rule = MetricRule("collapse", metric="trainer.images_per_s",
                          below_frac_of_peak=0.5, warmup=2)
        assert rule.evaluate_registry({"trainer.images_per_s": 100.0}, 0) is None
        assert rule.evaluate_registry({"trainer.images_per_s": 110.0}, 1) is None
        assert rule.evaluate_registry({"trainer.images_per_s": 105.0}, 2) is None
        alert = rule.evaluate_registry({"trainer.images_per_s": 20.0}, 3)
        assert alert is not None
        assert "collapsed" in alert.message

    def test_missing_metric_is_silent(self):
        rule = MetricRule("collapse", metric="nope", below=1.0)
        assert rule.evaluate_registry({}, 0) is None

    def test_mode_validation(self):
        with pytest.raises(ConfigError):
            MetricRule("x", metric="m")
        with pytest.raises(ConfigError):
            MetricRule("x", metric="m", above=1.0, below=0.0)
        with pytest.raises(ConfigError):
            MetricRule("x", metric="m", below_frac_of_peak=1.5)


class TestProbeDisabledRule:
    def test_fires_once_per_probe(self):
        rule = ProbeDisabledRule()
        err = {"probe_error": True, "probe": "decode", "disabled": True,
               "error": "ValueError('x')"}
        assert rule.evaluate({"probe_error": True, "probe": "decode",
                              "disabled": False}) is None
        assert rule.evaluate(err) is not None
        assert rule.evaluate(err) is None
        other = dict(err, probe="correlation")
        assert rule.evaluate(other) is not None


class TestAlertEngine:
    def test_observe_collects_and_counts(self):
        registry = default_registry()
        engine = AlertEngine([
            ThresholdRule("leak", field="corr_abs_mean", above=0.25),
        ])
        engine.observe(record(corr_abs_mean=0.1))
        assert engine.alerts == []
        fired = engine.observe(record(corr_abs_mean=0.5))
        assert len(fired) == 1
        assert registry.counter("alerts.total").snapshot() == 1.0
        assert registry.counter("alerts.leak").snapshot() == 1.0
        assert engine.by_rule("leak") == engine.alerts

    def test_broken_rule_is_isolated(self):
        class Broken(ThresholdRule):
            def evaluate(self, record):
                raise RuntimeError("boom")

        engine = AlertEngine([
            Broken("broken", field="v", above=0.0),
            ThresholdRule("good", field="v", above=0.0),
        ])
        fired = engine.observe(record(v=1.0))
        assert [a.rule for a in fired] == ["good"]

    def test_replay_resets_rules(self):
        engine = AlertEngine([
            ThresholdRule("leak", field="corr_abs_mean", above=0.25),
        ])
        records = [record(corr_abs_mean=v, epoch=i)
                   for i, v in enumerate((0.1, 0.3, 0.5))]
        first = engine.replay(records)
        second = engine.replay(records)
        assert len(first) == len(second) == 1
        assert engine.alerts == second

    def test_attached_logger_receives_alert_events(self, tmp_path):
        from repro.monitor.alerts import ALERT_EVENT
        from repro.telemetry.events import EventLogger

        path = tmp_path / "alerts.jsonl"
        logger = EventLogger(path=str(path), level="debug")
        engine = AlertEngine([
            ThresholdRule("leak", field="corr_abs_mean", above=0.25,
                          severity="critical"),
        ]).attach(logger)
        engine.observe(record(corr_abs_mean=0.5))
        logger.close()
        lines = [json.loads(line) for line in
                 path.read_text().splitlines()]
        events = [l for l in lines if l.get("event") == ALERT_EVENT]
        assert len(events) == 1
        assert events[0]["rule"] == "leak"
        assert events[0]["level"] == "error"  # critical maps to error level

    def test_summary_table_renders(self):
        engine = AlertEngine([])
        engine.alerts.append(Alert(rule="leak", severity="critical",
                                   message="corr high", epoch=3))
        out = engine.summary_table()
        assert "leak" in out and "critical" in out

    def test_rule_validation(self):
        with pytest.raises(ConfigError):
            AlertEngine([object()])

    def test_counts_alerts_on_emit(self):
        from repro.telemetry.metrics import default_registry

        registry = default_registry()
        before = registry.flat_snapshot()
        engine = AlertEngine([
            ThresholdRule("leak", field="v", above=0.0),
        ])
        engine.observe(record(v=1.0))
        after = registry.flat_snapshot()
        for name in ("alerts.total", "alerts.leak"):
            assert after[name] == before.get(name, 0.0) + 1.0


class _AlwaysRaises(Probe):
    name = "broken"
    scope = "epoch"

    def observe(self, ctx):
        raise ValueError("hard broken")


class _Counts(Probe):
    name = "counts"
    scope = "epoch"

    def observe(self, ctx):
        return {"ticks": float(ctx.epoch)}


class TestMonitorIntegration:
    """Probe auto-disable x alert rules: the disabled probe fires a
    probe_disabled alert exactly once and never kills the run."""

    def test_disabled_probe_alerts_once_and_run_survives(self):
        engine = AlertEngine([ProbeDisabledRule()])
        monitor = Monitor([_AlwaysRaises(), _Counts()],
                          max_probe_errors=2, alerts=engine)
        for epoch in range(6):
            monitor.on_epoch(model=None, epoch=epoch)
        # the healthy probe ran every epoch: training was never killed
        assert len(monitor.probe_records("counts")) == 6
        # the broken probe was disabled after max_probe_errors failures
        assert len(monitor.errors()) == 2
        disabled = [a for a in engine.alerts if a.rule == "probe_disabled"]
        assert len(disabled) == 1
        assert "broken" in disabled[0].message

    def test_monitor_accepts_plain_rule_sequence(self):
        monitor = Monitor([_Counts()],
                          alerts=[ThresholdRule("t", field="ticks", above=2.5)])
        for epoch in range(5):
            monitor.on_epoch(model=None, epoch=epoch)
        assert isinstance(monitor.alerts, AlertEngine)
        assert [a.rule for a in monitor.alerts.alerts] == ["t"]

    def test_epoch_tick_evaluates_registry_rules(self):
        registry = default_registry()
        registry.gauge("trainer.images_per_s").set(100.0)
        engine = AlertEngine([
            MetricRule("collapse", metric="trainer.images_per_s",
                       below_frac_of_peak=0.5, warmup=2),
        ])
        monitor = Monitor([_Counts()], alerts=engine)
        for epoch in range(3):
            monitor.on_epoch(model=None, epoch=epoch)
        registry.gauge("trainer.images_per_s").set(10.0)
        monitor.on_epoch(model=None, epoch=3)
        assert [a.rule for a in engine.alerts] == ["collapse"]
        assert engine.alerts[0].epoch == 3

    def test_alerts_written_to_timeseries(self, tmp_path):
        from repro.monitor import alert_records, load_timeseries

        path = str(tmp_path / "run.jsonl")
        engine = AlertEngine([
            ThresholdRule("many_ticks", field="ticks", above=1.5),
        ])
        with Monitor([_Counts()], path=path, alerts=engine) as monitor:
            for epoch in range(4):
                monitor.on_epoch(model=None, epoch=epoch)
        records = load_timeseries(path)
        alerts = alert_records(records)
        assert len(alerts) == 1
        assert alerts[0]["rule"] == "many_ticks"
        # probe records are still cleanly separated from alert records
        assert len([r for r in records if not r.get("alert")
                    and not r.get("probe_error")]) == 4


class TestDefaultRules:
    def test_names_cover_the_pipeline_vitals(self):
        names = {rule.name for rule in default_rules()}
        assert {"correlation_leak", "psnr_stall", "throughput_collapse",
                "worker_death", "probe_disabled"} <= names

    def test_correlation_rule_fires_on_malicious_trajectory(self):
        engine = AlertEngine(default_rules(corr_threshold=0.25))
        # a benign-looking then leaking correlation trajectory
        trajectory = [0.05, 0.4, 0.6]
        for epoch, corr in enumerate(trajectory):
            engine.observe(record(probe="correlation", epoch=epoch,
                                  corr_abs_mean=corr))
        leak = engine.by_rule("correlation_leak")
        assert len(leak) == 1
        assert leak[0].severity == "critical"
        assert leak[0].epoch == 1

    def test_worker_death_fires_on_a_pooled_crash(self):
        from repro.parallel import Task, WorkerPool

        default_registry().counter("pool.worker_crashes").reset()
        engine = AlertEngine(default_rules())
        assert engine.observe_registry() == []
        outcome = WorkerPool(max_workers=2, retries=0).run(
            [Task(_hard_crash)])[0]
        assert outcome.error_kind == "crash"
        fired = [a.rule for a in engine.observe_registry()]
        assert fired == ["worker_death"]

    def test_benign_trajectory_stays_silent(self):
        engine = AlertEngine([r for r in default_rules()
                              if r.name == "correlation_leak"])
        for epoch, corr in enumerate((0.04, 0.06, 0.05, 0.07, 0.05)):
            engine.observe(record(probe="correlation", epoch=epoch,
                                  corr_abs_mean=corr))
        assert engine.alerts == []


class TestServingRules:
    def test_rule_set_shape(self):
        rules = serving_rules()
        names = {r.name: r for r in rules}
        assert set(names) == {"serve_p99_breach", "shard_death",
                              "serve_errors", "serve_refusals",
                              "latency_slo", "queue_saturation"}
        assert names["serve_p99_breach"].severity == "critical"
        assert names["shard_death"].severity == "critical"
        assert names["serve_errors"].severity == "critical"
        assert names["serve_refusals"].severity == "warning"
        assert names["latency_slo"].severity == "critical"
        assert names["queue_saturation"].severity == "warning"

    def test_quiet_serving_metrics_fire_nothing(self):
        engine = AlertEngine(serving_rules(p99_budget_ms=250.0))
        flat = {"serve.latency_ms.p99": 12.0, "serve.shard_deaths": 0.0,
                "serve.errors": 0.0, "serve.refused": 0.0}
        for rule in engine.rules:
            assert rule.evaluate_registry(flat, 0) is None
        assert engine.alerts == []

    def test_p99_breach_fires_on_budget_crossing(self):
        engine = AlertEngine(serving_rules(p99_budget_ms=100.0))
        flat = {"serve.latency_ms.p99": 101.0}
        fired = [r.evaluate_registry(flat, 0) for r in engine.rules]
        fired = [a for a in fired if a is not None]
        assert [a.rule for a in fired] == ["serve_p99_breach"]
        assert fired[0].severity == "critical"
        assert fired[0].value == 101.0

    def test_shard_death_and_refusal_budgets(self):
        rules = {r.name: r for r in serving_rules(refusal_budget=5.0)}
        assert rules["shard_death"].evaluate_registry(
            {"serve.shard_deaths": 1.0}, 0) is not None
        assert rules["serve_refusals"].evaluate_registry(
            {"serve.refused": 5.0}, 0) is None
        assert rules["serve_refusals"].evaluate_registry(
            {"serve.refused": 6.0}, 0) is not None

    def test_missing_serve_metrics_are_silent(self):
        # a registry with no serve.* metrics (no server running) is fine
        for rule in serving_rules():
            assert rule.evaluate_registry({}, 0) is None


class TestBurnRateRule:
    @staticmethod
    def rule(**kwargs):
        defaults = dict(bad="bad", total="total", budget=0.1,
                        window=4, min_events=10)
        defaults.update(kwargs)
        return BurnRateRule("burn", **defaults)

    def test_validation(self):
        with pytest.raises(ConfigError):
            self.rule(budget=1.0)
        with pytest.raises(ConfigError):
            self.rule(window=0)
        with pytest.raises(ConfigError):
            self.rule(min_events=0)

    def test_fires_on_windowed_burn_not_lifetime_ratio(self):
        # lifetime ratio 50/1050 is under budget; the *recent* delta
        # (50 bad of 50 new) is what the rule must see
        rule = self.rule()
        assert rule.evaluate_registry({"bad": 0.0, "total": 1000.0}, 0) is None
        alert = rule.evaluate_registry({"bad": 50.0, "total": 1050.0}, 1)
        assert alert is not None
        assert alert.severity == "warning"
        assert alert.value == pytest.approx(1.0)

    def test_min_events_guards_quiet_servers(self):
        rule = self.rule(min_events=50)
        assert rule.evaluate_registry({"bad": 0.0, "total": 0.0}, 0) is None
        # 2 unlucky requests out of 2: 100% "burn", but only 2 events
        assert rule.evaluate_registry({"bad": 2.0, "total": 2.0}, 1) is None

    def test_latches_while_burning_and_rearms(self):
        rule = self.rule(window=8)
        rule.evaluate_registry({"bad": 0.0, "total": 0.0}, 0)
        assert rule.evaluate_registry({"bad": 20.0, "total": 100.0}, 1) \
            is not None
        # still burning: no repeat alert
        assert rule.evaluate_registry({"bad": 40.0, "total": 200.0}, 2) is None
        # recovery: rate over the window drops under budget...
        for step in range(3, 12):
            rule.evaluate_registry({"bad": 40.0,
                                    "total": 200.0 + step * 100.0}, step)
        # ...then a fresh regression alerts again
        assert rule.evaluate_registry({"bad": 400.0, "total": 1500.0}, 12) \
            is not None

    def test_reset_clears_history_and_latch(self):
        rule = self.rule()
        rule.evaluate_registry({"bad": 0.0, "total": 0.0}, 0)
        assert rule.evaluate_registry({"bad": 50.0, "total": 100.0}, 1) \
            is not None
        rule.reset()
        rule.evaluate_registry({"bad": 50.0, "total": 100.0}, 2)
        assert rule.evaluate_registry({"bad": 100.0, "total": 200.0}, 3) \
            is not None

    def test_first_observation_never_fires(self):
        # no prior point => no delta, even with a terrible lifetime ratio
        assert self.rule().evaluate_registry(
            {"bad": 900.0, "total": 1000.0}, 0) is None


class TestInjectedClock:
    def test_alert_timestamps_come_from_the_clock(self):
        ticks = iter([1000.0, 2000.0])
        engine = AlertEngine(
            [ThresholdRule("leak", field="corr_abs_mean", above=0.25,
                           fire_once=False)],
            clock=lambda: next(ticks))
        engine.observe(record(corr_abs_mean=0.9))
        engine.observe(record(corr_abs_mean=0.9, epoch=1))
        assert [a.ts for a in engine.alerts] == [1000.0, 2000.0]

    def test_default_clock_still_stamps(self):
        engine = AlertEngine(
            [ThresholdRule("leak", field="corr_abs_mean", above=0.25)])
        engine.observe(record(corr_abs_mean=0.9))
        assert engine.alerts[0].ts is not None

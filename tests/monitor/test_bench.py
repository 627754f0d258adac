"""Benchmark-trajectory store + regression comparator."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigError
from repro.monitor import (
    BenchStore,
    detect_regressions,
    machine_fingerprint,
    machine_info,
    metric_direction,
)


def _entries(values, metric="epoch_s", fingerprint=None):
    return [{"ts": float(i), "run_id": f"r{i}",
             "fingerprint": fingerprint or machine_fingerprint(),
             "metrics": {metric: v}}
            for i, v in enumerate(values)]


class TestDirections:
    @pytest.mark.parametrize("metric,expected", [
        ("epoch_s", "lower"), ("train_time", "lower"), ("overhead_frac", "lower"),
        ("rss_mib", "lower"), ("q_mape", "lower"), ("latency_ms", "lower"),
        ("accuracy", "higher"), ("psnr_best", "higher"), ("speedup", "higher"),
        ("images_per", "higher"),
    ])
    def test_inference(self, metric, expected):
        assert metric_direction(metric) == expected


class TestDetectRegressions:
    def test_flags_synthetic_20_percent_regression(self):
        history = _entries([1.0, 1.02, 0.98, 1.0, 1.01])
        found = detect_regressions(history, {"epoch_s": 1.25}, threshold=0.2)
        assert len(found) == 1
        regression = found[0]
        assert regression.metric == "epoch_s"
        assert regression.baseline == pytest.approx(1.0)
        assert regression.change == pytest.approx(0.25)
        assert "epoch_s" in str(regression)

    def test_within_threshold_passes(self):
        history = _entries([1.0, 1.0, 1.0])
        assert detect_regressions(history, {"epoch_s": 1.15}, threshold=0.2) == []

    def test_improvement_never_flags(self):
        history = _entries([1.0, 1.0, 1.0])
        assert detect_regressions(history, {"epoch_s": 0.5}, threshold=0.2) == []

    def test_higher_better_metric_flags_drop(self):
        history = _entries([0.9, 0.91, 0.9], metric="accuracy")
        found = detect_regressions(history, {"accuracy": 0.6}, threshold=0.2)
        assert len(found) == 1
        assert found[0].direction == "higher"

    def test_unknown_metric_skipped(self):
        history = _entries([1.0])
        assert detect_regressions(history, {"brand_new": 99.0}) == []

    def test_restricts_to_same_fingerprint(self):
        other_box = _entries([10.0, 10.0], fingerprint="aaaabbbbcccc")
        same_box = _entries([1.0, 1.0])
        found = detect_regressions(other_box + same_box, {"epoch_s": 1.5},
                                   fingerprint=machine_fingerprint())
        assert len(found) == 1
        assert found[0].baseline == pytest.approx(1.0)

    def test_window_limits_history(self):
        history = _entries([5.0] * 10 + [1.0] * 8)
        found = detect_regressions(history, {"epoch_s": 1.3},
                                   threshold=0.2, window=8)
        assert found and found[0].baseline == pytest.approx(1.0)

    def test_bad_threshold(self):
        with pytest.raises(ConfigError):
            detect_regressions([], {}, threshold=0.0)


class TestBenchStore:
    def test_append_and_reload(self, tmp_path):
        store = BenchStore(tmp_path)
        entry = store.append("monitor", {"epoch_s": 0.4, "note": "x",
                                         "accuracy": 0.9}, run_id="abc")
        assert entry["metrics"] == {"epoch_s": 0.4, "accuracy": 0.9}
        assert entry["run_id"] == "abc"
        assert entry["fingerprint"] == machine_fingerprint(machine_info())
        entries = store.entries("monitor")
        assert len(entries) == 1
        data = json.loads((tmp_path / "BENCH_monitor.json").read_text())
        assert data["name"] == "monitor"

    def test_append_accumulates(self, tmp_path):
        store = BenchStore(tmp_path)
        store.append("monitor", {"epoch_s": 0.4})
        store.append("monitor", {"epoch_s": 0.5})
        assert [e["metrics"]["epoch_s"] for e in store.entries("monitor")] == [0.4, 0.5]

    def test_no_numeric_metrics_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            BenchStore(tmp_path).append("monitor", {"note": "strings only"})

    def test_name_validation(self, tmp_path):
        store = BenchStore(tmp_path)
        with pytest.raises(ConfigError):
            store.path("../evil")
        with pytest.raises(ConfigError):
            store.path("")

    def test_names_listing(self, tmp_path):
        store = BenchStore(tmp_path)
        store.append("monitor", {"a": 1.0})
        store.append("kernels", {"b": 2.0})
        assert store.names() == ["kernels", "monitor"]
        assert BenchStore(tmp_path / "missing").names() == []

    def test_check_flags_regression_on_this_machine(self, tmp_path):
        store = BenchStore(tmp_path)
        for value in (1.0, 1.0, 1.0):
            store.append("monitor", {"epoch_s": value})
        assert store.check("monitor", {"epoch_s": 1.05}) == []
        found = store.check("monitor", {"epoch_s": 1.5})
        assert len(found) == 1 and found[0].metric == "epoch_s"


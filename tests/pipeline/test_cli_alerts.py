"""CLI observability commands: alert replay and manifest metrics through
``repro analyze``, ``repro info``."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.monitor.core import PROBE_EVENT
from repro.pipeline.results_io import save_result
from repro.telemetry.events import RunManifest
from repro.telemetry.metrics import MetricsRegistry, default_registry


@pytest.fixture(autouse=True)
def _clean_state():
    yield
    default_registry().clear()


def _write_timeseries(path, corr_values):
    with open(path, "w", encoding="utf-8") as handle:
        for epoch, corr in enumerate(corr_values):
            handle.write(json.dumps({
                "event": PROBE_EVENT, "probe": "correlation",
                "scope": "epoch", "epoch": epoch,
                "corr_abs_mean": corr,
            }) + "\n")


class TestParser:
    def test_alerts_defaults(self):
        args = build_parser().parse_args(["analyze", "run.jsonl"])
        assert args.command == "analyze"
        assert args.path == "run.jsonl"
        assert args.other is None
        assert args.corr_above == 0.25
        assert args.psnr_window == 3

    def test_alerts_overrides(self):
        args = build_parser().parse_args(
            ["analyze", "ts.jsonl", "--corr-above", "0.5", "--psnr-window", "5"])
        assert args.corr_above == 0.5
        assert args.psnr_window == 5

    def test_monitor_alerts_flag(self):
        args = build_parser().parse_args(["monitor", "--alerts"])
        assert args.alerts is True


class TestAlertsReplay:
    def test_malicious_timeseries_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "malicious.jsonl"
        _write_timeseries(path, [0.1, 0.3, 0.5, 0.6])
        code = main(["analyze", str(path)])
        assert code == 1
        out = capsys.readouterr().out
        assert "corr_abs_mean" in out  # the probe table comes first
        assert "correlation_leak" in out
        assert "critical" in out

    def test_benign_timeseries_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "benign.jsonl"
        _write_timeseries(path, [0.05, 0.06, 0.05, 0.07])
        code = main(["analyze", str(path)])
        assert code == 0
        assert "no alerts over 4 records" in capsys.readouterr().out

    def test_threshold_is_tunable(self, tmp_path):
        path = tmp_path / "ts.jsonl"
        _write_timeseries(path, [0.1, 0.3])
        assert main(["analyze", str(path), "--corr-above", "0.9"]) == 0

    def test_missing_file_errors_cleanly(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["analyze", str(tmp_path / "absent.jsonl")])
        assert "repro analyze" in str(excinfo.value)
        assert "cannot read" in str(excinfo.value)

    def test_diff_exits_nonzero_when_either_run_alerts(self, tmp_path,
                                                       capsys):
        mal, ben = tmp_path / "mal.jsonl", tmp_path / "ben.jsonl"
        _write_timeseries(mal, [0.1, 0.3, 0.5, 0.6])
        _write_timeseries(ben, [0.05, 0.06, 0.05, 0.07])
        assert main(["analyze", str(mal), str(ben)]) == 1
        out = capsys.readouterr().out
        assert f"monitor diff: {mal} vs {ben}" in out
        assert "correlation_leak" in out
        assert f"alerts: {ben}: no alerts over 4 records" in out

    def test_diff_needs_two_timeseries(self, tmp_path):
        ts = tmp_path / "ts.jsonl"
        _write_timeseries(ts, [0.1])
        trace = tmp_path / "t.json"
        trace.write_text('{"traceEvents": []}')
        with pytest.raises(SystemExit, match="only two monitor timeseries"):
            main(["analyze", str(ts), str(trace)])

    def test_bad_record_is_a_structured_error(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        _write_timeseries(path, [0.1])
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("[1, 2]\n")
        with pytest.raises(SystemExit, match="bad.jsonl:2: record is not"):
            main(["analyze", str(path)])
        _write_timeseries(path, ["high"])
        with pytest.raises(SystemExit, match="malformed .*timeseries record"):
            main(["analyze", str(path)])


class TestInfo:
    def test_consolidated_table(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "repro info" in out
        for key in ("backend", "dtype", "workers", "metrics"):
            assert key in out
        assert "exporter" not in out


def _row(text, metric):
    """The value cell of ``metric``'s row in a rendered metrics table."""
    for line in text.splitlines():
        name, _, value = line.partition("|")
        if name.strip() == metric:
            return value.strip()
    raise AssertionError(f"no {metric!r} row in:\n{text}")


class TestAnalyzeMetrics:
    def test_attack_manifest_prints_its_registry_snapshot(self, tmp_path,
                                                          capsys):
        out = tmp_path / "r.json"
        assert main(["attack", "--dataset", "digits", "--epochs", "1",
                     "--bits", "3", "--rate", "20", "--batch-size", "64",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        manifest = tmp_path / "r.manifest.json"
        telemetry = json.loads(manifest.read_text())["telemetry"]
        assert main(["analyze", str(manifest)]) == 0
        text = capsys.readouterr().out
        assert text.startswith("run ")
        assert f"metrics: {manifest}" in text
        training = _row(text, "attack.training_s")
        assert "count=1" in training and "p50=" in training
        assert "p99=" in training
        for name, value in telemetry.items():
            cell = _row(text, name)
            if isinstance(value, dict):
                assert f"count={value['count']}" in cell
            else:
                assert cell

    def test_manifest_prints_pool_liveness_metrics(self, tmp_path, capsys):
        registry = MetricsRegistry()
        registry.gauge("pool.workers_alive").set(4.0)
        registry.counter("pool.worker_crashes").inc(1)
        manifest = RunManifest.create(seed=1, telemetry=registry.snapshot())
        save_result({}, tmp_path / "pool.json", manifest=manifest)
        assert main(["analyze", str(tmp_path / "pool.manifest.json")]) == 0
        text = capsys.readouterr().out
        assert _row(text, "pool.workers_alive") == "4"
        assert _row(text, "pool.worker_crashes") == "1"

    def test_manifest_with_a_metrics_endpoint_still_renders(self, tmp_path,
                                                            capsys):
        registry = MetricsRegistry()
        registry.histogram("trainer.epoch_s").observe(1.5)
        manifest = tmp_path / "old.manifest.json"
        manifest.write_text(json.dumps({
            "run_id": "r0", "seed": 7, "telemetry": registry.snapshot(),
            "extra": {"metrics_endpoint": "http://127.0.0.1:9109"}}))
        assert main(["analyze", str(manifest)]) == 0
        text = capsys.readouterr().out
        assert "run r0" in text
        assert "count=1" in _row(text, "trainer.epoch_s")

    def test_empty_telemetry_prints_no_metrics_table(self, tmp_path, capsys):
        # the shape ``repro serve --manifest-out`` writes
        manifest = RunManifest.create(seed=0, telemetry={}, artifacts=["m"],
                                      trace_out=None, flight_dir=None,
                                      slo_ms=None)
        save_result({"command": "serve", "run_id": manifest.run_id},
                    tmp_path / "serve.json", manifest=manifest)
        path = tmp_path / "serve.manifest.json"
        assert main(["analyze", str(path)]) == 0
        text = capsys.readouterr().out
        assert text == f"run {manifest.run_id}  ({path})\n"

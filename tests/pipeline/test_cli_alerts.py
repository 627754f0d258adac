"""CLI observability commands: alert replay through ``repro analyze``,
``repro info``, ``--serve-metrics``."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.monitor.core import PROBE_EVENT
from repro.telemetry.export import active_exporter, reset_health, stop_exporter
from repro.telemetry.metrics import default_registry


@pytest.fixture(autouse=True)
def _clean_state():
    yield
    stop_exporter()
    reset_health()
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

    def test_serve_metrics_global_flag(self):
        args = build_parser().parse_args(["--serve-metrics", "9109", "info"])
        assert args.serve_metrics == 9109
        assert build_parser().parse_args(["info"]).serve_metrics is None

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
        for key in ("backend", "dtype", "workers", "exporter", "metrics"):
            assert key in out
        assert "not running (--serve-metrics PORT)" in out

    def test_bench_rows(self, tmp_path, capsys):
        from repro.monitor import BenchStore

        BenchStore(tmp_path).append("smoke", {"epoch_s": 1.25}, run_id="r1")
        assert main(["info", "--bench-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "bench:smoke" in out
        assert "1 entries" in out
        assert "epoch_s=1.25" in out


class TestServeMetrics:
    def test_serve_metrics_runs_and_stops_with_command(self, capsys):
        assert main(["--serve-metrics", "0", "info"]) == 0
        captured = capsys.readouterr()
        assert "metrics exporter serving" in captured.err
        assert "serving http://" in captured.out  # info table sees it live
        assert active_exporter() is None  # stopped on the way out

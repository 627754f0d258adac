"""Timeseries rendering: run tables, diffs, parse errors."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.monitor import compare_runs, load_timeseries, render_run, series
from repro.monitor.report import error_counts, fields_by_probe, probe_ticks


def _record(probe, epoch, **fields):
    return {"probe": probe, "scope": "epoch", "epoch": epoch, "batch": None,
            **fields}


RUN_A = [
    _record("correlation", 0, corr_abs_mean=0.1),
    _record("correlation", 1, corr_abs_mean=0.3),
    _record("correlation", 2, corr_abs_mean=0.6),
    _record("decode", 0, psnr_mean=12.0),
    _record("decode", 2, psnr_mean=18.0),
    {"probe_error": True, "probe": "decode", "scope": "epoch", "epoch": 1,
     "batch": None, "error": "ValueError('x')", "disabled": False},
]

RUN_B = [
    _record("correlation", 0, corr_abs_mean=0.02),
    _record("correlation", 2, corr_abs_mean=0.03),
]


class TestQueries:
    def test_probe_ticks_sorted_and_filtered(self):
        shuffled = [RUN_A[2], RUN_A[0], RUN_A[5], RUN_A[1]]
        ticks = probe_ticks(shuffled)
        assert [t["epoch"] for t in ticks] == [0, 1, 2]

    def test_series_extracts_one_field(self):
        epochs, values = series(RUN_A, "corr_abs_mean", probe="correlation")
        assert epochs == [0, 1, 2]
        assert values == [0.1, 0.3, 0.6]

    def test_fields_by_probe_ignores_meta(self):
        table = fields_by_probe(RUN_A)
        assert table == {"correlation": ["corr_abs_mean"],
                         "decode": ["psnr_mean"]}

    def test_error_counts(self):
        assert error_counts(RUN_A) == {"decode": 1}


class TestRenderRun:
    def test_contains_fields_and_sparkline(self):
        out = render_run(RUN_A, title="my run")
        assert "my run" in out
        assert "corr_abs_mean" in out
        assert "psnr_mean" in out
        assert any(tick in out for tick in "▁▂▃▄▅▆▇█")

    def test_error_footer(self):
        out = render_run(RUN_A)
        assert "probe errors: decode x1" in out

    def test_no_errors_no_footer(self):
        assert "probe errors" not in render_run(RUN_B)


class TestCompareRuns:
    def test_aligns_final_values(self):
        out = compare_runs(RUN_A, RUN_B, labels=("malicious", "benign"))
        assert "malicious" in out and "benign" in out
        assert "0.6" in out and "0.03" in out
        # field present only in run A still renders
        assert "psnr_mean" in out


class TestLoadTimeseries:
    def test_ignores_unrelated_events(self, tmp_path):
        path = tmp_path / "ts.jsonl"
        path.write_text(
            '{"event": "monitor.probe", "probe": "p", "scope": "epoch", '
            '"epoch": 0, "x": 1.0}\n'
            '{"event": "cli.start", "command": "attack"}\n'
            "\n"
            '{"event": "monitor.probe_error", "probe": "p", "scope": "epoch", '
            '"epoch": 1, "error": "boom"}\n'
        )
        records = load_timeseries(str(path))
        assert len(records) == 2
        assert records[1]["probe_error"] is True

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"event": "monitor.probe"}\nnot json\n')
        with pytest.raises(ConfigError, match="bad.jsonl:2"):
            load_timeseries(str(path))

    def test_non_object_record_reports_number(self, tmp_path):
        path = tmp_path / "list.jsonl"
        path.write_text('{"event": "monitor.probe"}\n[1, 2]\n')
        with pytest.raises(ConfigError, match="list.jsonl:2: record is not "
                                              "a JSON object"):
            load_timeseries(str(path))

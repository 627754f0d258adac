"""repro analyze: the request view, tail attribution, rendering, CLI."""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.errors import ConfigError, ServeError
from repro.models.registry import build_model
from repro.pipeline.results_io import load_manifest
from repro.serve import save_artifact
from repro.serve.analyze import (
    RequestRecord,
    analyze_requests,
    render_analysis,
    request_records,
)
from repro.serve.tracing import RequestTracer
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.trace import TraceRecorder, attribute, read_trace


def record(rid, latency, admission=0.5, queue=2.0, infer=5.0,
           model="m", outcome="ok", batch=4):
    batch_ms = latency - admission - queue
    return RequestRecord(
        request_id=rid, model=model, outcome=outcome, batch_size=batch,
        latency_ms=latency, admission_ms=admission, queue_ms=queue,
        batch_ms=batch_ms, infer_ms=infer)


class FakeClock:
    def __init__(self, start=50.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def drive_tracer(tracer, n=4):
    """Run n requests with latencies 10, 20, 30, ... ms through a tracer."""
    for index in range(n):
        ctx = tracer.admit(f"r{index}", "m")
        ctx.input_shape = (1, 3, 8, 8)
        tracer.clock.advance(0.001)
        ctx.t_submit = tracer.clock()
        tracer.clock.advance(0.002)
        ctx.t_dispatch, ctx.batch_size = tracer.clock(), 2
        tracer.clock.advance(0.010 * (index + 1) - 0.003)
        ctx.ok, ctx.shard, ctx.infer_s = True, 0, 0.004 * (index + 1)
        tracer.finish(ctx)


class TestAnalyzeRequests:
    def test_stage_means_sum_to_e2e_mean(self):
        records = [record(f"r{i}", 10.0 + 5 * i) for i in range(10)]
        report = analyze_requests(records)
        stages = report["stages"]
        tiling = stages["admission_ms"]["mean"] + \
            stages["queue_ms"]["mean"] + stages["batch_ms"]["mean"]
        assert tiling == pytest.approx(stages["e2e"]["mean"])

    def test_slowest_are_sorted_and_capped(self):
        records = [record(f"r{i}", float(i)) for i in range(20)]
        report = analyze_requests(records, top=3)
        assert [r.request_id for r in report["slowest"]] == \
            ["r19", "r18", "r17"]
        assert analyze_requests(records, top=0)["slowest"] == []

    def test_split_queue_wait_vs_compute(self):
        records = [record("a", 10.0, admission=1.0, queue=3.0, infer=4.0)]
        split = analyze_requests(records)["split"]
        assert split["total_ms"] == 10.0
        assert split["queue_wait_ms"] == 4.0
        assert split["compute_ms"] == 4.0
        assert split["other_ms"] == pytest.approx(2.0)
        assert split["queue_wait_frac"] == pytest.approx(0.4)

    def test_per_model_rows_and_outcome_tally(self):
        records = [record("a", 10.0, model="fast"),
                   record("b", 90.0, model="slow"),
                   record("c", 5.0, model="fast", outcome="refused")]
        report = analyze_requests(records)
        assert report["models"]["fast"]["count"] == 2
        assert report["models"]["slow"]["mean"] == 90.0
        assert report["outcomes"] == {"ok": 2, "refused": 1}

    def test_missing_stages_are_skipped_not_zeroed(self):
        refused = RequestRecord("r", outcome="refused", latency_ms=1.0,
                                admission_ms=1.0)
        report = analyze_requests([refused, record("a", 10.0)])
        assert report["stages"]["queue_ms"]["count"] == 1
        assert report["stages"]["e2e"]["count"] == 2

    def test_empty_records_raise(self):
        with pytest.raises(ServeError):
            analyze_requests([])


class TestRender:
    def test_tables_and_headline(self):
        records = [record(f"r{i}", 10.0 + i) for i in range(6)]
        text = render_analysis(analyze_requests(records), source="x.jsonl")
        assert "request analysis: 6 requests  (x.jsonl)" in text
        assert "latency by stage (ms):" in text
        assert "top 5 slowest requests (ms):" in text
        assert "latency by artifact (ms):" in text
        assert "outcomes: ok=6" in text

    def test_missing_stage_renders_as_dash(self):
        refused = RequestRecord("r0", outcome="refused", latency_ms=1.0)
        text = render_analysis(analyze_requests([refused]))
        slow_line = [l for l in text.splitlines() if l.startswith("r0")][0]
        assert " - " in slow_line


class TestLoaders:
    """Live traces and flight dumps go through the one loader,
    read_trace, then request_records."""

    def test_flight_dump_roundtrip(self, tmp_path):
        tracer = RequestTracer(clock=FakeClock(),
                               registry=MetricsRegistry())
        drive_tracer(tracer, n=3)
        path = tmp_path / "dump.json"
        tracer.flight.dump(path, reason="test")
        records = request_records(read_trace(path))
        assert [r.request_id for r in records] == ["r0", "r1", "r2"]
        assert records[0].latency_ms == pytest.approx(10.0, abs=0.01)
        assert records[0].ok
        tiling = records[0].admission_ms + records[0].queue_ms + \
            records[0].batch_ms
        assert tiling == pytest.approx(records[0].latency_ms, abs=0.01)

    def test_chrome_trace_roundtrip(self, tmp_path):
        recorder = TraceRecorder()
        tracer = RequestTracer(recorder=recorder, clock=FakeClock(),
                               registry=MetricsRegistry())
        drive_tracer(tracer, n=3)
        path = tmp_path / "trace.json"
        recorder.to_chrome_trace(path)
        records = request_records(read_trace(path))
        assert len(records) == 3
        by_id = {r.request_id: r for r in records}
        assert by_id["r1"].latency_ms == pytest.approx(20.0, abs=0.01)
        assert by_id["r1"].queue_ms == pytest.approx(2.0, abs=0.01)
        assert by_id["r1"].model == "m" and by_id["r1"].outcome == "ok"

    def test_flight_stats_equal_trace_stats(self, tmp_path):
        recorder = TraceRecorder()
        tracer = RequestTracer(recorder=recorder, clock=FakeClock(),
                               registry=MetricsRegistry())
        drive_tracer(tracer, n=2)
        flight, chrome = tmp_path / "f.json", tmp_path / "t.json"
        tracer.flight.dump(flight, reason="test")
        recorder.to_chrome_trace(chrome)
        from_flight = request_records(read_trace(flight))
        from_trace = request_records(read_trace(chrome))
        assert len(from_flight) == len(from_trace) == 2
        # one emitter builds both, so the numbers agree exactly
        report_a = analyze_requests(from_flight)
        report_b = analyze_requests(from_trace)
        assert report_a["stages"] == report_b["stages"]
        assert report_a["split"] == report_b["split"]
        assert from_flight == from_trace

    def test_request_trees_stay_out_of_the_lanes(self, tmp_path):
        tracer = RequestTracer(clock=FakeClock(),
                               registry=MetricsRegistry())
        drive_tracer(tracer, n=3)
        path = tmp_path / "dump.json"
        tracer.flight.dump(path, reason="test")
        assert attribute(read_trace(path)) == []

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("")
        with pytest.raises(ConfigError, match="not a Chrome trace"):
            read_trace(path)

    def test_bad_flight_header_raises(self, tmp_path):
        # the JSONL flight format of older versions is not a Chrome trace
        path = tmp_path / "old.jsonl"
        path.write_text('{"flight": "repro-flight-v1"}\n'
                        '{"request_id": "r0", "latency_ms": 1.0}\n')
        with pytest.raises(ConfigError, match="not a Chrome trace"):
            read_trace(path)

    def test_bad_record_line_raises_with_location(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"traceEvents": []}\n{not json\n')
        with pytest.raises(ConfigError, match="line 2"):
            read_trace(path)

    def test_non_json_chrome_trace_raises(self, tmp_path):
        path = tmp_path / "trace.json"
        path.write_text("<html>")
        with pytest.raises(ConfigError, match="not a Chrome trace"):
            read_trace(path)

    def test_json_without_events_raises(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"records": []}')
        with pytest.raises(ConfigError, match="no traceEvents"):
            read_trace(path)

    def test_non_object_event_raises_with_index(self, tmp_path):
        path = tmp_path / "ints.json"
        path.write_text('{"traceEvents": [{"ph": "M"}, 3]}')
        with pytest.raises(ConfigError,
                           match=r"traceEvents\[1\] is not a JSON object"):
            read_trace(path)


class TestCli:
    def test_analyze_flight_dump(self, tmp_path, capsys):
        tracer = RequestTracer(clock=FakeClock(),
                               registry=MetricsRegistry())
        drive_tracer(tracer, n=4)
        path = tmp_path / "dump.json"
        tracer.flight.dump(path, reason="test")
        assert main(["analyze", str(path), "--top", "2"]) == 0
        out = capsys.readouterr().out
        assert "request analysis: 4 requests" in out
        assert "top 2 slowest requests" in out
        assert "self time" not in out  # a dump holds only request trees

    def test_analyze_missing_file_exits(self):
        with pytest.raises(SystemExit, match="repro analyze"):
            main(["analyze", "/nonexistent/nowhere.json"])

    def test_analyze_old_flight_jsonl_is_a_structured_error(self, tmp_path):
        path = tmp_path / "flight-001-shard_crash.jsonl"
        path.write_text('{"flight": "repro-flight-v1", "records": 1}\n'
                        '{"request_id": "r0", "latency_ms": 1.0}\n')
        with pytest.raises(SystemExit,
                           match="repro analyze: .*not a Chrome trace"):
            main(["analyze", str(path)])

    def test_loadgen_writes_trace_and_manifest(self, tmp_path, capsys):
        kwargs = dict(num_classes=4, in_channels=3, width=4)
        artifact = tmp_path / "released"
        model = build_model("resnet8_tiny", rng=np.random.default_rng(5),
                            **kwargs)
        save_artifact(model, artifact, "resnet8_tiny", model_kwargs=kwargs,
                      input_shape=(3, 8, 8), seed=5)
        trace_out = tmp_path / "serve.trace.json"
        out = tmp_path / "report.json"
        rc = main(["--trace-out", str(trace_out),
                   "loadgen", f"m={artifact}", "--requests", "12",
                   "--rate", "400", "--time-scale", "1.0",
                   "--out", str(out)])
        capsys.readouterr()
        assert rc == 0
        # the chrome trace analyzes end to end: requests and lanes
        records = request_records(read_trace(trace_out))
        assert len(records) == 12
        assert all(r.outcome == "ok" for r in records)
        assert main(["analyze", str(trace_out)]) == 0
        text = capsys.readouterr().out
        assert "request analysis: 12 requests" in text
        assert "repro main (pid" in text and "self time" in text
        # the manifest pins the observability surface of the run
        manifest = load_manifest(out)
        assert manifest.extra["trace_out"] == str(trace_out)
        assert manifest.extra["requests"] == 12
        assert "slo_ms" in manifest.extra
        report = json.loads(out.read_text())
        assert report["completed"] == 12

"""Span tracing: nesting, recorder queries, JSONL + Chrome-trace export."""

import json
import time

from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.trace import (
    TraceRecorder,
    get_recorder,
    recording,
    set_recorder,
    span,
    timed_stage,
)


class TestDisabledFastPath:
    def test_span_without_recorder_is_noop(self):
        assert get_recorder() is None
        with span("nothing", attr=1) as s:
            assert s is None

    def test_noop_object_is_shared(self):
        assert span("a") is span("b")


class TestRecording:
    def test_records_span_with_attrs(self):
        with recording() as recorder:
            with span("work", phase="test"):
                pass
        assert len(recorder) == 1
        record = recorder.spans[0]
        assert record.name == "work"
        assert record.attrs == {"phase": "test"}
        assert record.duration >= 0.0

    def test_nesting_depths(self):
        with recording() as recorder:
            with span("outer"):
                with span("inner"):
                    pass
                with span("inner"):
                    pass
        by_name = {s.name: s for s in recorder.spans}
        assert by_name["outer"].depth == 0
        assert by_name["inner"].depth == 1
        assert len(recorder.roots()) == 1
        # inner spans complete (and are appended) before outer
        assert [s.name for s in recorder.spans] == ["inner", "inner", "outer"]

    def test_inner_spans_within_outer_interval(self):
        with recording() as recorder:
            with span("outer"):
                with span("inner"):
                    time.sleep(0.001)
        inner = recorder.by_name("inner")[0]
        outer = recorder.by_name("outer")[0]
        assert outer.start <= inner.start
        assert inner.end <= outer.end + 1e-9
        assert recorder.total_time("inner") <= recorder.total_time("outer")

    def test_recording_restores_previous_recorder(self):
        outer_recorder = TraceRecorder()
        set_recorder(outer_recorder)
        try:
            with recording():
                assert get_recorder() is not outer_recorder
            assert get_recorder() is outer_recorder
        finally:
            set_recorder(None)

    def test_exception_still_records_span(self):
        try:
            with recording() as recorder:
                with span("boom"):
                    raise ValueError("x")
        except ValueError:
            pass
        assert len(recorder.by_name("boom")) == 1


class TestExport:
    def make_recorder(self):
        with recording() as recorder:
            with span("a", k="v"):
                with span("b"):
                    pass
        return recorder

    def test_jsonl_roundtrip(self, tmp_path):
        recorder = self.make_recorder()
        path = tmp_path / "trace.jsonl"
        recorder.to_jsonl(path)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(lines) == 2
        assert {line["name"] for line in lines} == {"a", "b"}
        assert all("duration" in line and "depth" in line for line in lines)

    def test_chrome_trace_structure(self):
        trace = self.make_recorder().chrome_trace()
        events = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert len(events) == 2
        for event in events:
            assert event["ts"] >= 0.0
            assert event["dur"] >= 0.0
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
        named = {e["name"]: e for e in events}
        assert named["a"]["args"] == {"k": "v"}

    def test_chrome_trace_metadata_lanes(self):
        trace = self.make_recorder().chrome_trace()
        meta = [e for e in trace["traceEvents"] if e["ph"] == "M"]
        names = {e["name"] for e in meta}
        assert {"process_name", "process_sort_index", "thread_name"} <= names
        proc = next(e for e in meta if e["name"] == "process_name")
        assert proc["args"]["name"] == "repro main"

    def test_chrome_trace_file_is_valid_json(self, tmp_path):
        path = tmp_path / "trace.json"
        self.make_recorder().to_chrome_trace(path)
        loaded = json.loads(path.read_text())
        assert "traceEvents" in loaded


class TestTimedStage:
    def test_updates_timer_and_span(self):
        registry = MetricsRegistry()
        with recording() as recorder:
            with timed_stage("stage.x", registry=registry, tag="t"):
                pass
        assert registry.histogram("stage.x_s").count == 1
        assert len(recorder.by_name("stage.x")) == 1

    def test_timer_updates_even_without_recorder(self):
        registry = MetricsRegistry()
        with timed_stage("stage.y", registry=registry):
            pass
        assert registry.histogram("stage.y_s").count == 1


class TestExceptionUnwind:
    def test_nested_spans_unwind_through_exception(self):
        """A raise deep inside a span stack closes every level, and the
        next span opens back at depth 0 (the stack fully unwound)."""
        with recording() as recorder:
            try:
                with span("outer"):
                    with span("middle"):
                        with span("inner"):
                            raise RuntimeError("deep failure")
            except RuntimeError:
                pass
            with span("after"):
                pass
        by_name = {s.name: s for s in recorder.spans}
        assert set(by_name) == {"outer", "middle", "inner", "after"}
        assert by_name["inner"].depth == 2
        assert by_name["middle"].depth == 1
        assert by_name["outer"].depth == 0
        assert by_name["after"].depth == 0
        # every span closed: end times are set and nested intervals hold
        assert by_name["inner"].end <= by_name["middle"].end + 1e-9
        assert by_name["middle"].end <= by_name["outer"].end + 1e-9

"""Distributed tracing: worker spans merge into one multi-lane trace.

The acceptance shape from the issue: a fixed-seed ``parallel=4`` sweep
must produce a *single* Chrome-trace file containing spans from all 4
worker processes on distinct pid lanes, with >= 90% of the sweep's
wall-clock covered by named spans.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.parallel.pool import Task, WorkerPool
from repro.pipeline.sweep import Sweep
from repro.telemetry.metrics import default_registry
from repro.telemetry.trace import (
    TraceContext,
    TraceRecorder,
    current_trace_context,
    recording,
    span,
    worker_recorder,
)

pytestmark = pytest.mark.skipif(
    "fork" not in __import__("multiprocessing").get_all_start_methods(),
    reason="pooled tracing tests need the fork start method",
)


@pytest.fixture(autouse=True)
def _clean_registry():
    yield
    default_registry().clear()


def _traced_point(i: int, rng=None) -> dict:
    with span("point.work", i=i):
        time.sleep(0.05)
    return {"i": i, "pid": os.getpid()}


def _plain_task(i: int) -> int:
    time.sleep(0.01)
    return i


class TestContextPlumbing:
    def test_no_recorder_means_no_context(self):
        assert current_trace_context() is None

    def test_context_carries_open_span_id(self):
        with recording() as recorder:
            assert recorder.context().parent_span_id == 0
            with span("outer"):
                ctx = current_trace_context()
                assert ctx is not None
                assert ctx.trace_id == recorder.trace_id
                assert ctx.parent_span_id != 0

    def test_worker_recorder_aligns_origin(self):
        parent = TraceRecorder()
        ctx = parent.context()
        child = worker_recorder(ctx)
        assert child.trace_id == parent.trace_id
        # the two clocks agree to well under a second
        assert abs(child._origin - parent._origin) < 0.5

    def test_worker_root_spans_parent_onto_context(self):
        parent = TraceRecorder()
        with recording(parent):
            with span("dispatch"):
                ctx = current_trace_context()
        child = worker_recorder(ctx)
        with recording(child):
            with span("task"):
                pass
        record = child.spans[0]
        assert record.parent_id == ctx.parent_span_id
        # worker ids live in a per-pid block, disjoint from parent ids
        assert record.span_id >= 1_000_000

    def test_worker_recorder_reuse_keeps_ids_counting(self):
        parent = TraceRecorder()
        with recording(parent):
            with span("batch 1"):
                first = current_trace_context()
            with span("batch 2"):
                second = current_trace_context()
        child = worker_recorder(first)
        with recording(child):
            with span("unit 1"):
                pass
        assert worker_recorder(second, reuse=child) is child
        with recording(child):
            with span("unit 2"):
                pass
        one, two = child.spans
        assert (one.parent_id, two.parent_id) == (
            first.parent_span_id, second.parent_span_id)
        assert two.span_id == one.span_id + 1
        # another trace gets a fresh recorder
        other = worker_recorder(TraceRecorder().context(), reuse=child)
        assert other is not child


class TestPoolShipsSpans:
    def test_outcomes_carry_worker_spans(self):
        with recording() as recorder:
            pool = WorkerPool(max_workers=2)
            outcomes = pool.run([Task(_traced_point, (i,)) for i in range(4)])
        assert all(o.ok for o in outcomes)
        for outcome in outcomes:
            names = {s["name"] for s in outcome.spans}
            assert "pool.task" in names
            assert "point.work" in names
        # every worker span was merged into the parent recorder
        merged = [s for s in recorder.spans if s.name == "point.work"]
        assert len(merged) == 4
        worker_pids = {s.pid for s in merged}
        assert os.getpid() not in worker_pids

    def test_no_recorder_ships_no_spans(self):
        pool = WorkerPool(max_workers=2)
        outcomes = pool.run([Task(_plain_task, (i,)) for i in range(2)])
        assert all(o.ok for o in outcomes)
        assert all(o.spans == [] for o in outcomes)

    def test_serial_fallback_records_directly(self):
        with recording() as recorder:
            pool = WorkerPool(max_workers=1)
            outcomes = pool.run([Task(_traced_point, (i,)) for i in range(2)])
        assert all(o.ok for o in outcomes)
        assert all(o.spans == [] for o in outcomes)  # nothing shipped...
        # ...because the spans landed in the parent recorder in-process
        assert len(recorder.by_name("point.work")) == 2


class TestSweepAcceptance:
    def test_parallel_sweep_renders_single_multilane_trace(self, tmp_path):
        grid = {"i": [0, 1, 2, 3]}
        sweep = Sweep(grid, _traced_point)
        with recording() as recorder:
            wall_start = time.perf_counter()
            result = sweep.run(parallel=4, seed=123)
            wall = time.perf_counter() - wall_start
        assert len(result.ok()) == 4
        worker_pids = {record["pid"] for record in result.records}
        assert len(worker_pids) == 4  # 4 points on 4 workers: one fork each

        # one root sweep span covering >= 90% of the sweep wall-clock
        roots = recorder.by_name("sweep")
        assert len(roots) == 1
        assert roots[0].duration >= 0.9 * wall

        # spans from all 4 workers, each on its own pid lane
        point_spans = [s for s in recorder.spans if s.name == "point.work"]
        assert {s.pid for s in point_spans} == worker_pids

        # single valid chrome-trace file with all lanes + metadata
        path = tmp_path / "sweep.trace.json"
        recorder.to_chrome_trace(path)
        data = json.loads(path.read_text())
        events = data["traceEvents"]
        x_pids = {e["pid"] for e in events if e["ph"] == "X"}
        assert x_pids == worker_pids | {os.getpid()}
        labels = {e["pid"]: e["args"]["name"] for e in events
                  if e["ph"] == "M" and e["name"] == "process_name"}
        assert labels[os.getpid()] == "repro main"
        for pid in worker_pids:
            assert labels[pid] == f"worker pid={pid}"
        # worker point spans nest inside the parent sweep interval
        root = roots[0]
        for s in point_spans:
            assert s.start >= root.start - 0.05
            assert s.end <= root.end + 0.05

    def test_trace_id_is_shared_across_processes(self):
        with recording() as recorder:
            pool = WorkerPool(max_workers=2)
            pool.run([Task(_traced_point, (i,)) for i in range(2)])
        trace = recorder.chrome_trace()
        assert trace["otherData"]["trace_id"] == recorder.trace_id

"""Per-request records: span trees, lanes, stage histograms, flight ring.

Unit tests drive :class:`RequestTracer` with a fake clock so every
timestamp assertion is exact; the end-to-end tests run a real
:class:`ModelServer` (serial shard execution) under ``recording()`` and
check the acceptance-level guarantees -- every sampled request's wall
time is covered by its stage children, crash/alert events dump the
flight ring as a Chrome trace, and each shard's batches reach the trace
on their own lane with kernel rows.
"""

import asyncio
import multiprocessing
import os
import time

import numpy as np
import pytest

from repro.errors import ServeError
from repro.models.registry import build_model
from repro.parallel.shards import ShardPool
from repro.serve import ModelServer, ServeConfig, save_artifact
from repro.serve.analyze import request_records
from repro.serve.tracing import (
    LANE_TID_BASE,
    REQUEST_SPAN,
    FlightRecorder,
    RequestContext,
    RequestTracer,
)
from repro.telemetry.metrics import MetricsRegistry, default_registry
from repro.telemetry.trace import (
    TraceRecorder,
    attribute,
    read_trace,
    recording,
)

KW = dict(num_classes=4, in_channels=3, width=4)
SHAPE = (3, 8, 8)
HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()


class FakeClock:
    def __init__(self, start=100.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt
        return self.now


def make_tracer(recorder=None, **kwargs):
    kwargs.setdefault("registry", MetricsRegistry())
    kwargs.setdefault("clock", FakeClock())
    return RequestTracer(recorder=recorder, **kwargs)


def finish_one(tracer, rid="r0", gaps=(0.001, 0.004, 0.010)):
    """Admit -> submit -> dispatch -> finish with exact stage gaps."""
    clock = tracer.clock
    ctx = tracer.admit(rid, "m")
    ctx.input_shape = SHAPE
    ctx.t_submit = clock.advance(gaps[0])
    ctx.t_dispatch = clock.advance(gaps[1])
    ctx.batch_size = 3
    clock.advance(gaps[2])
    ctx.ok, ctx.infer_s = True, gaps[2] / 2
    tracer.finish(ctx)
    return ctx


class TestStageAccounting:
    def test_stages_tile_the_request_exactly(self):
        tracer = make_tracer()
        ctx = finish_one(tracer, gaps=(0.002, 0.005, 0.020))
        stages = ctx.stage_ms()
        assert stages["admission_ms"] == pytest.approx(2.0)
        assert stages["queue_ms"] == pytest.approx(5.0)
        assert stages["batch_ms"] == pytest.approx(20.0)
        assert stages["latency_ms"] == pytest.approx(27.0)
        tiling = stages["admission_ms"] + stages["queue_ms"] + \
            stages["batch_ms"]
        assert tiling == pytest.approx(stages["latency_ms"])

    def test_slo_histograms_observe_each_stage(self):
        registry = MetricsRegistry()
        tracer = make_tracer(registry=registry, slo_ms=10.0)
        finish_one(tracer, gaps=(0.001, 0.004, 0.020))
        assert registry.histogram("serve.latency_ms").count == 1
        assert registry.histogram("serve.latency_ms").breaches == 1  # 25 > 10
        assert registry.histogram("serve.latency_ms").slo == 10.0
        assert registry.histogram("serve.admission_ms").count == 1
        assert registry.histogram("serve.queue_ms").count == 1
        assert registry.histogram("serve.infer_ms").count == 1
        assert registry.histogram("serve.infer_ms").total == \
            pytest.approx(10.0)

    def test_later_tracer_gets_its_own_latency_target(self):
        # a second server in one process must not inherit the first
        # one's breach threshold from the shared registry
        registry = MetricsRegistry()
        make_tracer(registry=registry, slo_ms=10.0)
        tracer = make_tracer(registry=registry, slo_ms=500.0)
        latency = registry.histogram("serve.latency_ms")
        assert latency.slo == 500.0
        finish_one(tracer, gaps=(0.001, 0.004, 0.020))  # 25 ms
        assert latency.breaches == 0
        finish_one(make_tracer(registry=registry, slo_ms=10.0), rid="r1",
                   gaps=(0.001, 0.004, 0.020))
        assert (latency.slo, latency.breaches) == (10.0, 1)

    def test_admission_failure_has_no_queue_stage(self):
        tracer = make_tracer()
        ctx = tracer.admit("r0", "m")
        tracer.clock.advance(0.003)
        ctx.error_kind = "refused"
        tracer.finish(ctx)
        stages = ctx.stage_ms()
        assert "queue_ms" not in stages and "batch_ms" not in stages
        assert stages["latency_ms"] == pytest.approx(3.0)
        record = tracer.flight.records()[-1]
        assert record.outcome == "refused"
        assert tracer.registry.histogram("serve.admission_ms").count == 0


class TestSpanEmission:
    def test_span_tree_shape_and_parent_links(self):
        recorder = TraceRecorder()
        tracer = make_tracer(recorder=recorder)
        finish_one(tracer, rid="req-1")
        spans = {s.name: s for s in recorder.spans}
        assert set(spans) == {REQUEST_SPAN, "serve.request.admission",
                              "serve.request.queue", "serve.request.batch",
                              "serve.request.infer"}
        root = spans[REQUEST_SPAN]
        assert root.parent_id == 0 and root.depth == 0
        assert root.attrs["request_id"] == "req-1"
        assert root.attrs["outcome"] == "ok"
        for child in ("admission", "queue", "batch"):
            assert spans[f"serve.request.{child}"].parent_id == root.span_id
        assert spans["serve.request.infer"].parent_id == \
            spans["serve.request.batch"].span_id

    def test_children_are_contiguous_and_cover_the_root(self):
        recorder = TraceRecorder()
        tracer = make_tracer(recorder=recorder)
        finish_one(tracer, gaps=(0.002, 0.006, 0.030))
        spans = {s.name: s for s in recorder.spans}
        root = spans[REQUEST_SPAN]
        adm, queue, batch = (spans["serve.request.admission"],
                             spans["serve.request.queue"],
                             spans["serve.request.batch"])
        assert adm.start == pytest.approx(root.start)
        assert queue.start == pytest.approx(adm.end)
        assert batch.start == pytest.approx(queue.end)
        assert batch.end == pytest.approx(root.end)
        covered = adm.duration + queue.duration + batch.duration
        assert covered == pytest.approx(root.duration)
        infer = spans["serve.request.infer"]
        assert infer.start >= batch.start - 1e-9
        assert infer.end == pytest.approx(batch.end)

    def test_requests_land_on_labeled_lanes(self):
        recorder = TraceRecorder()
        tracer = make_tracer(recorder=recorder)
        # two overlapping requests -> two lanes; a third after both
        # finished reuses the lowest freed lane
        a = tracer.admit("a", "m")
        b = tracer.admit("b", "m")
        assert (a.lane, b.lane) == (0, 1)
        tracer.finish(a)
        tracer.finish(b)
        c = tracer.admit("c", "m")
        assert c.lane == 0
        tracer.finish(c)
        tids = {s.thread_id for s in recorder.spans}
        assert tids == {LANE_TID_BASE, LANE_TID_BASE + 1}
        meta = recorder.chrome_trace()["traceEvents"]
        names = {e["args"]["name"] for e in meta
                 if e.get("ph") == "M" and e["name"] == "thread_name"}
        assert "request lane 0" in names and "request lane 1" in names

    def test_no_recorder_skips_spans_keeps_slo_and_flight(self):
        tracer = make_tracer(recorder=None)
        ctx = finish_one(tracer)
        assert ctx.lane == -1
        assert tracer.registry.histogram("serve.latency_ms").count == 1
        assert len(tracer.flight) == 1

    def test_fake_clock_maps_onto_recorder_timeline(self):
        # the tracer's clock starts at 100.0 but spans must land near
        # the recorder's perf_counter-relative origin, not at t=100
        recorder = TraceRecorder()
        tracer = make_tracer(recorder=recorder)
        finish_one(tracer)
        root = [s for s in recorder.spans if s.name == REQUEST_SPAN][0]
        wall = time.perf_counter() - recorder._origin
        assert -1.0 <= root.start <= wall + 1.0


class TestFlightRecorder:
    def test_ring_keeps_only_last_n(self):
        flight = FlightRecorder(capacity=3)
        for index in range(7):
            flight.record(RequestContext(f"r{index}", "m"))
        ids = [ctx.request_id for ctx in flight.records()]
        assert ids == ["r4", "r5", "r6"]

    def test_capacity_validation(self):
        with pytest.raises(ServeError):
            FlightRecorder(capacity=0)

    def test_dump_writes_a_chrome_trace(self, tmp_path):
        flight = FlightRecorder(capacity=8)
        flight.record(RequestContext("a", "m", t_admit=1.0, t_done=1.0015,
                                     ok=True))
        path = tmp_path / "dump.json"
        count = flight.dump(path, reason="test", slo_ms=250.0)
        assert count == 1
        trace = read_trace(path)
        assert trace["otherData"]["reason"] == "test"
        assert trace["otherData"]["requests"] == 1
        assert trace["otherData"]["slo_ms"] == 250.0
        [record] = request_records(trace)
        assert record.request_id == "a"
        assert record.latency_ms == pytest.approx(1.5)

    def test_dump_flight_latches_per_reason(self, tmp_path):
        registry = MetricsRegistry()
        tracer = make_tracer(flight_dir=str(tmp_path), registry=registry)
        finish_one(tracer)
        first = tracer.dump_flight("shard_crash")
        assert first is not None and os.path.exists(first)
        assert tracer.dump_flight("shard_crash") is None  # latched
        other = tracer.dump_flight("alert_latency_slo")
        assert other is not None and other != first
        assert registry.counter("serve.flight_dumps").value == 2.0

    def test_dump_flight_without_dir_or_records_is_none(self, tmp_path):
        tracer = make_tracer(flight_dir=None)
        finish_one(tracer)
        assert tracer.dump_flight("x") is None  # no dir configured
        empty = make_tracer(flight_dir=str(tmp_path))
        assert empty.dump_flight("x") is None  # ring empty


# ---------------------------------------------------------------------------
# End-to-end through a real server
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    path = tmp_path_factory.mktemp("artifacts") / "released"
    model = build_model("resnet8_tiny", rng=np.random.default_rng(11), **KW)
    save_artifact(model, path, "resnet8_tiny", model_kwargs=KW,
                  input_shape=SHAPE, seed=11)
    return str(path)


def serial_config(**overrides):
    overrides.setdefault("start_method", "spawn")  # degrades to serial
    return ServeConfig(**overrides)


def run(coro):
    return asyncio.run(coro)


class TestServerEndToEnd:
    def test_every_request_gets_a_covered_span_tree(self, artifact):
        n_requests = 12

        async def _go():
            async with ModelServer({"m": artifact},
                                   config=serial_config()) as server:
                return await asyncio.gather(*[
                    server.infer(input_seed=i) for i in range(n_requests)])

        with recording() as recorder:
            responses = run(_go())
        assert all(r.ok for r in responses)
        roots = [s for s in recorder.spans if s.name == REQUEST_SPAN]
        assert len(roots) == n_requests
        children = [s for s in recorder.spans
                    if s.name.startswith(REQUEST_SPAN + ".")]
        for root in roots:
            rid = root.attrs["request_id"]
            mine = [c for c in children if c.attrs.get("request_id") == rid
                    and c.name != "serve.request.infer"]
            covered = sum(c.duration for c in mine)
            assert covered >= 0.95 * root.duration
            assert root.thread_id >= LANE_TID_BASE

    def test_flight_ring_matches_traffic_and_slo_observed(self, artifact):
        # the server tracer observes into the process default registry
        before = default_registry().histogram("serve.latency_ms").count

        async def _go():
            async with ModelServer({"m": artifact},
                                   config=serial_config()) as server:
                for i in range(5):
                    response = await server.infer(input_seed=i)
                    assert response.ok
                return server.flight_records()

        records = run(_go())
        assert len(records) == 5
        assert all(r.outcome == "ok" for r in records)
        stages = records[0].stage_ms()
        tiling = stages["admission_ms"] + stages["queue_ms"] + \
            stages["batch_ms"]
        assert tiling == pytest.approx(stages["latency_ms"], abs=0.01)
        assert default_registry().histogram("serve.latency_ms").count == \
            before + 5

    def test_alert_fire_dumps_the_flight_ring(self, artifact, tmp_path):
        from repro.monitor.alerts import AlertEngine, MetricRule

        # a rule that trips on the very first completed batch
        engine = AlertEngine([MetricRule("always", metric="serve.responses",
                                         above=0.0)])

        async def _go():
            async with ModelServer(
                    {"m": artifact}, alerts=engine,
                    config=serial_config(
                        flight_dir=str(tmp_path))) as server:
                for i in range(3):
                    await server.infer(input_seed=i)

        run(_go())
        dumps = sorted(tmp_path.glob("flight-*.json"))
        assert len(dumps) == 1, "one dump per alert reason, latched"
        assert read_trace(dumps[0])["otherData"]["reason"] == "alert_always"

    @pytest.mark.skipif(not HAVE_FORK, reason="fork start method unavailable")
    def test_shard_crash_dumps_the_flight_ring(self, artifact, tmp_path):
        async def _go():
            config = ServeConfig(shards=1, retries=0,
                                 flight_dir=str(tmp_path))
            async with ModelServer({"m": artifact},
                                   config=config) as server:
                assert (await server.infer(input_seed=0)).ok
                pool = server.shard_pool
                pool.max_respawns = 0  # the next death is permanent
                assert pool.kill_shard(0)
                deadline = time.monotonic() + 10.0
                while time.monotonic() < deadline and any(pool.alive()):
                    await asyncio.sleep(0.02)
                response = await server.infer(input_seed=1)
                return response

        response = run(_go())
        assert not response.ok
        assert response.error_kind == "crash"
        dumps = sorted(tmp_path.glob("flight-*shard_crash*.json"))
        assert len(dumps) == 1
        outcomes = [r.outcome for r in request_records(read_trace(dumps[0]))]
        assert "crash" in outcomes and "ok" in outcomes


class TestShardSpans:
    """One ``serve.shard`` span per batch, on the attribution path."""

    @pytest.mark.skipif(not HAVE_FORK, reason="fork start method unavailable")
    def test_forked_shard_lanes_tile_with_kernel_rows(self, artifact,
                                                      tmp_path, capsys):
        from repro.cli import main

        trace_out = tmp_path / "serve.trace.json"
        assert main(["--trace-out", str(trace_out), "loadgen",
                     f"m={artifact}", "--requests", "40", "--rate", "300",
                     "--shards", "2"]) == 0
        capsys.readouterr()
        trace = read_trace(trace_out)
        events = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        batch_ids = {e["span_id"] for e in events
                     if e["name"] == "serve.batch"}
        [start_id] = [e["span_id"] for e in events
                      if e["name"] == "serve.start"]
        shard_spans = [e for e in events if e["name"] == "serve.shard"]
        # one per batch, and one warm-up round trip per shard at start
        assert sorted(e["parent_id"] for e in shard_spans) == \
            sorted(list(batch_ids) + [start_id, start_id])
        assert len({e["pid"] for e in shard_spans
                    if e["parent_id"] == start_id}) == 2
        lanes = attribute(trace)
        for lane in lanes:
            assert lane.unattributed_s >= 0.0, lane.label
        shards = [lane for lane in lanes if lane.label.startswith("shard ")]
        assert sorted(lane.label for lane in shards) == ["shard 0", "shard 1"]
        for lane in shards:
            assert abs(lane.unattributed_s) < 1e-6, lane.label
            assert ("kernel", "conv2d_infer") in \
                {(kind, name) for kind, name, _, _ in lane.rows}

    def test_serial_fallback_nests_shard_span_under_batch(self, artifact):
        async def _go():
            async with ModelServer({"m": artifact},
                                   config=serial_config()) as server:
                return await asyncio.gather(*[
                    server.infer(input_seed=i) for i in range(6)])

        with recording() as recorder:
            responses = run(_go())
        assert all(r.ok for r in responses)
        batches = {s.span_id: s for s in recorder.by_name("serve.batch")}
        shards = recorder.by_name("serve.shard")
        assert len(shards) == len(batches) >= 1
        for shard_span in shards:
            batch = batches[shard_span.parent_id]
            assert shard_span.pid == batch.pid == os.getpid()
            assert shard_span.depth == batch.depth + 1
            assert batch.start <= shard_span.start
            assert shard_span.end <= batch.end
            assert "conv2d_infer" in shard_span.attrs["kernels"]
        [lane] = attribute(recorder.chrome_trace())
        assert lane.unattributed_s >= 0.0


def _counting_handler():
    """Shard handler bumping a counter the parent can't see directly."""
    registry = default_registry()

    def handle(payload):
        registry.counter("test.shard_side_count").inc()
        return payload["value"] * 2

    return handle


class TestCounterShipBack:
    @pytest.mark.skipif(not HAVE_FORK, reason="fork start method unavailable")
    def test_child_counter_deltas_reach_the_parent_registry(self):
        counter = default_registry().counter("test.shard_side_count")
        before = counter.value
        with ShardPool(_counting_handler, shards=2) as pool:
            results = [pool.request({"value": i}, timeout=20)
                       for i in range(6)]
        assert all(r.ok for r in results)
        assert counter.value == before + 6

    def test_serial_mode_counts_in_process(self):
        counter = default_registry().counter("test.shard_side_count")
        before = counter.value
        with ShardPool(_counting_handler, shards=1,
                       start_method="spawn") as pool:
            assert pool.request({"value": 1}).ok
        assert counter.value == before + 1

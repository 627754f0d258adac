"""ModelServer end-to-end: correctness, batching, back-pressure, telemetry.

Most tests run the server with serial (in-process) shard execution so
every line of the request path is traced and timing is tight; one test
exercises real forked shard processes.
"""

import asyncio
import dataclasses
import json
import multiprocessing
import time

import numpy as np
import pytest

from repro import backend as _backend
from repro.autograd import Tensor, no_grad
from repro.errors import ServeError
from repro.models.registry import build_model
from repro.monitor.alerts import AlertEngine, serving_rules
from repro.serve import InferenceResponse, ModelServer, ServeConfig, save_artifact
from repro.telemetry.metrics import default_registry

KW = dict(num_classes=4, in_channels=3, width=4)
SHAPE = (3, 8, 8)

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    path = tmp_path_factory.mktemp("artifacts") / "released"
    model = build_model("resnet8_tiny", rng=np.random.default_rng(11), **KW)
    save_artifact(model, path, "resnet8_tiny", model_kwargs=KW,
                  input_shape=SHAPE, seed=11)
    return str(path), model


def serial_config(**overrides):
    """In-process shard execution: deterministic and fully traceable."""
    overrides.setdefault("start_method", "spawn")  # degrades to serial
    return ServeConfig(**overrides)


def run(coro):
    return asyncio.run(coro)


async def occupy_shard(server, **request):
    """Send one request and return its future once it is dispatched.

    With one shard, that shard is then busy until the request is
    answered, so requests admitted meanwhile queue and coalesce behind
    it.  ``request`` defaults to ``input_seed=0``.
    """
    request = request or {"input_seed": 0}
    first = asyncio.ensure_future(server.infer(**request))
    await asyncio.sleep(0)  # admitted
    while sum(server.stats()["queued"].values()):
        await asyncio.sleep(0)
    return first


class TestInference:
    def test_matches_direct_model_output(self, artifact):
        path, model = artifact
        x = np.random.default_rng(0).standard_normal((1,) + SHAPE)
        x = x.astype(np.float32)
        model.eval()
        with _backend.use_backend("fast"), no_grad():
            direct = np.asarray(model(Tensor(x)).data)

        async def _go():
            async with ModelServer({"m": path},
                                   config=serial_config()) as server:
                return await server.infer(inputs=x)

        response = run(_go())
        assert response.ok, response.error
        np.testing.assert_array_equal(response.outputs, direct)
        assert response.fingerprint
        assert response.latency_ms > 0
        assert response.argmax == list(direct.argmax(axis=1))

    def test_float64_inputs_run_at_the_models_dtype(self, artifact):
        # a float32 artifact answers a float64 request with the float32
        # forward that in-process evaluation computes
        path, model = artifact
        x = np.random.default_rng(1).standard_normal((3,) + SHAPE)
        model.eval()
        with _backend.use_backend("fast"), no_grad():
            direct = np.asarray(model(Tensor(x.astype(np.float32))).data)

        async def _go():
            async with ModelServer({"m": path},
                                   config=serial_config()) as server:
                return await server.infer(inputs=x)

        response = run(_go())
        assert response.ok, response.error
        assert response.outputs.dtype == np.float32
        assert response.outputs.tobytes() == direct.tobytes()

    def test_input_seed_requests_are_deterministic(self, artifact):
        path, _ = artifact

        async def _go():
            async with ModelServer({"m": path},
                                   config=serial_config()) as server:
                first = await server.infer(input_seed=123)
                second = await server.infer(input_seed=123)
                other = await server.infer(input_seed=124)
                return first, second, other

        first, second, other = run(_go())
        np.testing.assert_array_equal(first.outputs, second.outputs)
        assert not np.array_equal(first.outputs, other.outputs)

    def test_concurrent_requests_coalesce_into_batches(self, artifact):
        path, _ = artifact
        config = serial_config(max_batch=8)

        async def _go():
            async with ModelServer({"m": path}, config=config) as server:
                # the only shard is busy: the next 7 queue behind it
                first = await occupy_shard(server)
                rest = await asyncio.gather(
                    *(server.infer(input_seed=i) for i in range(1, 8)))
                return [await first] + rest

        responses = run(_go())
        assert all(r.ok for r in responses)
        assert [r.batch_size for r in responses] == [1] + [7] * 7, \
            "requests queued behind a busy shard did not leave as one batch"

    def test_fifo_holds_across_models(self, artifact):
        path, _ = artifact
        config = serial_config(max_batch=1)

        async def _go():
            async with ModelServer({"a": path, "b": path},
                                   config=config) as server:
                first = await occupy_shard(server)
                await asyncio.gather(*(
                    server.infer(model="ab"[i % 2], input_seed=i)
                    for i in range(6)))
                await first
                return server.flight_records()

        records = run(_go())
        by_dispatch = sorted(records, key=lambda r: r.t_dispatch)
        assert [r.request_id for r in by_dispatch] == \
            [r.request_id for r in sorted(records, key=lambda r: r.t_submit)]
        assert [r.model for r in by_dispatch[1:]] == list("ababab")

    def test_responses_split_correctly_within_a_batch(self, artifact):
        path, _ = artifact
        config = serial_config(max_batch=8)

        async def _go():
            async with ModelServer({"m": path}, config=config) as server:
                # the 6 queue behind the busy shard and leave as one batch
                first = await occupy_shard(server)
                batched = await asyncio.gather(
                    *(server.infer(input_seed=i) for i in range(6)))
                await first
                singles = [await server.infer(input_seed=i) for i in range(6)]
                return batched, singles

        batched, singles = run(_go())
        assert [r.batch_size for r in batched] == [6] * 6
        for got, want in zip(batched, singles):
            np.testing.assert_allclose(got.outputs, want.outputs,
                                       rtol=1e-5, atol=1e-6)


class TestResponseRecord:
    @pytest.mark.parametrize("response", [
        InferenceResponse(request_id="r1", ok=True, model="m",
                          fingerprint="abc", outputs=np.eye(2), shard=1,
                          batch_size=3, queue_ms=1.23456, infer_ms=2.0004,
                          latency_ms=3.99996, deadline_missed=True),
        InferenceResponse(request_id="r2", ok=False, model="m",
                          error="queue full", error_kind="refused",
                          latency_ms=0.1234567),
    ], ids=["ok", "error"])
    def test_from_dict_inverts_to_dict(self, response):
        record = json.loads(json.dumps(response.to_dict()))
        # the summary carries no outputs and milliseconds to 3 decimals
        expected = dataclasses.replace(
            response, outputs=None, queue_ms=round(response.queue_ms, 3),
            infer_ms=round(response.infer_ms, 3),
            latency_ms=round(response.latency_ms, 3))
        assert InferenceResponse.from_dict(record) == expected


class TestStructuredFailures:
    def test_unknown_model_key(self, artifact):
        path, _ = artifact

        async def _go():
            async with ModelServer({"m": path},
                                   config=serial_config()) as server:
                return await server.infer(model="nope", input_seed=0)

        response = run(_go())
        assert not response.ok
        assert response.error_kind == "unknown_model"
        assert "nope" in response.error

    def test_request_without_inputs_or_seed(self, artifact):
        path, _ = artifact

        async def _go():
            async with ModelServer({"m": path},
                                   config=serial_config()) as server:
                return await server.infer()

        response = run(_go())
        assert not response.ok and response.error_kind == "bad_request"

    def test_shape_mismatch_refused_at_admission(self, artifact):
        path, _ = artifact

        async def _go():
            async with ModelServer({"m": path},
                                   config=serial_config()) as server:
                wrong = np.zeros((1, 3, 4, 4), dtype=np.float32)
                return await server.infer(inputs=wrong)

        response = run(_go())
        assert not response.ok and response.error_kind == "bad_request"
        assert "input_shape" in response.error

    def test_artifact_without_shape_serves_explicit_inputs(self, tmp_path):
        # input_shape is Optional in save_artifact; such artifacts must
        # still serve explicit (already batched) inputs.
        model = build_model("resnet8_tiny", rng=np.random.default_rng(5),
                            **KW)
        path = str(tmp_path / "shapeless")
        save_artifact(model, path, "resnet8_tiny", model_kwargs=KW, seed=5)

        async def _go():
            async with ModelServer({"m": path},
                                   config=serial_config()) as server:
                x = np.zeros((2,) + SHAPE, dtype=np.float32)
                explicit = await server.infer(inputs=x)
                seeded = await server.infer(input_seed=0)
                return explicit, seeded

        explicit, seeded = run(_go())
        assert explicit.ok, explicit.error
        assert explicit.outputs.shape[0] == 2
        # seed synthesis genuinely needs the recorded shape: structured
        assert not seeded.ok and seeded.error_kind == "bad_request"

    def test_mixed_shape_batch_resolves_structured(self, tmp_path):
        # Without a recorded input_shape admission cannot pre-check
        # rows, so the coalesced np.concatenate fails inside the batch
        # task; every request must still resolve (never hang).
        model = build_model("resnet8_tiny", rng=np.random.default_rng(6),
                            **KW)
        path = str(tmp_path / "shapeless")
        save_artifact(model, path, "resnet8_tiny", model_kwargs=KW, seed=6)
        config = serial_config(max_batch=8)

        async def _go():
            async with ModelServer({"m": path}, config=config) as server:
                a = np.zeros((1,) + SHAPE, dtype=np.float32)
                b = np.zeros((1, 3, 4, 4), dtype=np.float32)
                # a and b queue behind the busy shard: one batch
                first = await occupy_shard(server, inputs=a)
                both = await asyncio.gather(server.infer(inputs=a),
                                            server.infer(inputs=b))
                assert (await first).ok
                return both

        first, second = run(asyncio.wait_for(_go(), timeout=30))
        for response in (first, second):
            assert not response.ok
            assert response.error_kind == "exception"
            assert "batch dispatch failed" in response.error

    def test_queue_overflow_refuses_structured(self, artifact):
        path, _ = artifact
        # busy shard + capacity 1: the second request queues, and the
        # third must be refused while the second is still queued
        config = serial_config(queue_capacity=1, max_batch=16)

        async def _go():
            async with ModelServer({"m": path}, config=config) as server:
                first = await occupy_shard(server)
                second = asyncio.ensure_future(server.infer(input_seed=1))
                await asyncio.sleep(0)  # let it enqueue
                third = await server.infer(input_seed=2)
                return await first, await second, third

        first, second, third = run(_go())
        assert first.ok and second.ok
        assert not third.ok
        assert third.error_kind == "refused"
        assert "queue full" in third.error
        assert default_registry().counter("serve.refused").value >= 1

    def test_infer_after_close_is_structured(self, artifact):
        path, _ = artifact

        async def _go():
            server = ModelServer({"m": path}, config=serial_config())
            await server.start()
            await server.close()
            return await server.infer(input_seed=0)

        response = run(_go())
        assert not response.ok and response.error_kind == "shutdown"

    def test_missing_artifact_fails_at_startup(self, tmp_path):
        with pytest.raises(ServeError, match="metadata"):
            ModelServer({"m": tmp_path / "missing"})

    @pytest.mark.parametrize("shape", [["x", 8, 8], [3, 0, 8], [3.0, 8, 8],
                                       [True, 8, 8], "3x8x8"])
    def test_malformed_input_shape_fails_at_startup(self, tmp_path, shape):
        from repro.serve.artifacts import META_FILE

        model = build_model("resnet8_tiny", rng=np.random.default_rng(4),
                            **KW)
        path = tmp_path / "bad-shape"
        save_artifact(model, path, "resnet8_tiny", model_kwargs=KW,
                      input_shape=SHAPE, seed=4)
        meta = json.loads((path / META_FILE).read_text())
        meta["input_shape"] = shape
        (path / META_FILE).write_text(json.dumps(meta))
        with pytest.raises(ServeError, match="input_shape"):
            ModelServer({"m": str(path)}, config=serial_config())

    def test_no_artifacts_rejected(self):
        with pytest.raises(ServeError, match="at least one artifact"):
            ModelServer({})


class TestArtifactPreload:
    """Shards load their artifacts at start, not inside the first batch."""

    @staticmethod
    def _spanned_loads(monkeypatch):
        from repro.serve import artifacts
        from repro.telemetry.trace import span

        load = artifacts.load_artifact

        def spanned(path, *args, **kwargs):
            with span("test.load_artifact"):
                return load(path, *args, **kwargs)

        monkeypatch.setattr(artifacts, "load_artifact", spanned)

    def test_first_batch_span_has_no_artifact_load(self, artifact, monkeypatch):
        from repro.telemetry.trace import recording

        path, _ = artifact
        self._spanned_loads(monkeypatch)

        async def _go():
            async with ModelServer({"m": path},
                                   config=serial_config()) as server:
                return await asyncio.gather(*[
                    server.infer(input_seed=i) for i in range(4)])

        with recording() as recorder:
            responses = run(_go())
        assert all(r.ok for r in responses)
        [load] = recorder.by_name("test.load_artifact")
        [start] = recorder.by_name("serve.start")
        assert start.start <= load.start and load.end <= start.end
        shards = recorder.by_name("serve.shard")
        assert shards and min(s.start for s in shards) >= start.end

    def test_load_failure_is_left_to_the_first_request(self, tmp_path):
        from repro.serve.artifacts import WEIGHTS_FILE

        model = build_model("resnet8_tiny", rng=np.random.default_rng(3), **KW)
        path = tmp_path / "torn"
        save_artifact(model, path, "resnet8_tiny", model_kwargs=KW,
                      input_shape=SHAPE, seed=3)
        (path / WEIGHTS_FILE).write_bytes(b"not an npz archive")

        async def _go():
            async with ModelServer({"m": str(path)},
                                   config=serial_config()) as server:
                return await server.infer(input_seed=0)

        response = run(asyncio.wait_for(_go(), timeout=30))
        assert not response.ok
        assert response.error_kind == "exception"
        assert "cannot load artifact weights" in response.error


class TestDeadlines:
    def test_impossible_deadline_is_flagged_not_dropped(self, artifact):
        path, _ = artifact

        async def _go():
            async with ModelServer({"m": path},
                                   config=serial_config()) as server:
                return await server.infer(input_seed=0, deadline_ms=0.5)

        response = run(_go())
        # 0.5ms is under any real inference time: the request must still
        # resolve, marked late, rather than hang or raise
        assert response.ok
        assert response.deadline_missed


class TestOneFinishPath:
    """Every request, whatever its outcome, closes its record once."""

    COUNTERS = ("serve.requests", "serve.responses", "serve.refused",
                "serve.errors", "serve.timeouts", "serve.deadline_missed")

    def test_every_outcome_is_counted_observed_and_recorded_once(
            self, artifact):
        from repro.telemetry.trace import recording

        path, _ = artifact
        registry = default_registry()
        latency = registry.histogram("serve.latency_ms")
        before = {name: registry.counter(name).value
                  for name in self.COUNTERS}
        count0 = latency.count
        # capacity 1 + a busy shard: a request queues behind the shard
        # (and misses its 0.5 ms deadline there), and the next is refused
        config = serial_config(queue_capacity=1)

        async def _go():
            server = ModelServer({"m": path}, config=config)
            await server.start()
            busy = await occupy_shard(server)
            queued = asyncio.ensure_future(
                server.infer(input_seed=2, deadline_ms=0.5))
            await asyncio.sleep(0)
            got = {"refused": [await server.infer(input_seed=1)],
                   "unknown_model": [await server.infer(model="nope",
                                                        input_seed=0)],
                   "bad_request": [
                       await server.infer(),
                       await server.infer(input_seed="abc"),
                       await server.infer(input_seed=-1),
                       await server.infer(input_seed=1, deadline_ms="x")]}
            got["ok"] = [await busy, await queued]
            drained = asyncio.ensure_future(server.infer(input_seed=3))
            await asyncio.sleep(0)
            await server.close()
            got["shutdown"] = [await drained,
                               await server.infer(input_seed=4)]
            return server, got

        with recording():
            server, got = run(_go())
        for kind, responses in got.items():
            for response in responses:
                assert response.error_kind == ("" if kind == "ok" else kind)
        calls = sum(len(responses) for responses in got.values())
        assert calls == 10
        assert latency.count == count0 + calls
        assert len(server.flight_records()) == calls
        tracer = server.tracer
        assert sorted(tracer._free_lanes) == list(range(tracer._next_lane))
        moved = {name: registry.counter(name).value - before[name]
                 for name in self.COUNTERS}
        assert moved == {"serve.requests": calls, "serve.responses": 2,
                         "serve.refused": 1, "serve.errors": 5,
                         "serve.timeouts": 0, "serve.deadline_missed": 1}

    def test_ok_response_latency_is_the_records_latency(self, artifact):
        from repro.serve.tracing import REQUEST_SPAN
        from repro.telemetry.trace import recording

        path, _ = artifact
        latency = default_registry().histogram("serve.latency_ms")

        async def _go():
            async with ModelServer({"m": path},
                                   config=serial_config()) as server:
                total = latency.total
                response = await server.infer(input_seed=0)
                return (response, latency.total - total,
                        server.flight_records()[-1])

        with recording() as recorder:
            response, observed, record = run(_go())
        assert response.ok
        assert response.latency_ms == (record.t_done - record.t_admit) * 1e3
        assert response.queue_ms == \
            (record.t_dispatch - record.t_submit) * 1e3
        assert observed == pytest.approx(response.latency_ms, rel=1e-9)
        [root] = recorder.by_name(REQUEST_SPAN)
        assert root.duration * 1e3 == pytest.approx(response.latency_ms,
                                                    rel=1e-9)


class TestTelemetryAndAlerts:
    def test_queue_depth_gauge_reads_zero_once_answered(self, artifact):
        path, _ = artifact
        gauge = default_registry().gauge("serve.queue_depth")

        async def _go():
            async with ModelServer({"m": path},
                                   config=serial_config()) as server:
                first = await occupy_shard(server)
                responses = await asyncio.gather(
                    *(server.infer(input_seed=i) for i in range(1, 6)))
                return [await first] + responses

        assert all(r.ok for r in run(_go()))
        assert gauge.value == 0.0

    def test_request_path_metrics_populate(self, artifact):
        path, _ = artifact
        registry = default_registry()
        requests0 = registry.counter("serve.requests").value
        responses0 = registry.counter("serve.responses").value

        async def _go():
            async with ModelServer({"m": path},
                                   config=serial_config()) as server:
                await asyncio.gather(
                    *(server.infer(input_seed=i) for i in range(4)))

        run(_go())
        flat = registry.flat_snapshot()
        assert registry.counter("serve.requests").value == requests0 + 4
        assert registry.counter("serve.responses").value == responses0 + 4
        for key in ("serve.latency_ms.p50", "serve.latency_ms.p99",
                    "serve.queue_ms.mean", "serve.infer_ms.mean",
                    "serve.batch_size.max"):
            assert key in flat, f"{key} missing from flat snapshot"
        assert flat["serve.latency_ms.p99"] > 0

    def test_p99_breach_alert_fires_during_traffic(self, artifact):
        path, _ = artifact
        engine = AlertEngine(serving_rules(p99_budget_ms=1e-6))

        async def _go():
            async with ModelServer({"m": path}, config=serial_config(),
                                   alerts=engine) as server:
                await asyncio.gather(
                    *(server.infer(input_seed=i) for i in range(3)))

        run(_go())
        assert any(a.rule == "serve_p99_breach" for a in engine.alerts)
        critical = [a for a in engine.alerts if a.rule == "serve_p99_breach"]
        assert critical[0].severity == "critical"

    def test_models_and_stats_views(self, artifact):
        path, _ = artifact

        async def _go():
            async with ModelServer({"m": path},
                                   config=serial_config()) as server:
                return server.models(), server.stats()

        models, stats = run(_go())
        assert models["m"]["fingerprint"]
        assert models["m"]["input_shape"] == list(SHAPE)
        assert stats["running"] and stats["shards_alive"] == 1


@pytest.mark.skipif(not HAVE_FORK, reason="fork start method unavailable")
class TestProcessBackedServing:
    def test_forked_shards_serve_and_match_serial(self, artifact):
        path, _ = artifact

        async def _serial():
            async with ModelServer({"m": path},
                                   config=serial_config()) as server:
                return await server.infer(input_seed=9)

        async def _forked():
            config = ServeConfig(shards=2)
            async with ModelServer({"m": path}, config=config) as server:
                return await asyncio.gather(
                    *(server.infer(input_seed=9) for _ in range(4)))

        serial = run(_serial())
        forked = run(_forked())
        assert all(r.ok for r in forked)
        for response in forked:
            np.testing.assert_allclose(response.outputs, serial.outputs,
                                       rtol=1e-5, atol=1e-6)

    def test_a_permanently_dead_shard_is_never_picked(self, artifact):
        path, _ = artifact

        async def _go():
            async with ModelServer({"m": path},
                                   config=ServeConfig(shards=2)) as server:
                pool = server.shard_pool
                pool.max_respawns = 0  # the next death is permanent
                assert pool.kill_shard(0)
                deadline = time.monotonic() + 10.0
                while time.monotonic() < deadline \
                        and pool.alive() != [False, True]:
                    await asyncio.sleep(0.02)
                assert pool.alive() == [False, True]
                one_by_one = [await server.infer(input_seed=i)
                              for i in range(4)]
                together = await asyncio.gather(
                    *(server.infer(input_seed=i) for i in range(4, 8)))
                return one_by_one + together

        responses = run(_go())
        assert all(r.ok for r in responses), [r.error for r in responses]
        assert [r.shard for r in responses] == [1] * 8

    def test_a_failed_warm_up_leaves_no_shard_running(self, artifact,
                                                      monkeypatch):
        path, _ = artifact

        def _boom(self, seed, model=None):
            raise RuntimeError("boom")

        monkeypatch.setattr(ModelServer, "synthesize_input", _boom)
        server = ModelServer({"m": path}, config=ServeConfig(shards=2))
        with pytest.raises(RuntimeError, match="boom"):
            run(server.start())
        workers = [shard.worker for shard in server.shard_pool._shards]
        assert workers and not any(w.process.is_alive() for w in workers)

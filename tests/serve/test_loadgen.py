"""Load generator: deterministic traces, open-loop replay, robust reports."""

import asyncio
import json
import tempfile

import numpy as np
import pytest

from repro.errors import ServeError
from repro.serve import (
    InferenceResponse,
    LoadGenConfig,
    LoadReport,
    ModelServer,
    SentRequest,
    ServeConfig,
    TraceEntry,
    generate_trace,
    load_trace,
    run_loadgen,
    save_artifact,
    save_trace,
    trace_from_jsonl,
    trace_to_jsonl,
)
from repro.telemetry.trace import attribute, recording


class TestTraceGeneration:
    def test_same_seed_is_byte_identical(self):
        config = LoadGenConfig(seed=42, n_requests=50, rate_rps=100.0)
        assert trace_to_jsonl(generate_trace(config), config) == \
            trace_to_jsonl(generate_trace(config), config)

    def test_different_seed_differs(self):
        a = generate_trace(LoadGenConfig(seed=1, n_requests=20))
        b = generate_trace(LoadGenConfig(seed=2, n_requests=20))
        assert [e.arrival_s for e in a] != [e.arrival_s for e in b]
        assert [e.input_seed for e in a] != [e.input_seed for e in b]

    def test_arrivals_are_open_loop_monotone_from_zero(self):
        trace = generate_trace(LoadGenConfig(seed=0, n_requests=30))
        arrivals = [e.arrival_s for e in trace]
        assert arrivals[0] == 0.0
        assert arrivals == sorted(arrivals)

    def test_mean_rate_approximates_target(self):
        config = LoadGenConfig(seed=7, n_requests=4000, rate_rps=100.0,
                               alpha=1.8)
        trace = generate_trace(config)
        measured = (len(trace) - 1) / trace[-1].arrival_s
        assert measured == pytest.approx(100.0, rel=0.35), \
            "mean arrival rate should track rate_rps"

    def test_heavy_tail_produces_bursts(self):
        trace = generate_trace(LoadGenConfig(seed=3, n_requests=2000,
                                             rate_rps=100.0, alpha=1.5))
        gaps = np.diff([e.arrival_s for e in trace])
        assert gaps.max() > 10 * np.median(gaps), \
            "Pareto gaps should include bursts far above the median"

    def test_validation(self):
        with pytest.raises(ServeError, match="n_requests"):
            generate_trace(LoadGenConfig(n_requests=0))
        with pytest.raises(ServeError, match="rate_rps"):
            generate_trace(LoadGenConfig(rate_rps=0))
        with pytest.raises(ServeError, match="alpha"):
            generate_trace(LoadGenConfig(alpha=1.0))


class TestTraceIO:
    def test_roundtrip_through_file_is_byte_identical(self, tmp_path):
        config = LoadGenConfig(seed=9, n_requests=25, deadline_ms=333.0)
        trace = generate_trace(config)
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_trace(trace, str(first), config)
        save_trace(load_trace(str(first)), str(second), config)
        assert first.read_bytes() == second.read_bytes()

    def test_loaded_entries_match(self, tmp_path):
        trace = generate_trace(LoadGenConfig(seed=4, n_requests=10,
                                             model="faces"))
        path = tmp_path / "trace.jsonl"
        save_trace(trace, str(path))
        loaded = load_trace(str(path))
        assert [e.to_dict() for e in loaded] == [e.to_dict() for e in trace]

    def test_loaded_trace_resaves_byte_identical_without_config(
            self, tmp_path):
        # the replay path: whoever re-saves a loaded trace does not have
        # the original LoadGenConfig -- the trace carries its own header
        config = LoadGenConfig(seed=13, n_requests=12, rate_rps=250.0)
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_trace(generate_trace(config), str(first), config)
        save_trace(load_trace(str(first)), str(second))
        assert first.read_bytes() == second.read_bytes()

    def test_generated_trace_saves_its_own_header(self, tmp_path):
        config = LoadGenConfig(seed=14, n_requests=5)
        path = tmp_path / "t.jsonl"
        save_trace(generate_trace(config), str(path))  # no config passed
        loaded = load_trace(str(path))
        assert loaded.config == config.to_dict()

    def test_rejects_non_trace_files(self):
        with pytest.raises(ServeError, match="not a loadgen trace"):
            trace_from_jsonl('{"something": "else"}\n')
        with pytest.raises(ServeError, match="empty"):
            trace_from_jsonl("")


def _request(latency_ms, ok=True, kind="", batch=2, missed=False,
             lost=False):
    """A record due at 0, sent on time, done ``latency_ms`` later."""
    response = None if lost else InferenceResponse(
        request_id="r", ok=ok, error_kind=kind, batch_size=batch,
        deadline_missed=missed)
    return SentRequest(TraceEntry(0, 0.0, 0, 1000.0), due=0.0, sent=0.0,
                       done=latency_ms / 1e3, response=response)


class TestReport:
    def test_quantiles_and_counts(self):
        requests = [_request(ms) for ms in (5, 10, 15, 20)]
        requests.append(_request(1, ok=False, kind="refused"))
        requests.append(_request(1, ok=False, kind="crash", missed=True))
        requests.append(_request(30, lost=True))  # lost on the wire
        report = LoadReport.from_requests(requests)
        assert report.sent == 7
        assert report.completed == 4
        assert report.refused == 1
        assert report.errors == 2  # crash + lost
        assert report.deadline_missed == 1
        assert report.error_kinds == {"refused": 1, "crash": 1, "lost": 1}
        # exact nearest rank: the 2nd of 4 (interpolation would say 12.5)
        assert report.p50_ms == pytest.approx(10.0)
        assert report.max_ms == pytest.approx(20.0)
        # 4 completed from the first due (0) to the last completion (20 ms)
        assert report.throughput_rps == pytest.approx(200.0)
        assert report.duration_s == pytest.approx(0.030)
        assert report.mean_batch == pytest.approx(2.0)
        assert report.lateness_p99_ms == 0.0
        assert report.requests == requests

    def test_zero_length_run_reports_zero_throughput(self):
        report = LoadReport.from_requests([_request(0), _request(0)])
        assert report.completed == 2
        assert report.throughput_rps == 0.0

    def test_table_renders(self):
        report = LoadReport.from_requests(
            [_request(3), _request(1, ok=False, kind="refused")])
        table = report.to_table()
        assert "throughput" in table and "refused" in table
        assert "lateness p99" in table
        assert "error kinds" in table

    def test_summary_is_the_report_without_its_records(self):
        summary = LoadReport.from_requests([_request(3)]).to_dict()
        assert "requests" not in summary
        assert summary["lateness_p99_ms"] == 0.0
        json.dumps(summary)


class _FakeTime:
    """A shared clock for generator and server; ``sleep`` yields first
    (so due requests start before time moves), then advances the clock
    by the asked time plus ``overshoot_s``."""

    def __init__(self, overshoot_s=0.0):
        self.now = 0.0
        self.overshoot_s = overshoot_s

    def clock(self):
        return self.now

    async def sleep(self, seconds):
        await asyncio.sleep(0)
        self.now += seconds + self.overshoot_s


class _StallingServer:
    """Stalls 100 ms before admission, then answers at once: its own
    admission-to-done latency reads 0."""

    def __init__(self, time):
        self.time = time

    async def infer(self, **kwargs):
        self.time.now += 0.100
        admitted = self.time.clock()
        return InferenceResponse(
            request_id=kwargs["request_id"], ok=True, batch_size=1,
            latency_ms=(self.time.clock() - admitted) * 1e3)


class TestDueTimeLatency:
    def test_a_stall_before_admission_shows_in_the_report(self):
        time = _FakeTime()
        trace = generate_trace(LoadGenConfig(seed=4, n_requests=10))
        report = asyncio.run(run_loadgen(_StallingServer(time), trace,
                                         time_scale=0.0, clock=time.clock,
                                         sleep=time.sleep))
        assert report.completed == 10
        assert all(r.response.latency_ms == 0.0 for r in report.requests)
        assert report.p50_ms >= 100.0
        assert report.p99_ms >= 100.0

    def test_an_overshooting_sleep_shows_as_lateness(self):
        time = _FakeTime(overshoot_s=0.050)

        class _Instant:
            async def infer(self, **kwargs):
                return InferenceResponse(request_id=kwargs["request_id"],
                                         ok=True, batch_size=1)

        trace = generate_trace(LoadGenConfig(seed=4, n_requests=10,
                                             rate_rps=100.0))
        report = asyncio.run(run_loadgen(_Instant(), trace,
                                         clock=time.clock, sleep=time.sleep))
        assert report.completed == 10
        assert report.lateness_p99_ms == pytest.approx(50.0)
        assert report.p99_ms == pytest.approx(50.0)

    def test_traced_replay_leaves_the_main_lane_attributed(self):
        class _Slow:
            async def infer(self, **kwargs):
                await asyncio.sleep(0.002)
                return InferenceResponse(request_id=kwargs["request_id"],
                                         ok=True, batch_size=1)

        trace = generate_trace(LoadGenConfig(seed=5, n_requests=40,
                                             rate_rps=500.0))
        loop = asyncio.new_event_loop()
        try:
            with recording() as recorder:
                report = loop.run_until_complete(run_loadgen(_Slow(), trace))
        finally:
            loop.close()
        assert report.completed == 40
        [lane] = attribute(recorder.chrome_trace())
        assert lane.unattributed_s < 0.05 * lane.total_s
        [replay] = recorder.by_name("serve.loadgen")
        assert replay.attrs["requests"] == 40


class _RefusingServer:
    """Server double that refuses everything (queue permanently full)."""

    async def infer(self, **kwargs):
        return InferenceResponse(request_id=str(kwargs.get("request_id")),
                                 ok=False, error="queue full",
                                 error_kind="refused")


class _ExplodingServer:
    """Server double whose admission raises (the worst-behaved server)."""

    async def infer(self, **kwargs):
        raise ServeError("connection torn down")


class TestRunLoadgen:
    def test_against_real_server_completes_everything(self, tmp_path):
        from repro.models.registry import build_model
        kw = dict(num_classes=4, in_channels=3, width=4)
        model = build_model("resnet8_tiny", rng=np.random.default_rng(5), **kw)
        path = tmp_path / "art"
        save_artifact(model, path, "resnet8_tiny", model_kwargs=kw,
                      input_shape=(3, 8, 8))
        trace = generate_trace(LoadGenConfig(seed=1, n_requests=25,
                                             rate_rps=500.0))

        async def _go():
            config = ServeConfig(start_method="spawn")
            async with ModelServer({"m": path}, config=config) as server:
                return await run_loadgen(server, trace)

        report = asyncio.run(_go())
        assert report.sent == 25
        assert report.completed == 25
        assert report.errors == 0
        assert report.throughput_rps > 0
        assert report.p99_ms >= report.p50_ms > 0

    def test_survives_a_refusing_server(self):
        trace = generate_trace(LoadGenConfig(seed=2, n_requests=10,
                                             rate_rps=1000.0))
        report = asyncio.run(run_loadgen(_RefusingServer(), trace))
        assert report.sent == 10
        assert report.refused == 10
        assert report.completed == 0

    def test_survives_a_raising_server(self):
        trace = generate_trace(LoadGenConfig(seed=2, n_requests=5,
                                             rate_rps=1000.0))
        report = asyncio.run(run_loadgen(_ExplodingServer(), trace))
        assert report.sent == 5
        assert report.errors == 5
        assert report.error_kinds == {"lost": 5}


class TestCli:
    """``repro loadgen`` at its command-line surface."""

    def _trace_file(self, tmp_path, bad_line):
        path = tmp_path / "bad.jsonl"
        config = LoadGenConfig(seed=3, n_requests=2)
        lines = trace_to_jsonl(generate_trace(config), config).splitlines()
        lines.insert(2, bad_line)
        path.write_text("\n".join(lines) + "\n")
        return path

    def _replay_error(self, path):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["loadgen", "--demo", "--replay", str(path)])
        message = str(exc.value)
        assert message.startswith("repro loadgen: ")
        assert "\n" not in message
        return message

    def test_replay_missing_file_is_a_structured_error(self, tmp_path):
        path = tmp_path / "absent.jsonl"
        message = self._replay_error(path)
        assert f"{path}: cannot read loadgen trace" in message

    def test_replay_non_json_line_names_path_and_line(self, tmp_path):
        path = self._trace_file(tmp_path, "{not json")
        assert f"{path}:3: not JSON" in self._replay_error(path)

    def test_replay_entry_without_arrival_names_path_and_line(self,
                                                              tmp_path):
        path = self._trace_file(tmp_path, json.dumps(
            {"index": 9, "input_seed": 1, "deadline_ms": 10.0}))
        assert f"{path}:3: trace entry has no 'arrival_s'" in \
            self._replay_error(path)

    def test_demo_temp_dir_is_removed(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        assert main(["loadgen", "--demo", "--bits", "4", "--requests", "4",
                     "--rate", "400"]) == 0
        assert "completed" in capsys.readouterr().out
        assert not list(tmp_path.glob("repro-serve-*"))

    def test_demo_temp_dir_is_removed_on_error(self, tmp_path, monkeypatch):
        import repro.serve
        from repro.cli import main

        async def _boom(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        monkeypatch.setattr(repro.serve, "run_loadgen", _boom)
        with pytest.raises(RuntimeError, match="boom"):
            main(["loadgen", "--demo", "--requests", "4"])
        assert not list(tmp_path.glob("repro-serve-*"))

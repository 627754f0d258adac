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
    ModelServer,
    ServeConfig,
    generate_trace,
    load_trace,
    run_loadgen,
    save_artifact,
    save_trace,
    trace_from_jsonl,
    trace_to_jsonl,
)
from repro.serve.loadgen import summarize_responses


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


def _response(ok=True, latency_ms=10.0, kind="", batch=2, missed=False):
    return InferenceResponse(request_id="r", ok=ok, latency_ms=latency_ms,
                             error_kind=kind, batch_size=batch,
                             deadline_missed=missed)


class TestReport:
    def test_quantiles_and_counts(self):
        responses = [_response(latency_ms=ms) for ms in (5, 10, 15, 20)]
        responses.append(_response(ok=False, kind="refused"))
        responses.append(_response(ok=False, kind="crash"))
        responses.append(None)  # lost on the wire
        report = summarize_responses(responses, duration_s=2.0)
        assert report.sent == 7
        assert report.completed == 4
        assert report.refused == 1
        assert report.errors == 2  # crash + lost
        assert report.error_kinds == {"refused": 1, "crash": 1, "lost": 1}
        assert report.p50_ms == pytest.approx(12.5)
        assert report.max_ms == 20.0
        assert report.throughput_rps == pytest.approx(2.0)
        assert report.mean_batch == pytest.approx(2.0)

    def test_table_renders(self):
        report = summarize_responses(
            [_response(), _response(ok=False, kind="refused")], 1.0)
        table = report.to_table()
        assert "throughput" in table and "refused" in table
        assert "error kinds" in table


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
            config = ServeConfig(start_method="spawn", max_wait_ms=2.0)
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

"""HTTP front end: routing, status mapping, metrics, cross-socket loadgen."""

import asyncio
import contextlib
import http.server
import json
import os
import queue
import signal
import socket
import subprocess
import sys
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

import repro
from repro.models.registry import build_model
from repro.serve import (
    LoadGenConfig,
    ModelServer,
    ServeConfig,
    ServeHTTP,
    generate_trace,
    http_loadgen,
    save_artifact,
)
from repro.telemetry.metrics import default_registry, prometheus_text

KW = dict(num_classes=4, in_channels=3, width=4)
SHAPE = (3, 8, 8)


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    path = tmp_path_factory.mktemp("http") / "released"
    model = build_model("resnet8_tiny", rng=np.random.default_rng(31), **KW)
    save_artifact(model, path, "resnet8_tiny", model_kwargs=KW,
                  input_shape=SHAPE, seed=31)
    return str(path)


def _fetch(loop, url, body=None, method=None):
    """urllib round trip from an executor thread; returns (status, json)."""

    def _do():
        data = None if body is None else json.dumps(body).encode()
        request = urllib.request.Request(
            url, data=data,
            headers={"Content-Type": "application/json"},
            method=method or ("POST" if data else "GET"))
        try:
            with urllib.request.urlopen(request, timeout=15) as reply:
                return reply.status, json.loads(reply.read().decode())
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read().decode())

    return loop.run_in_executor(None, _do)


def _get_text(loop, url):
    """GET from an executor thread; returns (status, content type, text)."""

    def _do():
        try:
            with urllib.request.urlopen(url, timeout=15) as reply:
                return (reply.status, reply.headers["Content-Type"],
                        reply.read().decode())
        except urllib.error.HTTPError as exc:
            return exc.code, exc.headers["Content-Type"], exc.read().decode()

    return loop.run_in_executor(None, _do)


def _status_and_json(raw):
    status_line, _, rest = raw.partition(b"\r\n")
    return status_line, json.loads(rest.split(b"\r\n\r\n", 1)[1])


async def _with_front(path, fn, **config_kwargs):
    config = ServeConfig(start_method="spawn", **config_kwargs)
    async with ModelServer({"m": path}, config=config) as server:
        async with ServeHTTP(server) as front:
            return await fn(asyncio.get_event_loop(), front)


class TestRoutes:
    def test_infer_round_trip_with_seed(self, artifact):
        async def _go(loop, front):
            return await _fetch(loop, front.url + "/infer",
                                {"input_seed": 3, "request_id": "rt-1"})

        status, body = asyncio.run(_with_front(artifact, _go))
        assert status == 200
        assert body["ok"] and body["request_id"] == "rt-1"
        assert isinstance(body["argmax"], list)
        assert body["latency_ms"] > 0

    def test_infer_with_explicit_inputs(self, artifact):
        x = np.zeros((1,) + SHAPE, dtype=np.float32).tolist()

        async def _go(loop, front):
            return await _fetch(loop, front.url + "/infer", {"inputs": x})

        status, body = asyncio.run(_with_front(artifact, _go))
        assert status == 200 and body["ok"]

    def test_healthz_and_models(self, artifact):
        async def _go(loop, front):
            health = await _fetch(loop, front.url + "/healthz")
            models = await _fetch(loop, front.url + "/models")
            return health, models

        (hs, health), (ms, models) = asyncio.run(_with_front(artifact, _go))
        assert hs == 200 and health["ok"] and health["shards_alive"] == 1
        assert ms == 200 and models["models"]["m"]["fingerprint"]

    def test_status_codes_map_error_kinds(self, artifact):
        async def _go(loop, front):
            unknown = await _fetch(loop, front.url + "/infer",
                                   {"model": "nope", "input_seed": 1})
            bad = await _fetch(loop, front.url + "/infer", {})
            route = await _fetch(loop, front.url + "/nowhere")
            return unknown, bad, route

        unknown, bad, route = asyncio.run(_with_front(artifact, _go))
        assert unknown[0] == 404
        assert unknown[1]["error_kind"] == "unknown_model"
        assert bad[0] == 400 and bad[1]["error_kind"] == "bad_request"
        assert route[0] == 404

    def test_bad_request_fields_are_400(self, artifact):
        bodies = [{"input_seed": "abc"}, {"input_seed": -1},
                  {"input_seed": 1, "deadline_ms": "x"}]

        async def _go(loop, front):
            return [await _fetch(loop, front.url + "/infer", body)
                    for body in bodies]

        for status, body in asyncio.run(_with_front(artifact, _go)):
            assert status == 400
            assert body["error_kind"] == "bad_request", body

    def test_malformed_json_body_is_400(self, artifact):
        async def _go(loop, front):
            def _do():
                request = urllib.request.Request(
                    front.url + "/infer", data=b"{broken",
                    headers={"Content-Type": "application/json"},
                    method="POST")
                try:
                    with urllib.request.urlopen(request, timeout=15) as r:
                        return r.status
                except urllib.error.HTTPError as exc:
                    return exc.code

            return await loop.run_in_executor(None, _do)

        assert asyncio.run(_with_front(artifact, _go)) == 400

    def test_negative_content_length_is_400(self, artifact):
        async def _go(loop, front):
            reader, writer = await asyncio.open_connection(front.host,
                                                           front.port)
            writer.write(b"POST /infer HTTP/1.1\r\n"
                         b"Content-Length: -5\r\n\r\n")
            await writer.drain()
            raw = await reader.read()
            writer.close()
            return raw

        raw = asyncio.run(_with_front(artifact, _go))
        status_line, body = _status_and_json(raw)
        assert b" 400 " in status_line, status_line
        assert body["error_kind"] == "bad_request"

    def test_truncated_body_is_400(self, artifact):
        async def _go(loop, front):
            reader, writer = await asyncio.open_connection(front.host,
                                                           front.port)
            writer.write(b"POST /infer HTTP/1.1\r\n"
                         b"Content-Length: 100\r\n\r\n"
                         b'{"input')
            writer.write_eof()  # 7 of the 100 promised bytes, then EOF
            await writer.drain()
            raw = await reader.read()
            writer.close()
            return raw

        status_line, body = _status_and_json(
            asyncio.run(_with_front(artifact, _go)))
        assert b" 400 " in status_line, status_line
        assert body["error_kind"] == "bad_request"
        assert body["error"] == "body shorter than Content-Length"


class TestMetricsRoute:
    def test_metrics_after_infer_is_the_registry_as_prometheus_text(
            self, artifact):
        async def _go(loop, front):
            infer = await _fetch(loop, front.url + "/infer",
                                 {"input_seed": 5})
            metrics = await _get_text(loop, front.url + "/metrics")
            expected = prometheus_text(default_registry())
            unknown = await _get_text(loop, front.url + "/metrics/nope")
            return infer, metrics, expected, unknown

        infer, metrics, expected, unknown = asyncio.run(
            _with_front(artifact, _go))
        assert infer[0] == 200
        status, content_type, text = metrics
        assert status == 200
        assert content_type == "text/plain; version=0.0.4"
        assert "# TYPE repro_serve_requests counter" in text
        assert text == expected
        assert unknown[0] == 404
        assert json.loads(unknown[2])["error_kind"] == "bad_request"


class TestHTTPLoadgen:
    def test_drives_a_live_server(self, artifact):
        trace = generate_trace(LoadGenConfig(seed=8, n_requests=12,
                                             rate_rps=300.0))

        async def _go(loop, front):
            return await http_loadgen(front.url, trace, time_scale=0.2)

        report = asyncio.run(_with_front(artifact, _go))
        assert report.sent == 12
        assert report.completed == 12
        assert report.errors == 0
        assert report.p50_ms > 0

    def test_survives_an_absent_server(self):
        trace = generate_trace(LoadGenConfig(seed=9, n_requests=4,
                                             rate_rps=1000.0))
        # nothing listens on this port; every request is lost, none raise
        report = asyncio.run(
            http_loadgen("http://127.0.0.1:9", trace, timeout_s=2.0))
        assert report.sent == 4
        assert report.completed == 0
        assert report.errors == 4


@contextlib.contextmanager
def _stub_server(status, body):
    """A real socket answering every POST with a canned (status, body)."""

    class Handler(http.server.BaseHTTPRequestHandler):
        def do_POST(self):
            self.rfile.read(int(self.headers.get("Content-Length", 0) or 0))
            payload = body if isinstance(body, bytes) else body.encode()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        def log_message(self, *args):
            pass

    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


class TestHTTPLoadgenErrorPaths:
    """The client must degrade structurally, never raise mid-run."""

    def _trace(self, n=3):
        return generate_trace(LoadGenConfig(seed=13, n_requests=n,
                                            rate_rps=1000.0))

    def test_connection_refused_is_counted_as_lost(self):
        # bind then release a port so the address is valid but refusing
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        report = asyncio.run(http_loadgen(
            f"http://127.0.0.1:{port}", self._trace(), timeout_s=2.0))
        assert report.sent == 3 and report.completed == 0
        assert report.error_kinds == {"lost": 3}

    def test_non_200_with_structured_body_keeps_the_error_kind(self):
        body = json.dumps({"request_id": "x", "ok": False,
                           "error": "queue full", "error_kind": "refused"})
        with _stub_server(503, body) as url:
            report = asyncio.run(http_loadgen(url, self._trace(),
                                              timeout_s=5.0))
        assert report.sent == 3 and report.completed == 0
        assert report.refused == 3
        assert report.error_kinds == {"refused": 3}

    def test_non_200_with_garbage_body_is_lost_not_raised(self):
        with _stub_server(500, "<html>Internal Server Error</html>") as url:
            report = asyncio.run(http_loadgen(url, self._trace(),
                                              timeout_s=5.0))
        assert report.completed == 0
        assert report.error_kinds == {"lost": 3}

    def test_malformed_json_on_200_is_lost_not_raised(self):
        with _stub_server(200, '{"ok": true, "request_id":') as url:
            report = asyncio.run(http_loadgen(url, self._trace(),
                                              timeout_s=5.0))
        assert report.completed == 0
        assert report.error_kinds == {"lost": 3}

    def test_json_that_is_no_response_record_is_lost_not_raised(self):
        with _stub_server(200, '[1, 2]') as url:
            report = asyncio.run(http_loadgen(url, self._trace(),
                                              timeout_s=5.0))
        assert report.completed == 0
        assert report.error_kinds == {"lost": 3}


class TestServeCommand:
    def test_sigint_prints_the_shutdown_line_and_cleans_up(self, tmp_path):
        env = dict(os.environ, TMPDIR=str(tmp_path), PYTHONPATH=os.pathsep
                   .join([os.path.dirname(os.path.dirname(repro.__file__)),
                          os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--demo",
             "--bits", "4", "--port", "0"],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            env=env)
        lines: "queue.Queue[str]" = queue.Queue()
        reader = threading.Thread(
            target=lambda: [lines.put(line) for line in proc.stderr],
            daemon=True)
        reader.start()
        try:
            seen = []
            while not any("listening on" in line for line in seen):
                seen.append(lines.get(timeout=60))
            proc.send_signal(signal.SIGINT)
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        reader.join(timeout=10)
        while not lines.empty():
            seen.append(lines.get())
        assert "repro serve: shutting down\n" in seen, "".join(seen)
        assert list(tmp_path.glob("repro-serve-*")) == []

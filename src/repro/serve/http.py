"""Minimal stdlib HTTP/1.1 front end over :class:`ModelServer`.

Just enough protocol for a load generator or ``curl`` to exercise the
serving path across a real socket -- no framework, no dependency:

``POST /infer``
    JSON body: ``{"model": key?, "inputs": nested-list? |
    "input_seed": int?, "deadline_ms": float?, "request_id": str?}``.
    Replies with the structured response summary
    (:meth:`InferenceResponse.to_dict`): 200 on success, 4xx/5xx keyed
    off ``error_kind`` -- a refusal is ``429``, an unknown model
    ``404``, a malformed request ``400``, everything operational
    ``500``.  The HTTP status is redundant with the JSON; clients
    should trust the JSON.

``GET /healthz``
    ``{"ok": bool, ...server.stats()}`` -- 200 while shards are alive,
    503 once they are all gone.

``GET /models``
    The served keys with fingerprints and quantization metadata.

``GET /metrics``
    The process's default metrics registry as Prometheus text
    (:func:`~repro.telemetry.metrics.prometheus_text`): request
    counters, latency histograms, shard and cache gauges.

:func:`http_loadgen` is the cross-process twin of
:func:`repro.serve.loadgen.run_loadgen`: the same replay loop sends
each request over urllib in executor threads, so one process can drive
another ("``repro loadgen --url``" against "``repro serve``").
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import json
import time
import urllib.error
import urllib.request
from typing import Any, Awaitable, Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.serve.loadgen import LoadReport, TraceEntry, _replay
from repro.serve.server import InferenceResponse, ModelServer
from repro.telemetry.events import get_logger
from repro.telemetry.metrics import default_registry, prometheus_text

__all__ = ["ServeHTTP", "http_loadgen"]

_STATUS_TEXT = {200: "OK", 400: "Bad Request", 404: "Not Found",
                429: "Too Many Requests", 500: "Internal Server Error",
                503: "Service Unavailable"}

_KIND_STATUS = {"": 200, "refused": 429, "unknown_model": 404,
                "bad_request": 400, "shutdown": 503}

_MAX_BODY = 16 * 1024 * 1024

_PROMETHEUS_TYPE = "text/plain; version=0.0.4"


class ServeHTTP:
    """One listening socket bound to one :class:`ModelServer`."""

    def __init__(self, server: ModelServer, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.server = server
        self.host = host
        self.port = port
        self._listener: Optional[asyncio.AbstractServer] = None
        self._log = get_logger()

    async def start(self) -> "ServeHTTP":
        self._listener = await asyncio.start_server(
            self._handle, self.host, self.port)
        self.port = self._listener.sockets[0].getsockname()[1]
        self._log.info("serve.http.listen", host=self.host, port=self.port)
        return self

    async def close(self) -> None:
        if self._listener is not None:
            self._listener.close()
            await self._listener.wait_closed()
            self._listener = None

    async def __aenter__(self) -> "ServeHTTP":
        return await self.start()

    async def __aexit__(self, *exc: Any) -> bool:
        await self.close()
        return False

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------- protocol
    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            status, body = await self._respond(reader)
        except Exception as exc:  # defensive: one bad socket != one crash
            status, body = 500, {"ok": False, "error": repr(exc),
                                 "error_kind": "exception"}
        if isinstance(body, str):
            payload, content_type = body.encode("utf-8"), _PROMETHEUS_TYPE
        else:
            payload = json.dumps(body).encode("utf-8")
            content_type = "application/json"
        head = (f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Status')}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(payload)}\r\n"
                f"Connection: close\r\n\r\n").encode("ascii")
        try:
            writer.write(head + payload)
            await writer.drain()
        except ConnectionError:
            pass
        finally:
            writer.close()

    async def _respond(self, reader: asyncio.StreamReader
                       ) -> Tuple[int, Union[Dict, str]]:
        request_line = (await reader.readline()).decode("latin-1").strip()
        parts = request_line.split()
        if len(parts) < 2:
            return 400, {"ok": False, "error": "malformed request line",
                         "error_kind": "bad_request"}
        method, target = parts[0].upper(), parts[1]
        length = 0
        while True:
            line = (await reader.readline()).decode("latin-1").strip()
            if not line:
                break
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                try:
                    length = int(value.strip())
                except ValueError:
                    length = -1
                if length < 0:
                    return 400, {"ok": False,
                                 "error": "bad content-length",
                                 "error_kind": "bad_request"}
        if method == "GET" and target == "/healthz":
            stats = self.server.stats()
            ok = stats["running"] and stats["shards_alive"] > 0
            return (200 if ok else 503), {"ok": ok, **stats}
        if method == "GET" and target == "/models":
            return 200, {"ok": True, "models": self.server.models()}
        if method == "GET" and target == "/metrics":
            return 200, prometheus_text(default_registry())
        if method == "POST" and target == "/infer":
            if length > _MAX_BODY:
                return 400, {"ok": False, "error": "body too large",
                             "error_kind": "bad_request"}
            try:
                raw = await reader.readexactly(length) if length else b"{}"
            except asyncio.IncompleteReadError:
                return 400, {"ok": False,
                             "error": "body shorter than Content-Length",
                             "error_kind": "bad_request"}
            try:
                request = json.loads(raw.decode("utf-8"))
                if not isinstance(request, dict):
                    raise ValueError("body must be a JSON object")
            except (ValueError, UnicodeDecodeError) as exc:
                return 400, {"ok": False, "error": f"bad JSON body: {exc}",
                             "error_kind": "bad_request"}
            return await self._infer(request)
        return 404, {"ok": False, "error": f"no route {method} {target}",
                     "error_kind": "bad_request"}

    async def _infer(self, request: Dict[str, Any]) -> Tuple[int, Dict]:
        inputs = request.get("inputs")
        if inputs is not None:
            try:
                inputs = np.asarray(inputs, dtype=np.float32)
            except (ValueError, TypeError) as exc:
                return 400, {"ok": False,
                             "error": f"bad inputs: {exc}",
                             "error_kind": "bad_request"}
        response = await self.server.infer(
            inputs=inputs,
            model=request.get("model"),
            input_seed=request.get("input_seed"),
            deadline_ms=request.get("deadline_ms"),
            request_id=request.get("request_id"))
        status = _KIND_STATUS.get(response.error_kind, 500)
        return status, response.to_dict()


# ------------------------------------------------------------- HTTP loadgen
def _post_infer(url: str, body: Dict[str, Any],
                timeout_s: float) -> Optional[InferenceResponse]:
    data = json.dumps(body).encode("utf-8")
    request = urllib.request.Request(
        f"{url.rstrip('/')}/infer", data=data,
        headers={"Content-Type": "application/json"}, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=timeout_s) as reply:
            record = json.loads(reply.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        try:
            record = json.loads(exc.read().decode("utf-8"))
        except Exception:
            return None
    except (urllib.error.URLError, OSError, ValueError):
        return None
    try:
        return InferenceResponse.from_dict(record)
    except (AttributeError, TypeError, ValueError):  # not a response record
        return None


async def http_loadgen(url: str, trace: Sequence[TraceEntry],
                       time_scale: float = 1.0,
                       timeout_s: float = 30.0) -> LoadReport:
    """Replay ``trace`` against a remote ``repro serve`` over HTTP.

    The replay loop of :func:`run_loadgen`, each request a POST run by
    urllib in a thread of its own executor, sized to the trace (up to
    32) so slow replies do not hold later arrivals back.  Connection
    failures count as lost requests, never exceptions -- the generator
    survives a refusing (or absent) server.
    """
    loop = asyncio.get_running_loop()
    executor = concurrent.futures.ThreadPoolExecutor(
        max_workers=min(32, max(4, len(trace))),
        thread_name_prefix="loadgen-http")

    def post(**fields: Any) -> Awaitable[Optional[InferenceResponse]]:
        body = {key: value for key, value in fields.items()
                if value is not None}
        return loop.run_in_executor(executor, _post_infer, url, body,
                                    timeout_s)

    try:
        return await _replay(trace, post, time_scale, time.monotonic,
                             asyncio.sleep)
    finally:
        executor.shutdown(wait=False)

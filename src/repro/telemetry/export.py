"""Live metrics export: Prometheus text endpoint + JSON health heartbeat.

A long sweep or training run is otherwise a black box until its JSONL
files are read back; :class:`MetricsExporter` opens a tiny pull-based
window into the live process, the same shape production training stacks
use.  A background ``http.server`` thread serves two routes:

``GET /metrics``
    The default :class:`~repro.telemetry.metrics.MetricsRegistry` in
    Prometheus text exposition format (counters, gauges, and native
    ``_bucket`` histograms), every name prefixed ``repro_``.

``GET /health``
    A JSON heartbeat: run id, uptime, and whatever the process has
    published through :func:`update_health` -- current epoch, last probe
    tick, pipeline stage, worker liveness -- merged with the pool's
    liveness gauges from the registry.

Start it from the CLI with ``repro ... --serve-metrics PORT`` (the bound
endpoint is recorded in the RunManifest) or programmatically::

    exporter = serve_metrics(port=0)        # 0 = ephemeral port
    print(exporter.url)                     # http://127.0.0.1:PORT
    ...
    stop_exporter()

The server binds to ``127.0.0.1`` by default: this is an operator
diagnostic, not a public service.
"""

from __future__ import annotations

import http.server
import json
import math
import re
import threading
import time
from typing import Any, Callable, Dict, Optional

from repro.errors import ConfigError
from repro.telemetry.metrics import MetricsRegistry, default_registry
from repro.telemetry.slo import EDGES

# --------------------------------------------------------------------------
# Health heartbeat: a process-wide mutable scoreboard.  Pipeline stages
# call update_health(...) as they go; /health serves the merged view.
# --------------------------------------------------------------------------

_health: Dict[str, Any] = {}
_health_lock = threading.Lock()


def update_health(**fields: Any) -> None:
    """Publish fields into the process-wide health heartbeat.

    Cheap (a dict update under a lock), safe to call whether or not an
    exporter is running -- instrumented code calls it unconditionally.
    """
    with _health_lock:
        _health.update(fields)


def health_snapshot() -> Dict[str, Any]:
    with _health_lock:
        return dict(_health)


def reset_health() -> None:
    with _health_lock:
        _health.clear()


# --------------------------------------------------------------------------
# Prometheus text exposition
# --------------------------------------------------------------------------

_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")


def _prom_name(name: str) -> str:
    """``trainer.images_per_s`` -> ``repro_trainer_images_per_s``."""
    return "repro_" + _NAME_RE.sub("_", name)


def _prom_value(value: Any) -> str:
    value = float(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(value)


def prometheus_text(registry: Optional[MetricsRegistry] = None) -> str:
    """Render a registry in the Prometheus text exposition format.

    Counters and gauges map directly.  Histograms
    (:class:`~repro.telemetry.slo.SloHistogram`) render as *native*
    Prometheus histograms -- cumulative ``_bucket{le="..."}`` series
    over the fixed layout plus ``_sum``/``_count`` -- so
    ``histogram_quantile()`` works on them server-side; one with an SLO
    target also exposes its breach tally as a ``_breaches`` counter.
    """
    registry = registry if registry is not None else default_registry()
    typed = registry.typed_snapshot()
    lines = []
    for name, value in typed["counters"].items():
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} counter")
        lines.append(f"{prom} {_prom_value(value)}")
    for name, value in typed["gauges"].items():
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} gauge")
        lines.append(f"{prom} {_prom_value(value)}")
    for name, snap in typed["histograms"].items():
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} histogram")
        cumulative = 0
        for edge, count in zip(EDGES, snap["counts"]):
            cumulative += int(count)
            lines.append(f'{prom}_bucket{{le="{edge:g}"}} {cumulative}')
        lines.append(f'{prom}_bucket{{le="+Inf"}} {int(snap["count"])}')
        lines.append(f"{prom}_sum {_prom_value(snap['sum'])}")
        lines.append(f"{prom}_count {_prom_value(snap['count'])}")
        if "slo" in snap:
            lines.append(f"# TYPE {prom}_breaches counter")
            lines.append(f"{prom}_breaches {_prom_value(snap['breaches'])}")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# The HTTP server
# --------------------------------------------------------------------------

class _Handler(http.server.BaseHTTPRequestHandler):
    server_version = "repro-exporter"

    def log_message(self, *args: Any) -> None:  # silence request logging
        pass

    def _respond(self, status: int, content_type: str, body: str) -> None:
        payload = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        exporter: "MetricsExporter" = self.server.exporter  # type: ignore[attr-defined]
        try:
            if self.path in ("/metrics", "/metrics/"):
                self._respond(200, "text/plain; version=0.0.4",
                              prometheus_text(exporter.registry))
            elif self.path in ("/health", "/health/"):
                self._respond(200, "application/json",
                              json.dumps(exporter.health(), sort_keys=True))
            else:
                self._respond(404, "text/plain", "not found\n")
        except Exception as exc:
            try:
                self._respond(500, "text/plain", f"exporter error: {exc!r}\n")
            except Exception:
                pass


class _Server(http.server.ThreadingHTTPServer):
    daemon_threads = True
    exporter: "MetricsExporter"


class MetricsExporter:
    """Background HTTP server exposing /metrics and /health.

    Args:
        port: TCP port to bind; 0 picks an ephemeral port (read the
            bound one back from :attr:`port` / :attr:`url`).
        host: bind address, loopback by default.
        registry: metrics source, the default registry when omitted.
        clock: time source for ``started_at`` / ``uptime_s`` (default
            ``time.time``; tests inject a fake clock so uptime
            assertions are exact rather than sleep-based).
    """

    def __init__(self, port: int = 0, host: str = "127.0.0.1",
                 registry: Optional[MetricsRegistry] = None,
                 clock: Callable[[], float] = time.time) -> None:
        if not (0 <= int(port) <= 65535):
            raise ConfigError(f"port must be in [0, 65535], got {port}")
        self.registry = registry if registry is not None else default_registry()
        self.clock = clock
        self.started_at = clock()
        self._server = _Server((host, int(port)), _Handler)
        self._server.exporter = self
        self._thread: Optional[threading.Thread] = None

    # -------------------------------------------------------------- address
    @property
    def host(self) -> str:
        return self._server.server_address[0]

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------ lifecycle
    def start(self) -> "MetricsExporter":
        if self._thread is not None:
            return self
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        kwargs={"poll_interval": 0.1},
                                        daemon=True, name="repro-exporter")
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is None:
            return
        self._server.shutdown()
        self._thread.join(timeout=2.0)
        self._server.server_close()
        self._thread = None

    def __enter__(self) -> "MetricsExporter":
        return self.start()

    def __exit__(self, *exc: Any) -> bool:
        self.stop()
        return False

    # --------------------------------------------------------------- health
    def health(self) -> Dict[str, Any]:
        """The /health payload: run identity + published heartbeat +
        worker liveness derived from the pool's registry metrics."""
        from repro.telemetry.events import get_logger

        flat = self.registry.flat_snapshot()
        payload: Dict[str, Any] = {
            "status": "ok",
            "run_id": get_logger().run_id,
            "uptime_s": round(self.clock() - self.started_at, 3),
            "workers_alive": int(flat.get("pool.workers_alive", 0.0)),
            "worker_crashes": int(flat.get("pool.worker_crashes", 0.0)),
            "alerts_total": int(flat.get("alerts.total", 0.0)),
        }
        payload.update(health_snapshot())
        return payload


# --------------------------------------------------------------------------
# Module-level singleton, mirroring trace.set_recorder's shape
# --------------------------------------------------------------------------

_active: Optional[MetricsExporter] = None


def active_exporter() -> Optional[MetricsExporter]:
    return _active


def serve_metrics(port: int = 0, host: str = "127.0.0.1",
                  registry: Optional[MetricsRegistry] = None,
                  clock: Callable[[], float] = time.time) -> MetricsExporter:
    """Start (or return the already-running) process-wide exporter."""
    global _active
    if _active is not None:
        return _active
    _active = MetricsExporter(port=port, host=host, registry=registry,
                              clock=clock).start()
    return _active


def stop_exporter() -> None:
    """Stop and discard the process-wide exporter, if any."""
    global _active
    if _active is not None:
        _active.stop()
        _active = None

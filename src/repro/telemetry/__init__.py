"""Observability layer: metrics, tracing and attribution, structured logging.

Three pieces, designed to stay permanently wired into the library's hot
paths at near-zero disabled cost:

* :mod:`repro.telemetry.metrics` -- counters / gauges / fixed-bucket
  histograms (:mod:`repro.telemetry.slo`, exactly mergeable across
  processes) in a process-global :func:`default_registry`, rendered as
  a table (:func:`render_metrics`, also over a manifest's recorded
  snapshot) or as Prometheus text (:func:`prometheus_text`, served by
  ``repro serve`` on ``GET /metrics``).
* :mod:`repro.telemetry.trace` -- nested wall-time spans via
  ``with span(name):``, exported as JSONL or Chrome trace format.  While
  a recorder is active, backend kernel time rides on the innermost open
  span, and :func:`attribute` tiles each process lane of a trace into
  span self time, kernel time and ``unattributed`` (``repro analyze``).
* :mod:`repro.telemetry.events` -- leveled JSONL event log plus the
  :class:`RunManifest` written next to experiment results.

Quick look at everything after a run::

    from repro.telemetry import default_registry
    print(default_registry().render_table())
"""

from repro.telemetry.metrics import (
    Counter,
    Gauge,
    MetricsRegistry,
    default_registry,
    prometheus_text,
    render_metrics,
)
from repro.telemetry.slo import EDGES, SloHistogram
from repro.telemetry.trace import (
    Lane,
    SpanRecord,
    TraceContext,
    TraceRecorder,
    attribute,
    current_trace_context,
    get_recorder,
    read_trace,
    recording,
    render_lanes,
    set_recorder,
    span,
    timed_stage,
    worker_recorder,
)
from repro.telemetry.events import (
    EventLogger,
    RunManifest,
    config_fingerprint,
    configure_logging,
    get_logger,
    new_run_id,
)
from repro.telemetry.tables import format_records, format_table, percent

__all__ = [
    "Counter", "Gauge", "MetricsRegistry",
    "default_registry", "prometheus_text", "render_metrics",
    "SloHistogram", "EDGES",
    "SpanRecord", "TraceContext", "TraceRecorder", "span", "recording",
    "get_recorder", "set_recorder", "timed_stage", "current_trace_context",
    "worker_recorder", "Lane", "read_trace", "attribute",
    "render_lanes",
    "EventLogger", "RunManifest", "config_fingerprint", "configure_logging",
    "get_logger", "new_run_id",
    "format_records", "format_table", "percent",
]

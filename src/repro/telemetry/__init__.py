"""Observability layer: metrics, tracing, structured logging, profiling.

Four pieces, designed to stay permanently wired into the library's hot
paths at near-zero disabled cost:

* :mod:`repro.telemetry.metrics` -- counters / gauges / fixed-bucket
  histograms (:mod:`repro.telemetry.slo`, exactly mergeable across
  processes) in a process-global :func:`default_registry`.
* :mod:`repro.telemetry.trace` -- nested wall-time spans via
  ``with span(name):``, exported as JSONL or Chrome trace format.
* :mod:`repro.telemetry.events` -- leveled JSONL event log plus the
  :class:`RunManifest` written next to experiment results.
* :mod:`repro.telemetry.profiler` -- per-op forward/backward timing of
  the autograd dispatch (``with profile() as prof:``).

Quick look at everything after a run::

    from repro.telemetry import default_registry
    print(default_registry().render_table())
"""

from repro.telemetry.metrics import (
    Counter,
    Gauge,
    MetricsRegistry,
    default_registry,
)
from repro.telemetry.slo import EDGES, SloHistogram
from repro.telemetry.trace import (
    SpanRecord,
    TraceContext,
    TraceRecorder,
    current_trace_context,
    get_recorder,
    recording,
    set_recorder,
    span,
    timed_stage,
    worker_recorder,
)
from repro.telemetry.sampler import StackSampler, compare_with_profile
from repro.telemetry.export import (
    MetricsExporter,
    active_exporter,
    health_snapshot,
    prometheus_text,
    serve_metrics,
    stop_exporter,
    update_health,
)
from repro.telemetry.events import (
    EventLogger,
    RunManifest,
    config_fingerprint,
    configure_logging,
    get_logger,
    new_run_id,
)
from repro.telemetry.profiler import (
    KernelStat,
    OpProfile,
    OpStat,
    active_profile,
    profile,
)
from repro.telemetry.tables import format_records, format_table, percent

__all__ = [
    "Counter", "Gauge", "MetricsRegistry",
    "default_registry", "SloHistogram", "EDGES",
    "SpanRecord", "TraceContext", "TraceRecorder", "span", "recording",
    "get_recorder", "set_recorder", "timed_stage", "current_trace_context",
    "worker_recorder",
    "StackSampler", "compare_with_profile",
    "MetricsExporter", "active_exporter", "health_snapshot",
    "prometheus_text", "serve_metrics", "stop_exporter", "update_health",
    "EventLogger", "RunManifest", "config_fingerprint", "configure_logging",
    "get_logger", "new_run_id",
    "KernelStat", "OpProfile", "OpStat", "active_profile", "profile",
    "format_records", "format_table", "percent",
]

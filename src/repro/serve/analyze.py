"""The request view of a trace: tail-latency attribution for serving.

:func:`~repro.telemetry.trace.attribute` tiles a trace's process lanes
and leaves out the per-request span trees, which overlap one another by
design.  This module reads those trees from the same parsed events
(:func:`~repro.telemetry.trace.read_trace`) -- a ``--trace-out`` trace
and a flight-recorder dump are both Chrome traces written by
:func:`~repro.serve.tracing.emit_request` -- and answers the on-call
questions:

* **where does the time go** -- per-stage latency percentiles
  (admission / queue / batch / infer), whose stage means sum back to
  the end-to-end mean because the stages tile each request exactly;
* **which requests are the tail** -- the top-K slowest with their
  stage breakdown, so a queue-dominated p99 reads differently from a
  compute-dominated one;
* **queueing or compute** -- the aggregate split of wall time spent
  waiting for dispatch vs. inside the shard handler;
* **which artifact is slow** -- per-model percentile rows.

Everything is stdlib + exact arithmetic on the recorded numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.errors import ServeError
from repro.serve.tracing import REQUEST_SPAN
from repro.telemetry.slo import nearest_rank
from repro.telemetry.tables import format_table

__all__ = ["RequestRecord", "request_records", "analyze_requests",
           "render_analysis"]

#: Stage keys in pipeline order (the tiling stages, then the overlay).
STAGE_KEYS = ("admission_ms", "queue_ms", "batch_ms", "infer_ms")


@dataclass
class RequestRecord:
    """One analyzed request, rebuilt from its span tree."""

    request_id: str
    model: str = ""
    outcome: str = "ok"
    shard: int = -1
    batch_size: int = 0
    latency_ms: float = 0.0
    admission_ms: Optional[float] = None
    queue_ms: Optional[float] = None
    batch_ms: Optional[float] = None
    infer_ms: Optional[float] = None

    @property
    def ok(self) -> bool:
        return self.outcome == "ok"

    def stage(self, key: str) -> Optional[float]:
        return getattr(self, key)


def request_records(trace: Mapping[str, Any]) -> List[RequestRecord]:
    """One record per request in a parsed Chrome trace, in file order.

    Groups ``ph: "X"`` events by their ``args.request_id``: the
    ``serve.request`` root carries identity/outcome/latency, the
    ``serve.request.<stage>`` children carry the stage durations.
    """
    by_request: Dict[str, RequestRecord] = {}
    for event in trace.get("traceEvents", ()):
        if event.get("ph") != "X":
            continue
        name = str(event.get("name", ""))
        if not name.startswith(REQUEST_SPAN):
            continue
        args = event.get("args", {}) or {}
        request_id = str(args.get("request_id", ""))
        if not request_id:
            continue
        record = by_request.get(request_id)
        if record is None:
            record = by_request[request_id] = RequestRecord(request_id)
        duration_ms = float(event.get("dur", 0.0)) / 1e3
        if name == REQUEST_SPAN:
            record.model = str(args.get("model", ""))
            record.outcome = str(args.get("outcome", "ok"))
            record.shard = int(args.get("shard", -1))
            record.batch_size = int(args.get("batch_size", 0))
            record.latency_ms = float(args.get("latency_ms", duration_ms))
        else:
            stage = name[len(REQUEST_SPAN) + 1:]  # admission/queue/...
            key = f"{stage}_ms"
            if key in STAGE_KEYS:
                setattr(record, key, duration_ms)
    return list(by_request.values())


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def _stat_row(values: Sequence[float]) -> Dict[str, float]:
    if not values:
        return {"count": 0, "mean": float("nan"), "p50": float("nan"),
                "p90": float("nan"), "p99": float("nan"),
                "max": float("nan")}
    return {
        "count": len(values),
        "mean": sum(values) / len(values),
        "p50": nearest_rank(values, 0.50),
        "p90": nearest_rank(values, 0.90),
        "p99": nearest_rank(values, 0.99),
        "max": max(values),
    }


def analyze_requests(records: Sequence[RequestRecord],
                     top: int = 5) -> Dict[str, Any]:
    """The full attribution report as plain data (rendered separately).

    Keys: ``stages`` (per-stage stat rows, ``e2e`` last -- the tiling
    stages' means sum to the ``e2e`` mean up to refused requests that
    never queued), ``slowest`` (top-K by latency), ``split``
    (queue-wait vs compute vs other fractions of total wall time),
    ``models`` (per-artifact stat rows), ``outcomes`` (tally by
    outcome), and ``count``.
    """
    if not records:
        raise ServeError("no request records to analyze")
    top = max(0, int(top))

    stages: Dict[str, Dict[str, float]] = {}
    for key in STAGE_KEYS:
        values = [r.stage(key) for r in records if r.stage(key) is not None]
        stages[key] = _stat_row([float(v) for v in values])
    stages["e2e"] = _stat_row([r.latency_ms for r in records])

    slowest = sorted(records, key=lambda r: r.latency_ms, reverse=True)[:top]

    total_wall = sum(r.latency_ms for r in records)
    queue_wait = sum((r.admission_ms or 0.0) + (r.queue_ms or 0.0)
                     for r in records)
    compute = sum(r.infer_ms or 0.0 for r in records)
    other = max(0.0, total_wall - queue_wait - compute)
    split = {
        "total_ms": total_wall,
        "queue_wait_ms": queue_wait,
        "compute_ms": compute,
        "other_ms": other,
        "queue_wait_frac": queue_wait / total_wall if total_wall else 0.0,
        "compute_frac": compute / total_wall if total_wall else 0.0,
    }

    models: Dict[str, Dict[str, float]] = {}
    for model in sorted({r.model for r in records}):
        latencies = [r.latency_ms for r in records if r.model == model]
        models[model or "<unknown>"] = _stat_row(latencies)

    outcomes: Dict[str, int] = {}
    for record in records:
        outcomes[record.outcome] = outcomes.get(record.outcome, 0) + 1

    return {"count": len(records), "stages": stages, "slowest": slowest,
            "split": split, "models": models, "outcomes": outcomes}


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def render_analysis(report: Mapping[str, Any], source: str = "") -> str:
    """Human-readable report text for ``repro analyze``."""
    def ms(value: Optional[float]) -> Any:
        return "-" if value is None or math.isnan(value) else value

    title = f"request analysis: {report['count']} requests"
    if source:
        title += f"  ({source})"
    outcomes = ", ".join(f"{name}={count}" for name, count
                         in sorted(report["outcomes"].items()))
    blocks = [f"{title}\noutcomes: {outcomes}"]

    blocks.append(format_table(
        ["stage", "count", "mean", "p50", "p90", "p99", "max"],
        [[key[:-3] if key.endswith("_ms") else key, int(row["count"])]
         + [ms(row[col]) for col in ("mean", "p50", "p90", "p99", "max")]
         for key, row in report["stages"].items()],
        title="latency by stage (ms):"))

    split = report["split"]
    blocks.append(
        f"queue-wait vs compute: {split['queue_wait_frac']:.1%} waiting, "
        f"{split['compute_frac']:.1%} computing "
        f"(of {split['total_ms']:.1f} ms total request wall time)")

    if report["slowest"]:
        blocks.append(format_table(
            ["request", "outcome", "latency", "admission", "queue",
             "infer", "batch"],
            [[r.request_id, r.outcome, r.latency_ms, ms(r.admission_ms),
              ms(r.queue_ms), ms(r.infer_ms), r.batch_size]
             for r in report["slowest"]],
            title=f"top {len(report['slowest'])} slowest requests (ms):"))

    blocks.append(format_table(
        ["artifact", "count", "mean", "p50", "p99"],
        [[model, int(row["count"]), ms(row["mean"]), ms(row["p50"]),
          ms(row["p99"])] for model, row in report["models"].items()],
        title="latency by artifact (ms):"))
    return "\n\n".join(blocks) + "\n"

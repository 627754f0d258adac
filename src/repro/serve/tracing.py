"""Per-request tracing, SLO accounting, and the flight recorder.

PR 7 made the serving path observable in *aggregate* (throughput
counters, latency histograms).  This module makes individual requests
observable: every admitted request carries a :class:`RequestContext`
from admission through :class:`~repro.serve.batcher.DeadlineBatcher`
coalescing, :class:`~repro.parallel.shards.ShardPool` dispatch, and the
shard's eager forward, and on completion the :class:`RequestTracer`

* emits one **span tree** per request into the active PR-6
  :class:`~repro.telemetry.trace.TraceRecorder` -- a ``serve.request``
  parent with contiguous ``admission`` / ``queue`` / ``batch`` children
  (plus an ``infer`` grandchild for the shard round-trip), each request
  on its own Chrome-trace lane so overlapping requests stay readable;
* observes per-stage latency into **SLO histograms**
  (``serve.slo.{admission,queue,infer,latency}_ms``,
  :class:`~repro.telemetry.slo.SloHistogram`) whose bucket vectors
  merge exactly across shard workers and whose ``latency_ms`` target
  feeds the ``latency_slo`` burn-rate alert rule;
* appends a compact record to the bounded in-memory **flight
  recorder**, a ring of the last N requests (id, artifact, shape,
  per-stage timings, outcome) that :meth:`RequestTracer.dump_flight`
  writes to JSONL when an alert fires or a shard crashes -- the
  post-mortem ``repro analyze`` reads.

Everything here is clock-injected: the tracer converts the server's
(possibly fake) clock into the recorder's timebase with a one-time
offset captured at attachment, so property tests can drive arrival
patterns deterministically and still assert span monotonicity.
"""

from __future__ import annotations

import heapq
import json
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.telemetry.metrics import MetricsRegistry, default_registry
from repro.telemetry.trace import TraceRecorder

__all__ = ["RequestContext", "FlightRecorder", "RequestTracer",
           "FLIGHT_FORMAT", "LANE_TID_BASE", "REQUEST_SPAN",
           "STAGE_SPANS"]

#: Header tag of a flight-recorder JSONL dump.
FLIGHT_FORMAT = "repro-flight-v1"

#: Synthetic Chrome-trace tid for request lane 0; real thread idents on
#: Linux are pointers (far larger), so these never collide.
LANE_TID_BASE = 1000

REQUEST_SPAN = "serve.request"
STAGE_SPANS = ("serve.request.admission", "serve.request.queue",
               "serve.request.batch", "serve.request.infer")


@dataclass
class RequestContext:
    """One request's identity and stage stamps, minted at admission.

    Timestamps are in the server's clock domain (``t_*`` fields,
    seconds); a stage that never happened stays ``None`` (a refused
    request has no dispatch stamp).  The context rides the batcher's
    opaque ``context`` slot next to the response future, so it crosses
    the coalescing queue without the batcher knowing about tracing.
    """

    request_id: str
    model: str
    trace_id: str = ""
    lane: int = -1
    input_shape: Tuple[int, ...] = ()
    t_admit: float = 0.0
    t_submit: Optional[float] = None
    t_dispatch: Optional[float] = None
    t_done: Optional[float] = None
    batch_size: int = 0
    shard: int = -1
    ok: bool = False
    error_kind: str = ""
    infer_s: float = 0.0

    # ------------------------------------------------------------ derived ms
    def stage_ms(self) -> Dict[str, float]:
        """Per-stage durations in milliseconds (only stages that ran).

        ``admission`` + ``queue`` + ``batch`` tile ``[t_admit, t_done]``
        exactly, so they sum to ``latency_ms`` by construction; a
        request that failed before a stage simply lacks that key.
        """
        stages: Dict[str, float] = {}
        if self.t_done is None:
            return stages
        if self.t_submit is not None:
            stages["admission_ms"] = (self.t_submit - self.t_admit) * 1e3
            end_queue = self.t_dispatch if self.t_dispatch is not None \
                else self.t_done
            stages["queue_ms"] = (end_queue - self.t_submit) * 1e3
        if self.t_dispatch is not None:
            stages["batch_ms"] = (self.t_done - self.t_dispatch) * 1e3
            stages["infer_ms"] = self.infer_s * 1e3
        stages["latency_ms"] = (self.t_done - self.t_admit) * 1e3
        return stages

    def to_record(self) -> Dict[str, Any]:
        """Flight-recorder line: JSON-ready, one request per line."""
        record: Dict[str, Any] = {
            "request_id": self.request_id,
            "model": self.model,
            "input_shape": list(self.input_shape),
            "ok": self.ok,
            "outcome": "ok" if self.ok else (self.error_kind or "error"),
            "shard": self.shard,
            "batch_size": self.batch_size,
            "t_admit": self.t_admit,
        }
        for key, value in self.stage_ms().items():
            record[key] = round(value, 4)
        return record


class FlightRecorder:
    """Bounded ring of the last N finished-request records.

    Cheap enough to run always (a deque append per request); the value
    is at dump time -- when an alert fires or a shard dies, the ring
    holds exactly the requests leading up to the event.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            from repro.errors import ServeError
            raise ServeError(f"flight capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._ring: deque = deque(maxlen=self.capacity)
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._ring)

    def record(self, record: Dict[str, Any]) -> None:
        with self._lock:
            self._ring.append(record)

    def records(self) -> List[Dict[str, Any]]:
        with self._lock:
            return list(self._ring)

    def dump(self, path: os.PathLike, reason: str = "manual",
             **extra: Any) -> int:
        """Write header + one JSON line per request; returns line count."""
        records = self.records()
        header = {"flight": FLIGHT_FORMAT, "reason": reason,
                  "capacity": self.capacity, "records": len(records)}
        header.update(extra)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header, sort_keys=True) + "\n")
            for record in records:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        return len(records)


class RequestTracer:
    """Stage observer for the serving path: spans + SLOs + flight ring.

    Args:
        recorder: the span sink; ``None`` (no ``--trace-out``) skips
            span emission but keeps SLO histograms and the flight ring.
        clock: the *server's* monotonic clock (injectable).  Stage
            stamps are taken with it; at construction the tracer
            measures the offset between this clock and the recorder's
            ``perf_counter`` origin, so emitted spans land on the
            recorder timeline even under a simulated clock.
        slo_ms: end-to-end latency target; responses above it count as
            breaches on ``serve.slo.latency_ms`` (the burn-rate rule's
            numerator).
        flight_capacity: ring size of the flight recorder.
        flight_dir: where :meth:`dump_flight` writes JSONL dumps; with
            ``None`` dumps are skipped (the ring still fills and stays
            readable in-process).
        registry: metrics sink, the process default when omitted.
    """

    def __init__(self, recorder: Optional[TraceRecorder] = None,
                 clock: Callable[[], float] = time.monotonic,
                 slo_ms: float = 250.0,
                 flight_capacity: int = 256,
                 flight_dir: Optional[os.PathLike] = None,
                 registry: Optional[MetricsRegistry] = None) -> None:
        self.recorder = recorder
        self.clock = clock
        self.slo_ms = float(slo_ms)
        self.flight = FlightRecorder(flight_capacity)
        self.flight_dir = os.fspath(flight_dir) if flight_dir is not None \
            else None
        self.registry = registry if registry is not None \
            else default_registry()
        self._offset = 0.0
        if recorder is not None:
            # recorder timestamps are perf_counter() - recorder._origin;
            # server stamps are clock().  One offset converts between
            # the domains; captured once so a fake clock stays affine.
            self._offset = (time.perf_counter() - recorder._origin) \
                - clock()
        self._lock = threading.Lock()
        self._free_lanes: List[int] = []
        self._next_lane = 0
        self._labeled: set = set()
        self._dumped_reasons: set = set()
        self._dump_seq = 0
        # SLO histograms are created eagerly so a zero-traffic snapshot
        # still shows the serving SLO surface (and its target); the
        # references are cached because finish() is on every request's
        # path and the registry accessor takes a lock per lookup
        self._slo_latency = self.registry.histogram("serve.slo.latency_ms",
                                                    slo=self.slo_ms)
        self._slo_stages = {
            f"{stage}_ms": self.registry.histogram(f"serve.slo.{stage}_ms")
            for stage in ("admission", "queue", "infer")
        }

    # ----------------------------------------------------------------- lanes
    def _acquire_lane(self) -> int:
        with self._lock:
            if self._free_lanes:
                return heapq.heappop(self._free_lanes)
            lane = self._next_lane
            self._next_lane += 1
            return lane

    def _release_lane(self, lane: int) -> None:
        if lane < 0:
            return
        with self._lock:
            heapq.heappush(self._free_lanes, lane)

    # ----------------------------------------------------------- stage hooks
    def admit(self, request_id: str, model: str,
              input_shape: Tuple[int, ...] = ()) -> RequestContext:
        """Mint the per-request context at the admission boundary."""
        recorder = self.recorder
        ctx = RequestContext(
            request_id=str(request_id), model=str(model),
            trace_id=recorder.trace_id if recorder is not None else "",
            lane=self._acquire_lane() if recorder is not None else -1,
            input_shape=tuple(int(d) for d in input_shape),
            t_admit=self.clock(),
        )
        return ctx

    def mark_submitted(self, ctx: Optional[RequestContext]) -> None:
        """The request entered the batcher queue."""
        if ctx is not None:
            ctx.t_submit = self.clock()

    def mark_dispatched(self, ctx: Optional[RequestContext],
                        batch_size: int = 0) -> None:
        """The request left the queue inside a dispatched batch."""
        if ctx is not None:
            ctx.t_dispatch = self.clock()
            ctx.batch_size = int(batch_size)

    def finish(self, ctx: Optional[RequestContext], ok: bool,
               error_kind: str = "", shard: int = -1,
               batch_size: Optional[int] = None,
               infer_s: float = 0.0) -> None:
        """Close the request: spans, SLO observations, flight record."""
        if ctx is None or ctx.t_done is not None:
            return
        ctx.t_done = self.clock()
        ctx.ok = bool(ok)
        ctx.error_kind = str(error_kind)
        ctx.shard = int(shard)
        if batch_size is not None:
            ctx.batch_size = int(batch_size)
        ctx.infer_s = float(infer_s)
        stages = ctx.stage_ms()
        for key, histogram in self._slo_stages.items():
            if key in stages:
                histogram.observe(stages[key])
        self._slo_latency.observe(stages["latency_ms"])
        self.flight.record(ctx.to_record())
        self._emit_spans(ctx, stages)
        self._release_lane(ctx.lane)

    # ----------------------------------------------------------------- spans
    def _to_recorder_time(self, t: float) -> float:
        return t + self._offset

    def _emit_spans(self, ctx: RequestContext,
                    stages: Dict[str, float]) -> None:
        recorder = self.recorder
        if recorder is None or ctx.t_done is None:
            return
        tid = LANE_TID_BASE + max(0, ctx.lane)
        if tid not in self._labeled:
            self._labeled.add(tid)
            recorder.label_thread(tid, f"request lane {max(0, ctx.lane)}")

        def emit(name: str, start: float, end: float, depth: int,
                 parent_id: int, **attrs: Any) -> int:
            span_id = recorder.next_span_id()
            recorder.add(
                name, self._to_recorder_time(start),
                max(0.0, end - start), depth, attrs,
                span_id=span_id, parent_id=parent_id, thread_id=tid)
            return span_id

        root = emit(
            REQUEST_SPAN, ctx.t_admit, ctx.t_done, 0, 0,
            request_id=ctx.request_id, model=ctx.model,
            outcome="ok" if ctx.ok else (ctx.error_kind or "error"),
            shard=ctx.shard, batch_size=ctx.batch_size,
            latency_ms=round(stages.get("latency_ms", 0.0), 4))
        if ctx.t_submit is not None:
            emit("serve.request.admission", ctx.t_admit, ctx.t_submit,
                 1, root, request_id=ctx.request_id)
            end_queue = ctx.t_dispatch if ctx.t_dispatch is not None \
                else ctx.t_done
            emit("serve.request.queue", ctx.t_submit, end_queue,
                 1, root, request_id=ctx.request_id)
        else:
            # failed at admission: the whole request was admission
            emit("serve.request.admission", ctx.t_admit, ctx.t_done,
                 1, root, request_id=ctx.request_id)
        if ctx.t_dispatch is not None:
            batch = emit("serve.request.batch", ctx.t_dispatch, ctx.t_done,
                         1, root, request_id=ctx.request_id,
                         batch_size=ctx.batch_size)
            infer_start = max(ctx.t_dispatch, ctx.t_done - ctx.infer_s)
            emit("serve.request.infer", infer_start, ctx.t_done,
                 2, batch, request_id=ctx.request_id, shard=ctx.shard)

    # ------------------------------------------------------ flight dump path
    def dump_flight(self, reason: str,
                    once_per_reason: bool = True) -> Optional[str]:
        """Dump the flight ring to ``flight_dir`` (JSONL); returns path.

        ``once_per_reason`` latches each reason so a sustained alert
        storm produces one post-mortem, not thousands; returns ``None``
        when latched, unconfigured (no ``flight_dir``), or the ring is
        empty.
        """
        if self.flight_dir is None or not len(self.flight):
            return None
        with self._lock:
            if once_per_reason and reason in self._dumped_reasons:
                return None
            self._dumped_reasons.add(reason)
            self._dump_seq += 1
            seq = self._dump_seq
        safe = "".join(c if c.isalnum() or c in "-_" else "-"
                       for c in reason) or "dump"
        path = os.path.join(self.flight_dir, f"flight-{seq:03d}-{safe}.jsonl")
        try:
            os.makedirs(self.flight_dir, exist_ok=True)
            self.flight.dump(path, reason=reason, slo_ms=self.slo_ms)
        except OSError:
            return None  # a full disk must not take the serving path down
        self.registry.counter("serve.flight_dumps").inc()
        return path

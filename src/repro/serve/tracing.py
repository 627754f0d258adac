"""Per-request records, stage histograms, and the flight recorder.

:class:`~repro.serve.server.ModelServer` mints one
:class:`RequestContext` per request at admission and keeps every stage
stamp on it: the admission read, the batcher's ``enqueued_at``, the
batch's ``dispatched_at`` and the finish read.  The record rides the
:class:`~repro.serve.batcher.DeadlineBatcher` through queueing and
:class:`~repro.parallel.shards.ShardPool` dispatch, and on the server's
one finish path the :class:`RequestTracer`

* observes per-stage latency into one histogram family
  (``serve.{admission,queue,infer,latency}_ms``,
  :class:`~repro.telemetry.slo.SloHistogram`) whose bucket vectors
  merge exactly across shard workers and whose ``latency_ms`` target
  feeds the ``latency_slo`` burn-rate alert rule;
* keeps the record in the bounded in-memory **flight recorder**, a
  ring of the last :data:`FLIGHT_CAPACITY` requests that
  :meth:`RequestTracer.dump_flight` renders, when an alert fires or a
  shard crashes, as a Chrome trace -- the post-mortem ``repro
  analyze`` reads like any other trace;
* emits one **span tree** per request into the active
  :class:`~repro.telemetry.trace.TraceRecorder`, when there is one -- a
  ``serve.request`` parent with contiguous ``admission`` / ``queue`` /
  ``batch`` children (plus an ``infer`` grandchild for the shard
  round-trip), each request on its own Chrome-trace lane so
  overlapping requests stay readable; :func:`emit_request` builds the
  trees of live traces and flight dumps alike.

Everything here is clock-injected: the tracer converts the server's
(possibly fake) clock into the recorder's timebase with a one-time
offset captured at attachment, so property tests can drive arrival
patterns deterministically and still assert span monotonicity.
"""

from __future__ import annotations

import heapq
import json
import math
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.telemetry.metrics import MetricsRegistry, default_registry
from repro.telemetry.trace import TraceRecorder

__all__ = ["RequestContext", "FlightRecorder", "RequestTracer",
           "emit_request", "FLIGHT_CAPACITY", "LANE_TID_BASE",
           "REQUEST_SPAN"]

#: Requests the flight recorder keeps.
FLIGHT_CAPACITY = 256

#: Synthetic Chrome-trace tid for request lane 0; real thread idents on
#: Linux are pointers (far larger), so these never collide.
LANE_TID_BASE = 1000

REQUEST_SPAN = "serve.request"


@dataclass
class RequestContext:
    """One request's identity and stage stamps, minted at admission.

    Timestamps are in the server's clock domain (``t_*`` fields,
    seconds); a stage that never happened stays ``None`` (a refused
    request has no dispatch stamp).  The context is what rides the
    batcher's opaque ``context`` slot; ``future`` is the response
    future the server resolves from it, dropped once resolved.
    """

    request_id: str
    model: str
    lane: int = -1
    input_shape: Tuple[int, ...] = ()
    t_admit: float = 0.0
    t_submit: Optional[float] = None
    t_dispatch: Optional[float] = None
    t_done: Optional[float] = None
    deadline: float = math.inf
    batch_size: int = 0
    shard: int = -1
    ok: bool = False
    error_kind: str = ""
    infer_s: float = 0.0
    future: Any = field(default=None, repr=False, compare=False)

    @property
    def outcome(self) -> str:
        return "ok" if self.ok else (self.error_kind or "error")

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


def emit_request(recorder: TraceRecorder, ctx: RequestContext,
                 offset: float) -> None:
    """Add a finished request's span tree to ``recorder``.

    A ``serve.request`` root on the request's lane with contiguous
    ``admission`` / ``queue`` / ``batch`` children and an ``infer``
    grandchild for the shard round trip; every span carries the
    ``request_id`` arg that groups the tree.  ``offset`` maps the
    server clock onto the recorder's timeline.  Live traces and flight
    dumps are both built here.
    """
    lane = max(0, ctx.lane)
    tid = LANE_TID_BASE + lane
    recorder.label_thread(tid, f"request lane {lane}")
    rid = ctx.request_id

    def emit(name: str, start: float, end: float, depth: int,
             parent_id: int, **attrs: Any) -> int:
        span_id = recorder.next_span_id()
        recorder.add(name, start + offset, max(0.0, end - start), depth,
                     attrs, span_id=span_id, parent_id=parent_id,
                     thread_id=tid)
        return span_id

    root = emit(
        REQUEST_SPAN, ctx.t_admit, ctx.t_done, 0, 0,
        request_id=rid, model=ctx.model, outcome=ctx.outcome,
        shard=ctx.shard, batch_size=ctx.batch_size,
        input_shape=list(ctx.input_shape),
        latency_ms=round((ctx.t_done - ctx.t_admit) * 1e3, 4))
    if ctx.t_submit is None:
        # failed at admission: the whole request was admission
        emit("serve.request.admission", ctx.t_admit, ctx.t_done, 1, root,
             request_id=rid)
        return
    emit("serve.request.admission", ctx.t_admit, ctx.t_submit, 1, root,
         request_id=rid)
    end_queue = ctx.t_dispatch if ctx.t_dispatch is not None else ctx.t_done
    emit("serve.request.queue", ctx.t_submit, end_queue, 1, root,
         request_id=rid)
    if ctx.t_dispatch is not None:
        batch = emit("serve.request.batch", ctx.t_dispatch, ctx.t_done, 1,
                     root, request_id=rid, batch_size=ctx.batch_size)
        emit("serve.request.infer",
             max(ctx.t_dispatch, ctx.t_done - ctx.infer_s), ctx.t_done, 2,
             batch, request_id=rid, shard=ctx.shard)


class FlightRecorder:
    """Bounded ring of the last N finished requests' contexts.

    Cheap enough to run always (a deque append per request); the value
    is at dump time -- when an alert fires or a shard dies, the ring
    holds exactly the requests leading up to the event, rendered then
    as a Chrome trace of their span trees.
    """

    def __init__(self, capacity: int = FLIGHT_CAPACITY) -> None:
        if capacity < 1:
            from repro.errors import ServeError
            raise ServeError(f"flight capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._ring: deque = deque(maxlen=self.capacity)
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._ring)

    def record(self, ctx: RequestContext) -> None:
        with self._lock:
            self._ring.append(ctx)

    def records(self) -> List[RequestContext]:
        with self._lock:
            return list(self._ring)

    def dump(self, path: os.PathLike, reason: str = "manual",
             **extra: Any) -> int:
        """Write the ring as a Chrome trace (``otherData`` holds the
        reason, capacity and ``extra``); returns the request count.
        Timestamps stay on the server clock: readers use only the
        durations and ids."""
        contexts = self.records()
        recorder = TraceRecorder()
        for ctx in contexts:
            emit_request(recorder, ctx, 0.0)
        trace = recorder.chrome_trace()
        trace["otherData"] = dict(extra, reason=reason,
                                  capacity=self.capacity,
                                  requests=len(contexts))
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(trace, handle)
            handle.write("\n")
        return len(contexts)


class RequestTracer:
    """Record keeper of the serving path: stage histograms, flight ring,
    span trees.

    Args:
        recorder: the span sink; ``None`` (no ``--trace-out``) skips
            span emission but keeps the histograms and the flight ring.
        clock: the *server's* monotonic clock (injectable).  At
            construction the tracer measures the offset between this
            clock and the recorder's ``perf_counter`` origin, so emitted
            spans land on the recorder timeline even under a simulated
            clock.
        slo_ms: end-to-end latency target; requests above it count as
            breaches on ``serve.latency_ms`` (the burn-rate rule's
            numerator).
        flight_dir: where :meth:`dump_flight` writes its Chrome-trace
            dumps (:data:`FLIGHT_CAPACITY` requests at most); with
            ``None`` dumps are skipped (the ring still fills and stays
            readable in-process).
        registry: metrics sink, the process default when omitted.
    """

    def __init__(self, recorder: Optional[TraceRecorder] = None,
                 clock: Callable[[], float] = time.monotonic,
                 slo_ms: float = 250.0,
                 flight_dir: Optional[os.PathLike] = None,
                 registry: Optional[MetricsRegistry] = None) -> None:
        self.recorder = recorder
        self.clock = clock
        self.slo_ms = float(slo_ms)
        self.flight = FlightRecorder()
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
        self._dumped_reasons: set = set()
        self._dump_seq = 0
        # the histograms are created eagerly so a zero-traffic snapshot
        # still shows the serving surface (and its latency target); the
        # references are cached because finish() is on every request's
        # path and the registry accessor takes a lock per lookup
        self._histograms = {
            f"{stage}_ms": self.registry.histogram(
                f"serve.{stage}_ms",
                slo=self.slo_ms if stage == "latency" else None)
            for stage in ("admission", "queue", "infer", "latency")
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
        with self._lock:
            heapq.heappush(self._free_lanes, lane)

    # --------------------------------------------------------------- records
    def admit(self, request_id: str, model: str) -> RequestContext:
        """Mint the request's record; ``t_admit`` is this clock read."""
        return RequestContext(
            request_id=str(request_id), model=str(model),
            lane=self._acquire_lane() if self.recorder is not None else -1,
            t_admit=self.clock(),
        )

    def finish(self, ctx: RequestContext) -> Dict[str, float]:
        """Close the record: stamp ``t_done``, observe the stage
        histograms, append to the flight ring, emit the span tree.
        Returns :meth:`RequestContext.stage_ms`."""
        ctx.t_done = self.clock()
        stages = ctx.stage_ms()
        for key, histogram in self._histograms.items():
            if key in stages:
                histogram.observe(stages[key])
        self.flight.record(ctx)
        if self.recorder is not None:
            emit_request(self.recorder, ctx, self._offset)
            self._release_lane(ctx.lane)
        return stages

    # ------------------------------------------------------ flight dump path
    def dump_flight(self, reason: str,
                    once_per_reason: bool = True) -> Optional[str]:
        """Dump the flight ring to ``flight_dir``; returns the path.

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
        path = os.path.join(self.flight_dir, f"flight-{seq:03d}-{safe}.json")
        try:
            os.makedirs(self.flight_dir, exist_ok=True)
            self.flight.dump(path, reason=reason, slo_ms=self.slo_ms)
        except OSError:
            return None  # a full disk must not take the serving path down
        self.registry.counter("serve.flight_dumps").inc()
        return path

"""Batched async model serving over released artifacts.

:class:`ModelServer` is the request path the paper's threat model
implies but the repo never had: a *released* (usually quantized) model
artifact, loaded behind a front end, answering untrusted traffic.  The
pieces, one per layer of the existing stack:

* admission + coalescing: one :class:`~repro.serve.batcher
  .DeadlineBatcher` per served model key -- requests coalesce for at
  most ``max_wait_ms`` and never dispatch past their deadline;
* execution: a :class:`~repro.parallel.shards.ShardPool` of persistent
  worker processes, each holding an :class:`~repro.serve.artifacts
  .ArtifactCache` and running inference through the PR-3 ``fast``
  backend (fused conv+bias+relu / batchnorm inference paths);
* telemetry: per-request ``serve.queue_ms`` / ``serve.infer_ms`` /
  ``serve.latency_ms`` histograms, batch-size distribution, cache and
  shard counters -- all in the default registry, hence live on the
  front end's ``GET /metrics``;
* alerting: an optional :class:`~repro.monitor.alerts.AlertEngine`
  (see :func:`repro.monitor.alerts.serving_rules`) evaluated after
  every dispatched batch, so a p99 breach or shard death fires while
  traffic is still flowing.

Operational failures are **structured responses, never exceptions**:
queue overflow refuses with ``error_kind="refused"``, a shard crash
that survives its retry budget returns ``error_kind="crash"``, an
unknown model key ``error_kind="unknown_model"``.  A load generator
(or a real client) can always distinguish "the server said no" from
"the server broke".
"""

from __future__ import annotations

import asyncio
import functools
import concurrent.futures
import contextvars
import itertools
import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ServeError
from repro.parallel.shards import ShardPool
from repro.serve.artifacts import META_FILE, ArtifactCache
from repro.serve.batcher import DeadlineBatcher, QueuedRequest
from repro.serve.tracing import RequestContext, RequestTracer
from repro.telemetry.metrics import default_registry
from repro.telemetry.trace import get_recorder, span

__all__ = ["ServeConfig", "InferenceResponse", "ModelServer"]


@dataclass
class ServeConfig:
    """Knobs of one :class:`ModelServer` instance."""

    max_batch: int = 16
    max_wait_ms: float = 4.0
    queue_capacity: int = 512
    default_deadline_ms: float = 1000.0
    shards: int = 1
    retries: int = 1
    backend: str = "fast"
    cache_capacity: int = 2
    request_timeout_s: float = 30.0
    start_method: Optional[str] = None  # ShardPool default (fork or serial)
    trace_requests: bool = True  # per-request observability: stage spans
    #   (when a recorder is active), serve.slo.* histograms, and the
    #   flight-recorder ring (repro.serve.tracing)
    slo_ms: float = 250.0  # end-to-end latency target; responses above
    #   it count as serve.slo.latency_ms breaches (latency_slo rule)
    flight_dir: Optional[str] = None  # where alert/crash-triggered
    #   flight dumps land as Chrome traces; None disables dumping to disk


@dataclass
class InferenceResponse:
    """One request's structured outcome (success or failure)."""

    request_id: str
    ok: bool
    model: str = ""
    fingerprint: str = ""
    outputs: Optional[np.ndarray] = field(default=None, repr=False)
    error: str = ""
    error_kind: str = ""  # "" | refused | unknown_model | bad_request |
    #                          exception | crash | timeout | shutdown
    shard: int = -1
    batch_size: int = 0
    queue_ms: float = 0.0
    infer_ms: float = 0.0
    latency_ms: float = 0.0
    deadline_missed: bool = False

    @property
    def argmax(self) -> Optional[List[int]]:
        if self.outputs is None:
            return None
        return [int(i) for i in np.asarray(self.outputs).argmax(axis=1)]

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready summary (logits omitted unless small)."""
        record: Dict[str, Any] = {
            "request_id": self.request_id, "ok": self.ok,
            "model": self.model, "fingerprint": self.fingerprint,
            "shard": self.shard, "batch_size": self.batch_size,
            "queue_ms": round(self.queue_ms, 3),
            "infer_ms": round(self.infer_ms, 3),
            "latency_ms": round(self.latency_ms, 3),
            "deadline_missed": self.deadline_missed,
        }
        if self.ok:
            record["argmax"] = self.argmax
        else:
            record["error"] = self.error
            record["error_kind"] = self.error_kind
        return record


def _make_shard_handler(cache_capacity: int, backend: str,
                        artifact_paths: Sequence[str]) -> Callable[[Any], Any]:
    """Build the per-shard request handler (runs inside the shard).

    Module-level so :class:`ShardPool` can ship it under any start
    method; each shard owns its own :class:`ArtifactCache`, so model
    state is loaded at most ``cache_capacity`` times per shard, not per
    request.  The first ``cache_capacity`` of ``artifact_paths`` are
    loaded here, before the shard takes its first batch, so no request
    waits on a load; one that fails to load is left to the first
    request naming it, which fails with the usual structured error.
    Every batch runs the eager no-grad forward.
    """
    from repro import backend as _backend
    from repro.autograd import Tensor, no_grad

    cache = ArtifactCache(cache_capacity)
    for path in artifact_paths[:cache_capacity]:
        try:
            cache.get(path)
        except Exception:  # the request that needs it reports it
            pass

    def handle(payload: Mapping[str, Any]) -> np.ndarray:
        model, _ = cache.get(payload["artifact"])
        inputs = np.ascontiguousarray(payload["inputs"])
        with _backend.use_backend(payload.get("backend", backend)), no_grad():
            return np.asarray(model(Tensor(inputs)).data)

    return handle


def _read_artifact_meta(path: str) -> Dict[str, Any]:
    meta_path = os.path.join(path, META_FILE)
    try:
        with open(meta_path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        raise ServeError(f"cannot read artifact metadata {meta_path}: {exc}")


class ModelServer:
    """Asyncio front end over released model artifacts.

    Args:
        artifacts: model key -> artifact directory.  The first key is
            the default model for requests that name none.
        config: serving knobs (:class:`ServeConfig`).
        alerts: optional :class:`~repro.monitor.alerts.AlertEngine`
            evaluated against the metrics registry after every batch.
        clock: monotonic time source (injectable for tests).

    Usage::

        async with ModelServer({"released": "artifacts/q4"}) as server:
            response = await server.infer(input_seed=7)
    """

    def __init__(self, artifacts: Mapping[str, os.PathLike],
                 config: Optional[ServeConfig] = None,
                 alerts: Any = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if not artifacts:
            raise ServeError("ModelServer needs at least one artifact")
        self.config = config or ServeConfig()
        self.alerts = alerts
        self.clock = clock
        self._artifacts: Dict[str, str] = {
            str(key): os.path.abspath(os.fspath(path))
            for key, path in artifacts.items()
        }
        self.default_model = next(iter(self._artifacts))
        # Read metadata eagerly: serving must fail at startup, not on
        # the first request, when an artifact is broken.
        self._meta: Dict[str, Dict[str, Any]] = {
            key: _read_artifact_meta(path)
            for key, path in self._artifacts.items()
        }
        self._batchers: Dict[str, DeadlineBatcher] = {
            key: DeadlineBatcher(
                max_batch=self.config.max_batch,
                max_wait_s=self.config.max_wait_ms / 1e3,
                capacity=self.config.queue_capacity,
                clock=clock,
            )
            for key in self._artifacts
        }
        self._ids = itertools.count()
        self._tracer: Optional[RequestTracer] = None
        self._pool: Optional[ShardPool] = None
        self._executor: Optional[concurrent.futures.ThreadPoolExecutor] = None
        self._loop_task: Optional[asyncio.Task] = None
        self._inflight: set = set()
        self._wake: Optional[asyncio.Event] = None
        self._running = False

    # ------------------------------------------------------------ lifecycle
    async def start(self) -> "ModelServer":
        if self._running:
            return self
        if self.config.trace_requests:
            # the recorder active *now* is the span sink for the whole
            # server lifetime (the CLI installs it before commands run)
            self._tracer = RequestTracer(
                recorder=get_recorder(), clock=self.clock,
                slo_ms=self.config.slo_ms,
                flight_dir=self.config.flight_dir)
        with span("serve.start", shards=self.config.shards):
            self._pool = ShardPool(
                functools.partial(_make_shard_handler,
                                  self.config.cache_capacity,
                                  self.config.backend,
                                  tuple(self._artifacts.values())),
                shards=self.config.shards, retries=self.config.retries,
                start_method=self.config.start_method,
            )
        # Dedicated executor for the blocking shard round-trips: sharing
        # the loop's default executor with other blocking work (e.g. an
        # HTTP client driving this very server) can starve dispatch and
        # deadlock the whole request path.
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=max(2, 2 * self.config.shards),
            thread_name_prefix="serve-dispatch")
        self._wake = asyncio.Event()
        self._running = True
        self._loop_task = asyncio.ensure_future(self._dispatch_loop())
        return self

    async def close(self) -> None:
        if not self._running:
            return
        self._running = False
        self._wake.set()
        if self._loop_task is not None:
            await self._loop_task
        # refuse everything still queued, structured
        for key, batcher in self._batchers.items():
            for request in batcher.drain():
                self._finish_error(request, key, "server shutting down",
                                   "shutdown")
        if self._inflight:
            await asyncio.gather(*list(self._inflight),
                                 return_exceptions=True)
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    async def __aenter__(self) -> "ModelServer":
        return await self.start()

    async def __aexit__(self, *exc: Any) -> bool:
        await self.close()
        return False

    # -------------------------------------------------------------- queries
    @property
    def shard_pool(self) -> ShardPool:
        if self._pool is None:
            raise ServeError("server is not started")
        return self._pool

    @property
    def tracer(self) -> Optional[RequestTracer]:
        """The per-request tracer (None before start or when disabled)."""
        return self._tracer

    def flight_records(self) -> List[RequestContext]:
        """The flight recorder's current ring (oldest first)."""
        if self._tracer is None:
            return []
        return self._tracer.flight.records()

    def models(self) -> Dict[str, Dict[str, Any]]:
        """Served keys with fingerprint/quantization metadata."""
        return {
            key: {
                "fingerprint": meta.get("fingerprint", ""),
                "model": meta.get("model", ""),
                "quantization": meta.get("quantization"),
                "input_shape": meta.get("input_shape"),
            }
            for key, meta in self._meta.items()
        }

    def input_shape(self, model: Optional[str] = None) -> Tuple[int, ...]:
        meta = self._meta[model or self.default_model]
        shape = meta.get("input_shape")
        if not shape:
            raise ServeError(
                f"artifact for {model or self.default_model!r} records no "
                f"input_shape; pass explicit inputs")
        return tuple(int(d) for d in shape)

    def stats(self) -> Dict[str, Any]:
        """Queue depths + shard liveness for /healthz."""
        alive = self._pool.alive() if self._pool is not None else []
        return {
            "running": self._running,
            "models": sorted(self._artifacts),
            "queued": {key: len(b) for key, b in self._batchers.items()},
            "shards_alive": int(sum(alive)),
            "shards": len(alive),
        }

    # ------------------------------------------------------------ admission
    def synthesize_input(self, seed: int,
                         model: Optional[str] = None) -> np.ndarray:
        """Deterministic single input drawn from the artifact's shape.

        The synthetic-load contract: a request carrying only
        ``input_seed`` produces the same tensor on any host, so traces
        stay replayable byte-for-byte without shipping arrays around.
        """
        shape = (1,) + self.input_shape(model)
        rng = np.random.default_rng(int(seed))
        return rng.standard_normal(shape).astype(np.float32)

    async def infer(self, inputs: Optional[np.ndarray] = None,
                    model: Optional[str] = None,
                    input_seed: Optional[int] = None,
                    deadline_ms: Optional[float] = None,
                    request_id: Optional[str] = None) -> InferenceResponse:
        """Submit one request and await its structured response."""
        registry = default_registry()
        registry.counter("serve.requests").inc()
        key = model or self.default_model
        rid = request_id if request_id is not None else f"r{next(self._ids)}"
        tracer = self._tracer
        ctx = tracer.admit(rid, key) if tracer is not None else None
        if not self._running:
            return self._error_response(rid, key, "server is not running",
                                        "shutdown", ctx=ctx)
        if key not in self._artifacts:
            registry.counter("serve.errors").inc()
            return self._error_response(
                rid, key, f"unknown model {key!r} "
                          f"(served: {', '.join(sorted(self._artifacts))})",
                "unknown_model", ctx=ctx)
        try:
            if inputs is None:
                if input_seed is None:
                    raise ServeError("request needs inputs or input_seed")
                inputs = self.synthesize_input(input_seed, key)
            else:
                inputs = self._normalize_inputs(np.asarray(inputs), key)
        except ServeError as exc:
            registry.counter("serve.errors").inc()
            return self._error_response(rid, key, str(exc), "bad_request",
                                        ctx=ctx)
        if ctx is not None:
            ctx.input_shape = tuple(inputs.shape)
        now = self.clock()
        deadline_ms = (self.config.default_deadline_ms
                       if deadline_ms is None else float(deadline_ms))
        future: asyncio.Future = asyncio.get_event_loop().create_future()
        try:
            self._batchers[key].submit(
                rid, inputs, deadline=now + deadline_ms / 1e3, now=now,
                context=(future, ctx))
        except ServeError as exc:
            registry.counter("serve.refused").inc()
            return self._error_response(rid, key, str(exc), "refused",
                                        ctx=ctx)
        if tracer is not None:
            tracer.mark_submitted(ctx)
        registry.gauge("serve.queue_depth").set(
            float(sum(len(b) for b in self._batchers.values())))
        self._wake.set()
        return await future

    def _normalize_inputs(self, inputs: np.ndarray, key: str) -> np.ndarray:
        """Validate explicit inputs against the artifact's recorded shape.

        Requests for the same model coalesce into one
        ``np.concatenate``, so rows with mismatched trailing dims must
        be refused here, at admission, not discovered mid-batch.  An
        artifact saved without ``input_shape`` accepts any already
        batched array (leading axis = batch).
        """
        shape = self._meta[key].get("input_shape")
        if not shape:
            if inputs.ndim < 1:
                raise ServeError("inputs must have a leading batch axis")
            return inputs
        expected = tuple(int(d) for d in shape)
        if inputs.ndim == len(expected):
            inputs = inputs[None]
        if (inputs.ndim != len(expected) + 1
                or tuple(inputs.shape[1:]) != expected):
            raise ServeError(
                f"inputs shape {tuple(inputs.shape)} does not match "
                f"artifact input_shape {expected}")
        return inputs

    def _error_response(self, rid: str, key: str, error: str, kind: str,
                        ctx: Optional[RequestContext] = None,
                        ) -> InferenceResponse:
        if self._tracer is not None and ctx is not None:
            self._tracer.finish(ctx, ok=False, error_kind=kind)
        return InferenceResponse(
            request_id=rid, ok=False, model=key,
            fingerprint=self._meta.get(key, {}).get("fingerprint", ""),
            error=error, error_kind=kind)

    # ------------------------------------------------------------- dispatch
    async def _dispatch_loop(self) -> None:
        while self._running:
            self._wake.clear()
            now = self.clock()
            for key, batcher in self._batchers.items():
                for batch in batcher.pop_due(now):
                    task = asyncio.ensure_future(self._run_batch(key, batch))
                    self._inflight.add(task)
                    task.add_done_callback(self._inflight.discard)
            dues = [batcher.next_due() for batcher in self._batchers.values()]
            dues = [due for due in dues if due is not None]
            timeout = None
            if dues:
                timeout = max(0.0, min(dues) - self.clock())
            try:
                await asyncio.wait_for(self._wake.wait(), timeout=timeout)
            except asyncio.TimeoutError:
                pass

    async def _run_batch(self, key: str,
                         batch: List[QueuedRequest]) -> None:
        # Any escape here would strand the batch's futures forever (the
        # task is ensure_future'd, infer() awaits with no timeout), so
        # the whole body runs under a guard that resolves every request
        # with a structured error instead.
        try:
            await self._run_batch_inner(key, batch)
        except Exception as exc:
            registry = default_registry()
            registry.counter("serve.errors").inc(float(len(batch)))
            for request in batch:
                self._finish_error(request, key,
                                   f"batch dispatch failed: {exc!r}",
                                   "exception", batch_size=len(batch))

    async def _run_batch_inner(self, key: str,
                               batch: List[QueuedRequest]) -> None:
        registry = default_registry()
        dispatched_at = self.clock()
        tracer = self._tracer
        if tracer is not None:
            for request in batch:
                tracer.mark_dispatched(self._request_ctx(request),
                                       batch_size=len(batch))
        registry.gauge("serve.batch_occupancy").set(
            len(batch) / float(self.config.max_batch))
        registry.gauge("serve.coalesce_wait_ms").set(
            (dispatched_at - batch[0].enqueued_at) * 1e3)
        sizes = [len(r.payload) for r in batch]
        stacked = np.concatenate([r.payload for r in batch], axis=0) \
            if len(batch) > 1 else batch[0].payload
        payload = {"artifact": self._artifacts[key], "inputs": stacked,
                   "backend": self.config.backend}
        loop = asyncio.get_event_loop()
        with span("serve.batch", model=key, requests=len(batch),
                  rows=int(sum(sizes))):
            # run_in_executor does not carry contextvars over: run the
            # round trip in a copy, so the shard span lands under this one
            result = await loop.run_in_executor(
                self._executor, contextvars.copy_context().run,
                self._pool.request, payload, None,
                self.config.request_timeout_s)
        infer_ms = (self.clock() - dispatched_at) * 1e3
        registry.histogram("serve.batch_size").observe(float(len(batch)))
        registry.histogram("serve.infer_ms").observe(infer_ms)
        if result.ok:
            outputs = np.asarray(result.value)
            offsets = np.cumsum([0] + sizes)
            for request, start, stop in zip(batch, offsets[:-1], offsets[1:]):
                self._finish_ok(request, key, outputs[start:stop],
                                dispatched_at, infer_ms, len(batch),
                                result.shard)
        else:
            registry.counter("serve.errors").inc(float(len(batch)))
            if result.error_kind == "timeout":
                registry.counter("serve.timeouts").inc(float(len(batch)))
            for request in batch:
                self._finish_error(request, key, result.error,
                                   result.error_kind or "exception",
                                   shard=result.shard, batch_size=len(batch),
                                   infer_s=result.duration_s)
            if tracer is not None and result.error_kind == "crash":
                tracer.dump_flight("shard_crash")
        if self.alerts is not None:
            try:
                fired = self.alerts.observe_registry(registry, epoch=None)
                if fired and tracer is not None:
                    tracer.dump_flight(f"alert_{fired[0].rule}")
            except Exception:
                pass  # alerting must never take the serving path down

    # ------------------------------------------------------------ responses
    def _finish_ok(self, request: QueuedRequest, key: str,
                   outputs: np.ndarray, dispatched_at: float,
                   infer_ms: float, batch_size: int, shard: int) -> None:
        registry = default_registry()
        now = self.clock()
        queue_ms = (dispatched_at - request.enqueued_at) * 1e3
        latency_ms = (now - request.enqueued_at) * 1e3
        missed = now > request.deadline
        registry.counter("serve.responses").inc()
        registry.histogram("serve.queue_ms").observe(queue_ms)
        registry.histogram("serve.latency_ms").observe(latency_ms)
        if missed:
            registry.counter("serve.deadline_missed").inc()
        if self._tracer is not None:
            self._tracer.finish(self._request_ctx(request), ok=True,
                                shard=shard, batch_size=batch_size,
                                infer_s=infer_ms / 1e3)
        self._set_future(request, InferenceResponse(
            request_id=request.request_id, ok=True, model=key,
            fingerprint=self._meta[key].get("fingerprint", ""),
            outputs=outputs, shard=shard, batch_size=batch_size,
            queue_ms=queue_ms, infer_ms=infer_ms, latency_ms=latency_ms,
            deadline_missed=missed))

    def _finish_error(self, request: QueuedRequest, key: str, error: str,
                      kind: str, shard: int = -1,
                      batch_size: int = 0, infer_s: float = 0.0) -> None:
        latency_ms = (self.clock() - request.enqueued_at) * 1e3
        if self._tracer is not None:
            self._tracer.finish(self._request_ctx(request), ok=False,
                                error_kind=kind, shard=shard,
                                batch_size=batch_size, infer_s=infer_s)
        self._set_future(request, InferenceResponse(
            request_id=request.request_id, ok=False, model=key,
            fingerprint=self._meta.get(key, {}).get("fingerprint", ""),
            error=error, error_kind=kind, shard=shard,
            batch_size=batch_size, latency_ms=latency_ms,
            deadline_missed=self.clock() > request.deadline))

    @staticmethod
    def _request_ctx(request: QueuedRequest) -> Optional[RequestContext]:
        """The RequestContext riding the batcher's opaque context slot."""
        context = request.context
        if isinstance(context, tuple) and len(context) == 2:
            return context[1]
        return None

    @staticmethod
    def _set_future(request: QueuedRequest,
                    response: InferenceResponse) -> None:
        future = request.context
        if isinstance(future, tuple):
            future = future[0]
        if future is not None and not future.done():
            future.set_result(response)

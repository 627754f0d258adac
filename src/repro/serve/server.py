"""Batched async model serving over released artifacts.

:class:`ModelServer` is the request path the paper's threat model
implies but the repo never had: a *released* (usually quantized) model
artifact, loaded behind a front end, answering untrusted traffic.  The
pieces, one per layer of the existing stack:

* admission + coalescing: one :class:`~repro.serve.batcher
  .DeadlineBatcher` per served model key, dispatched work-conserving --
  a free shard takes up to ``max_batch`` queued requests at once (the
  model whose head was admitted first), and requests coalesce only
  while every shard is busy;
* execution: a :class:`~repro.parallel.shards.ShardPool` of persistent
  worker processes, each holding an :class:`~repro.serve.artifacts
  .ArtifactCache` and running inference through the PR-3 ``fast``
  backend (fused conv+bias+relu / batchnorm inference paths);
* accounting: one :class:`~repro.serve.tracing.RequestContext` per
  request, minted at admission, carries every stage stamp; one finish
  path closes it for every outcome -- counts the outcome, observes the
  ``serve.{admission,queue,infer,latency}_ms`` histograms, appends to
  the flight ring, emits the span tree when a recorder is active, and
  resolves the response from the record.  These, the batch-size
  distribution and the cache and shard counters all live in the
  default registry, hence on the front end's ``GET /metrics``;
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
import math
import os
import time
from dataclasses import MISSING, dataclass, field, fields
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
    queue_capacity: int = 512
    default_deadline_ms: float = 1000.0
    shards: int = 1
    retries: int = 1
    backend: str = "fast"
    cache_capacity: int = 2
    request_timeout_s: float = 30.0
    start_method: Optional[str] = None  # ShardPool default (fork or serial)
    slo_ms: float = 250.0  # end-to-end latency target; responses above
    #   it count as serve.latency_ms breaches (latency_slo rule)
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

    @classmethod
    def from_dict(cls, record: Mapping[str, Any]) -> "InferenceResponse":
        """The inverse of :meth:`to_dict`, but for the ``outputs`` it
        leaves out and the milliseconds it rounds; each optional field
        is cast to its default's type."""
        response = cls(request_id=str(record.get("request_id", "")),
                       ok=bool(record.get("ok", False)))
        for item in fields(cls):
            if item.name in record and item.default not in (MISSING, None):
                setattr(response, item.name,
                        type(item.default)(record[item.name]))
        return response


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
    Every batch runs the eager no-grad forward at the model's parameter
    dtype, as in-process evaluation does.
    """
    from repro import backend as _backend
    from repro.autograd import Tensor, no_grad
    from repro.precision import cast_to_model

    cache = ArtifactCache(cache_capacity)
    for path in artifact_paths[:cache_capacity]:
        try:
            cache.get(path)
        except Exception:  # the request that needs it reports it
            pass

    def handle(payload: Mapping[str, Any]) -> np.ndarray:
        model, _ = cache.get(payload["artifact"])
        inputs = np.ascontiguousarray(cast_to_model(model, payload["inputs"]))
        with _backend.use_backend(payload.get("backend", backend)), no_grad():
            return np.asarray(model(Tensor(inputs)).data)

    return handle


def _read_artifact_meta(path: str) -> Dict[str, Any]:
    meta_path = os.path.join(path, META_FILE)
    try:
        with open(meta_path, "r", encoding="utf-8") as handle:
            meta = json.load(handle)
    except (OSError, ValueError) as exc:
        raise ServeError(f"cannot read artifact metadata {meta_path}: {exc}")
    shape = meta.get("input_shape")
    if shape is not None and not (isinstance(shape, list) and all(
            type(d) is int and d > 0 for d in shape)):
        raise ServeError(f"artifact metadata {meta_path}: input_shape must "
                         f"be a list of positive ints, got {shape!r}")
    return meta


class ModelServer:
    """Asyncio front end over released model artifacts.

    Args:
        artifacts: model key -> artifact directory.  The first key is
            the default model for requests that name none.
        config: serving knobs (:class:`ServeConfig`).
        alerts: optional :class:`~repro.monitor.alerts.AlertEngine`
            evaluated against the metrics registry after every batch.
        clock: monotonic time source (injectable for tests).

    The trace recorder active at construction is the span sink for the
    server's whole lifetime (the CLI installs it before commands run).

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
        if self.config.max_batch < 1:
            raise ServeError(
                f"max_batch must be >= 1, got {self.config.max_batch}")
        # Read metadata eagerly: serving must fail at startup, not on
        # the first request, when an artifact is broken.
        self._meta: Dict[str, Dict[str, Any]] = {
            key: _read_artifact_meta(path)
            for key, path in self._artifacts.items()
        }
        self._shapes: Dict[str, Tuple[int, ...]] = {
            key: tuple(meta.get("input_shape") or ())
            for key, meta in self._meta.items()
        }
        self._batchers: Dict[str, DeadlineBatcher] = {
            key: DeadlineBatcher(capacity=self.config.queue_capacity,
                                 clock=clock)
            for key in self._artifacts
        }
        self._ids = itertools.count()
        self._tracer = RequestTracer(
            recorder=get_recorder(), clock=clock, slo_ms=self.config.slo_ms,
            flight_dir=self.config.flight_dir)
        self._pool: Optional[ShardPool] = None
        self._executor: Optional[concurrent.futures.ThreadPoolExecutor] = None
        self._loop_task: Optional[asyncio.Task] = None
        self._inflight: set = set()
        # shard slots with no batch in flight
        self._idle: List[int] = list(range(self.config.shards))
        self._wake: Optional[asyncio.Event] = None
        self._running = False

    # ------------------------------------------------------------ lifecycle
    async def start(self) -> "ModelServer":
        if self._running:
            return self
        with span("serve.start", shards=self.config.shards):
            self._pool = ShardPool(
                functools.partial(_make_shard_handler,
                                  self.config.cache_capacity,
                                  self.config.backend,
                                  tuple(self._artifacts.values())),
                shards=self.config.shards, retries=self.config.retries,
                start_method=self.config.start_method,
            )
            # Dedicated executor for the blocking shard round-trips, one
            # thread per shard (one batch is in flight per shard): sharing
            # the loop's default executor with other blocking work (e.g.
            # an HTTP client driving this very server) can starve
            # dispatch and deadlock the whole request path.
            self._executor = concurrent.futures.ThreadPoolExecutor(
                max_workers=self.config.shards,
                thread_name_prefix="serve-dispatch")
            try:
                await self._warm_up()
            except BaseException:  # failed or cancelled: leave nothing up
                self._executor.shutdown(wait=False)
                self._pool.close()
                raise
        self._wake = asyncio.Event()
        self._running = True
        self._loop_task = asyncio.ensure_future(self._dispatch_loop())
        return self

    async def _warm_up(self) -> None:
        """One round trip per forked shard, a synthesized input to the
        default model, so shard start-up, the first forward, the first
        pickle and the dispatch threads are not paid by the first batch
        (replies dropped: a failing shard fails that batch the same)."""
        if self._pool.serial or not self._shapes[self.default_model]:
            return
        payload = {"artifact": self._artifacts[self.default_model],
                   "inputs": self.synthesize_input(0),
                   "backend": self.config.backend}
        loop = asyncio.get_running_loop()
        await asyncio.gather(*[loop.run_in_executor(
            self._executor, contextvars.copy_context().run, self._pool.request,
            payload, shard, self.config.request_timeout_s)
            for shard in range(self.config.shards)])

    async def close(self) -> None:
        if not self._running:
            return
        self._running = False
        self._wake.set()
        if self._loop_task is not None:
            await self._loop_task
        # refuse everything still queued, structured
        for batcher in self._batchers.values():
            for request in batcher.pop_batch(len(batcher)):
                self._finish(request.context, "shutdown",
                             "server shutting down")
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
    def tracer(self) -> RequestTracer:
        """The per-request record keeper."""
        return self._tracer

    def flight_records(self) -> List[RequestContext]:
        """The flight recorder's current ring (oldest first)."""
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
        shape = self._shapes[model or self.default_model]
        if not shape:
            raise ServeError(
                f"artifact for {model or self.default_model!r} records no "
                f"input_shape; pass explicit inputs")
        return shape

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
        ctx = self._tracer.admit(rid, key)
        if not self._running:
            return self._finish(ctx, "shutdown", "server is not running")
        if key not in self._artifacts:
            return self._finish(
                ctx, "unknown_model", f"unknown model {key!r} "
                f"(served: {', '.join(sorted(self._artifacts))})")
        try:
            deadline_ms = _request_number(
                "deadline_ms", self.config.default_deadline_ms
                if deadline_ms is None else deadline_ms, float)
            if inputs is None:
                if input_seed is None:
                    raise ServeError("request needs inputs or input_seed")
                inputs = self.synthesize_input(
                    _request_number("input_seed", input_seed, int), key)
            else:
                inputs = self._normalize_inputs(np.asarray(inputs), key)
        except ServeError as exc:
            return self._finish(ctx, "bad_request", str(exc))
        ctx.input_shape = tuple(inputs.shape)
        now = self.clock()
        ctx.deadline = now + deadline_ms / 1e3
        try:
            self._batchers[key].submit(rid, inputs, deadline=ctx.deadline,
                                       now=now, context=ctx)
        except ServeError as exc:
            return self._finish(ctx, "refused", str(exc))
        ctx.t_submit = now
        ctx.future = asyncio.get_event_loop().create_future()
        self._wake.set()
        return await ctx.future

    def _normalize_inputs(self, inputs: np.ndarray, key: str) -> np.ndarray:
        """Validate explicit inputs against the artifact's recorded shape.

        Requests for the same model coalesce into one
        ``np.concatenate``, so rows with mismatched trailing dims must
        be refused here, at admission, not discovered mid-batch.  An
        artifact saved without ``input_shape`` accepts any already
        batched array (leading axis = batch).
        """
        expected = self._shapes[key]
        if not expected:
            if inputs.ndim < 1:
                raise ServeError("inputs must have a leading batch axis")
            return inputs
        if inputs.ndim == len(expected):
            inputs = inputs[None]
        if (inputs.ndim != len(expected) + 1
                or tuple(inputs.shape[1:]) != expected):
            raise ServeError(
                f"inputs shape {tuple(inputs.shape)} does not match "
                f"artifact input_shape {expected}")
        return inputs

    # ------------------------------------------------------------- dispatch
    async def _dispatch_loop(self) -> None:
        """Dispatch on every wake: admission and batch completion set
        it; nothing else does, so there is no timer."""
        while self._running:
            self._wake.clear()
            self._dispatch()
            await self._wake.wait()

    def _dispatch(self) -> None:
        """Hand each free shard slot one batch of the oldest requests.

        A free slot takes up to ``max_batch`` queued requests of the
        model whose head was admitted first, so FIFO holds across
        models; while every slot is busy, requests coalesce in the
        queue.  A permanently dead slot is never picked while any shard
        is live; with none live the batch goes to a dead slot and ends
        as the pool's structured ``crash``.
        """
        alive = self._pool.alive()
        while self._idle:
            heads = [(batcher.head.enqueued_at, key)
                     for key, batcher in self._batchers.items() if batcher]
            live = [slot for slot in self._idle if alive[slot]]
            if not heads or (not live and any(alive)):
                break
            shard = (live or self._idle)[0]
            self._idle.remove(shard)
            key = min(heads)[1]
            batch = self._batchers[key].pop_batch(self.config.max_batch)
            task = asyncio.ensure_future(self._run_batch(key, batch, shard))
            self._inflight.add(task)
            task.add_done_callback(self._inflight.discard)
        default_registry().gauge("serve.queue_depth").set(
            float(sum(len(b) for b in self._batchers.values())))

    async def _run_batch(self, key: str, batch: List[QueuedRequest],
                         shard: int) -> None:
        # Any escape here would strand the batch's futures forever (the
        # task is ensure_future'd, infer() awaits with no timeout), so
        # the whole body runs under a guard that resolves every request
        # with a structured error instead.
        try:
            await self._run_batch_inner(key, batch, shard)
        except Exception as exc:
            for request in batch:
                if request.context.t_done is None:
                    self._finish(request.context, "exception",
                                 f"batch dispatch failed: {exc!r}")
        finally:
            self._idle.append(shard)
            self._wake.set()

    async def _run_batch_inner(self, key: str, batch: List[QueuedRequest],
                               shard: int) -> None:
        registry = default_registry()
        dispatched_at = self.clock()
        for request in batch:
            request.context.t_dispatch = dispatched_at
            request.context.batch_size = len(batch)
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
                self._pool.request, payload, shard,
                self.config.request_timeout_s)
        infer_s = self.clock() - dispatched_at
        registry.histogram("serve.batch_size").observe(float(len(batch)))
        if result.ok:
            outputs = np.asarray(result.value)
            offsets = np.cumsum([0] + sizes)
            for request, start, stop in zip(batch, offsets[:-1], offsets[1:]):
                request.context.shard = result.shard
                request.context.infer_s = infer_s
                self._finish(request.context, outputs=outputs[start:stop])
        else:
            for request in batch:
                request.context.shard = result.shard
                request.context.infer_s = result.duration_s
                self._finish(request.context,
                             result.error_kind or "exception", result.error)
            if result.error_kind == "crash":
                self._tracer.dump_flight("shard_crash")
        if self.alerts is not None:
            try:
                fired = self.alerts.observe_registry(registry, epoch=None)
                if fired:
                    self._tracer.dump_flight(f"alert_{fired[0].rule}")
            except Exception:
                pass  # alerting must never take the serving path down

    # ------------------------------------------------------------ responses
    def _finish(self, ctx: RequestContext, kind: str = "", error: str = "",
                outputs: Optional[np.ndarray] = None) -> InferenceResponse:
        """The one exit of every request, run once per request.

        ``kind`` is the ``error_kind`` ("" for ok).  Stamps ``t_done``,
        observes the stage histograms, appends to the flight ring and
        emits the span tree (:meth:`RequestTracer.finish`); counts the
        outcome -- ``serve.responses`` (ok; ``serve.deadline_missed``
        too when past its deadline), ``serve.refused``, or
        ``serve.errors`` for every other kind but ``shutdown``
        (``serve.timeouts`` too for a timeout); then resolves the
        response future from the record.
        """
        ctx.ok, ctx.error_kind = not kind, kind
        stages = self._tracer.finish(ctx)
        missed = ctx.t_done > ctx.deadline
        registry = default_registry()
        if ctx.ok:
            registry.counter("serve.responses").inc()
            if missed:
                registry.counter("serve.deadline_missed").inc()
        elif kind == "refused":
            registry.counter("serve.refused").inc()
        elif kind != "shutdown":
            registry.counter("serve.errors").inc()
            if kind == "timeout":
                registry.counter("serve.timeouts").inc()
        response = InferenceResponse(
            request_id=ctx.request_id, ok=ctx.ok, model=ctx.model,
            fingerprint=self._meta.get(ctx.model, {}).get("fingerprint", ""),
            outputs=outputs, error=error, error_kind=kind, shard=ctx.shard,
            batch_size=ctx.batch_size,
            queue_ms=stages.get("queue_ms", 0.0),
            infer_ms=stages.get("infer_ms", 0.0),
            latency_ms=stages["latency_ms"], deadline_missed=missed)
        future, ctx.future = ctx.future, None
        if future is not None and not future.done():
            future.set_result(response)
        return response


def _request_number(name: str, value: Any,
                    cast: Callable[[Any], Any]) -> Any:
    """``cast(value)`` of one request field; a ServeError (so a
    ``bad_request`` response) when that is no number or is negative."""
    try:
        number = cast(value)
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    if not number >= 0:  # NaN fails too
        raise ServeError(f"{name} must be a number >= 0, got {value!r}")
    return number

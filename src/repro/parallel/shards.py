"""Persistent shard workers: the long-lived counterpart of :class:`WorkerPool`.

:class:`~repro.parallel.pool.WorkerPool` is built for *finite* fan-out:
it forks workers per chunk, runs a fixed task list, and tears down.  A
serving front end needs the opposite shape -- a small set of
**persistent** worker processes, each holding expensive state (a loaded
model artifact), answering a stream of requests until shut down.
:class:`ShardPool` provides that with the same failure discipline the
pool established:

* a request whose handler **raises** returns an ``error_kind=
  "exception"`` result; the shard keeps serving;
* a shard that **dies** mid-request (segfault, ``kill``) is respawned
  (bounded by ``max_respawns`` per shard slot) and its in-flight
  requests are retried up to ``retries`` times before an
  ``error_kind="crash"`` result is delivered;
* a request that outlives its ``timeout`` in :meth:`result` returns an
  ``error_kind="timeout"`` result (the shard is left alone -- it may
  still be doing useful work for later requests).

Shards fork (see :mod:`repro.parallel.worker`) so the ``init_fn``
travels by memory inheritance; where ``fork`` is unavailable the pool
transparently degrades to in-process serial execution with identical
result semantics (and no crash isolation, as with the WorkerPool's
serial fallback).  Each reply ships the metrics the request moved --
counters, gauges and histograms -- and the parent merges them.

Each request runs under one ``serve.shard`` span.  :meth:`submit`
captures the caller's trace context into the :class:`Unit`, so a forked
shard ships the span (kernel time on it) home to a ``shard N`` lane,
parented on the span open at submit -- also when a crash retries the
request on another shard -- and the serial fallback nests it there
directly.

A background collector thread owns every shard pipe and blocks in the
core's liveness wait, so replies and deaths are handled the moment
they happen; :meth:`submit` / :meth:`result` are thread-safe, so the
asyncio server can dispatch batches from executor threads without
extra locking.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.errors import ServeError
from repro.parallel.worker import (Envelope, Handler, Unit, Worker, absorb,
                                   execute, fork, reap, uses_fork, wait)
from repro.telemetry.metrics import default_registry
from repro.telemetry.trace import current_trace_context, span

__all__ = ["ShardResult", "ShardPool"]


@dataclass
class ShardResult:
    """Outcome of one shard request (mirrors the pool's TaskOutcome)."""

    ticket: int
    ok: bool
    value: Any = None
    error: str = ""
    error_kind: str = ""       # "" | "exception" | "crash" | "timeout"
    shard: int = -1
    attempts: int = 1
    duration_s: float = 0.0


def _unit_handler(init_fn: Callable[[], Callable[[Any], Any]]) -> Handler:
    """Adapt ``init_fn``'s ``handler(payload)`` to the core's unit
    handler, one ``serve.shard`` span per request."""
    handler = init_fn()

    def handle(unit: Unit) -> Any:
        with span("serve.shard"):
            return handler(unit.work)

    return handle


class _Shard:
    """Parent-side state for one shard slot."""

    __slots__ = ("index", "worker", "inflight", "respawns", "dead")

    def __init__(self, index: int) -> None:
        self.index = index
        self.worker: Optional[Worker] = None
        self.inflight: Dict[int, Unit] = {}  # ticket -> unit
        self.respawns = 0
        self.dead = True


class ShardPool:
    """N persistent worker processes answering a request stream.

    Args:
        init_fn: zero-arg callable run once inside each shard; returns
            the per-request handler ``handler(payload) -> value``.
        shards: number of shard slots (>= 1).
        retries: times a crashed request is re-run before a ``crash``
            result is delivered.
        max_respawns: times one shard slot is restarted after dying
            before it is written off as permanently dead.
        start_method: ``None`` or ``"fork"`` fork shards where the
            platform can; any other valid start method runs serially.
    """

    def __init__(self, init_fn: Callable[[], Callable[[Any], Any]],
                 shards: int = 1, retries: int = 1, max_respawns: int = 3,
                 start_method: Optional[str] = None) -> None:
        if shards < 1:
            raise ServeError(f"shards must be >= 1, got {shards}")
        if retries < 0:
            raise ServeError(f"retries must be >= 0, got {retries}")
        if max_respawns < 0:
            raise ServeError(f"max_respawns must be >= 0, got {max_respawns}")
        self.init_fn = init_fn
        self.n_shards = int(shards)
        self.retries = int(retries)
        self.max_respawns = int(max_respawns)
        self.serial = not uses_fork(start_method, ServeError)
        self.start_method = None if self.serial else "fork"

        self._lock = threading.Lock()
        self._results_ready = threading.Condition(self._lock)
        self._results: Dict[int, ShardResult] = {}
        self._attempts: Dict[int, int] = {}
        self._abandoned: set = set()
        self._tickets = itertools.count()
        self._rr = itertools.count()
        self._closed = False
        self._shards: List[_Shard] = [_Shard(i) for i in range(self.n_shards)]
        self._handle: Optional[Handler] = None
        self._collector: Optional[threading.Thread] = None

        if self.serial:
            self._handle = _unit_handler(init_fn)
            self._set_alive_gauge(self.n_shards)
        else:
            for shard in self._shards:
                self._spawn(shard)
            self._collector = threading.Thread(
                target=self._collect_loop, daemon=True, name="repro-shards")
            self._collector.start()

    # ------------------------------------------------------------ lifecycle
    def _set_alive_gauge(self, count: int) -> None:
        default_registry().gauge("serve.shards_alive").set(float(count))

    def _spawn(self, shard: _Shard) -> None:
        shard.worker = fork(functools.partial(_unit_handler, self.init_fn))
        shard.dead = False
        self._set_alive_gauge(sum(not s.dead for s in self._shards))

    def close(self) -> None:
        """Shut every shard down and stop the collector."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._results_ready.notify_all()
            workers = [s.worker for s in self._shards if s.worker is not None]
        # the reaped shards' sentinels wake the collector, which then
        # sees the pool closed and exits
        reap(workers)
        if self._collector is not None:
            self._collector.join(timeout=2.0)
        self._set_alive_gauge(0)

    def __enter__(self) -> "ShardPool":
        return self

    def __exit__(self, *exc: Any) -> bool:
        self.close()
        return False

    # -------------------------------------------------------------- queries
    def alive(self) -> List[bool]:
        """Liveness per shard slot (serial mode: all True until close)."""
        if self.serial:
            return [not self._closed] * self.n_shards
        return [not shard.dead for shard in self._shards]

    def kill_shard(self, index: int) -> bool:
        """Hard-kill one shard process (fault-injection hook for tests).

        Returns True when a live process was killed; serial mode has no
        processes to kill and returns False.
        """
        worker = self._shards[index].worker
        return worker is not None and worker.kill_process()

    # ------------------------------------------------------------- requests
    def submit(self, payload: Any, shard: Optional[int] = None) -> int:
        """Enqueue one request; returns its ticket.

        ``shard=None`` round-robins over live shards.  With every shard
        permanently dead the request completes immediately as a
        ``crash`` result (structured, never an exception).
        """
        with self._lock:
            if self._closed:
                raise ServeError("ShardPool is closed")
            ticket = next(self._tickets)
            self._attempts[ticket] = 1
            unit = Unit(ticket, payload, current_trace_context())
            if self.serial:
                self._results[ticket] = self._result(
                    execute(self._handle, unit), 0)
                self._results_ready.notify_all()
                return ticket
            target = self._pick_shard(shard)
            if target is None:
                self._results[ticket] = ShardResult(
                    ticket, False, error="no live shards",
                    error_kind="crash", attempts=0)
                self._results_ready.notify_all()
                return ticket
            self._send(target, unit)
            return ticket

    def _result(self, envelope: Envelope, shard: int) -> ShardResult:
        return ShardResult(
            envelope.key, envelope.status == "ok", value=envelope.value,
            error=envelope.error, error_kind=envelope.error_kind,
            shard=shard, attempts=self._attempts.pop(envelope.key, 1),
            duration_s=envelope.duration_s)

    def _pick_shard(self, index: Optional[int]) -> Optional[_Shard]:
        if index is not None:
            shard = self._shards[index]
            return None if shard.dead else shard
        live = [s for s in self._shards if not s.dead]
        if not live:
            return None
        return live[next(self._rr) % len(live)]

    def _send(self, shard: _Shard, unit: Unit) -> None:
        shard.inflight[unit.key] = unit
        try:
            shard.worker.send(unit)
        except OSError:
            # pipe already broken: retry/record it the same way a
            # mid-request crash would be
            self._on_shard_death(shard)

    def result(self, ticket: int,
               timeout: Optional[float] = None) -> ShardResult:
        """Block until the ticket resolves (or ``timeout`` elapses).

        A timeout yields an ``error_kind="timeout"`` result; the late
        value, if it ever arrives, is discarded.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            while ticket not in self._results:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        self._attempts.pop(ticket, None)
                        self._abandoned.add(ticket)
                        return ShardResult(
                            ticket, False,
                            error=f"request exceeded {timeout:.3g}s timeout",
                            error_kind="timeout")
                self._results_ready.wait(timeout=remaining)
                if self._closed and ticket not in self._results:
                    return ShardResult(ticket, False,
                                       error="ShardPool closed while waiting",
                                       error_kind="crash")
            return self._results.pop(ticket)

    def request(self, payload: Any, shard: Optional[int] = None,
                timeout: Optional[float] = None) -> ShardResult:
        """Submit + wait, as one call."""
        return self.result(self.submit(payload, shard=shard), timeout=timeout)

    # ------------------------------------------------------------ collector
    def _collect_loop(self) -> None:
        while True:
            with self._lock:
                live = [s.worker for s in self._shards if not s.dead]
                if self._closed or not live:
                    return  # nothing left that could ever reply
            try:
                ready = wait(live)
            except OSError:
                # close() or a submit thread's _send failure closed a
                # snapshotted pipe while we waited: re-snapshot
                continue
            with self._lock:
                if self._closed:
                    return
                for shard in self._shards:
                    if shard.dead or shard.worker not in ready:
                        continue
                    for envelope in shard.worker.receive():
                        self._on_envelope(shard, envelope)
                    if not shard.dead and shard.worker.gone:
                        self._on_shard_death(shard)

    def _on_envelope(self, shard: _Shard, envelope: Envelope) -> None:
        if shard.dead:
            return
        absorb(envelope, label=f"shard {shard.index}")
        if envelope.status == "init_error":
            # the shard never became serviceable; treat as death
            self._on_shard_death(shard, reason=f"init failed: {envelope.error}")
            return
        shard.inflight.pop(envelope.key, None)
        if envelope.key in self._abandoned:  # waiter already timed out
            self._abandoned.discard(envelope.key)
            self._attempts.pop(envelope.key, None)
            return
        self._results[envelope.key] = self._result(envelope, shard.index)
        self._results_ready.notify_all()

    def _on_shard_death(self, shard: _Shard,
                        reason: Optional[str] = None) -> None:
        """Record the death, respawn the slot (bounded), retry in-flight."""
        registry = default_registry()
        registry.counter("serve.shard_deaths").inc()
        shard.dead = True
        reap([shard.worker], grace=0.0)
        exitcode = shard.worker.process.exitcode
        message = reason or f"shard {shard.index} died (exitcode {exitcode})"
        inflight = list(shard.inflight.values())
        shard.inflight.clear()
        self._set_alive_gauge(sum(not s.dead for s in self._shards))
        if shard.respawns < self.max_respawns and reason is None:
            shard.respawns += 1
            registry.counter("serve.shard_respawns").inc()
            self._spawn(shard)
        for unit in inflight:
            ticket = unit.key
            if ticket in self._abandoned:  # waiter already timed out
                self._abandoned.discard(ticket)
                self._attempts.pop(ticket, None)
                continue
            attempts = self._attempts.get(ticket, 1)
            if attempts <= self.retries:
                self._attempts[ticket] = attempts + 1
                registry.counter("serve.request_retries").inc()
                target = self._pick_shard(None)
                if target is not None:
                    self._send(target, unit)
                    continue
            self._attempts.pop(ticket, None)
            self._results[ticket] = ShardResult(
                ticket, False, error=message, error_kind="crash",
                shard=shard.index, attempts=attempts)
        self._results_ready.notify_all()

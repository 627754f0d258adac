"""Process-pool task execution with structured failure records.

:class:`WorkerPool` runs a list of :class:`Task`\\ s across worker
processes and returns one :class:`TaskOutcome` per task, in task order.
It is built for experiment fan-out (the points of
:meth:`repro.pipeline.sweep.Sweep.run`), so its failure model is
per-task, never pool-wide:

* a task that **raises** produces an ``error_kind="exception"`` outcome
  and its siblings keep running;
* a worker that **crashes** (segfault, ``os._exit``) loses only its
  current task, which is retried up to ``retries`` times before an
  ``error_kind="crash"`` outcome is recorded;
* a task that exceeds the per-task **timeout** gets its worker killed
  and is retried / recorded as ``error_kind="timeout"``.

Workers fork (see :mod:`repro.parallel.worker`): task functions and
arguments travel by memory inheritance, never by pickling.  When
``max_workers <= 1`` or the platform cannot fork, the pool runs the
tasks in-process, serially, with identical outcome semantics (timeouts
cannot preempt in-process and are ignored there).

Each worker resets its process-local :func:`repro.telemetry.metrics
.default_registry` before a task and ships the metrics the task moved
back with the result; the parent merges them into its own registry
(see :meth:`MetricsRegistry.merge_typed`) and attaches them to the
outcome.  When the parent has a
:class:`repro.telemetry.trace.TraceRecorder` active, its
:class:`TraceContext` rides along with every task: each worker records
spans (with the kernel time attached to them) on a clock aligned to
the parent's timeline and ships them back per task, and the parent
merges them so one pooled run renders as a single multi-lane Chrome
trace.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigError
from repro.parallel.worker import (Envelope, Unit, Worker, absorb, execute,
                                   fork, reap, uses_fork, wait)
from repro.telemetry.metrics import default_registry
from repro.telemetry.trace import current_trace_context, span


@dataclass
class Task:
    """One unit of work: ``fn(*args, **kwargs)`` returning any picklable value."""

    fn: Callable[..., Any]
    args: Tuple[Any, ...] = ()
    kwargs: Optional[Mapping[str, Any]] = None


@dataclass
class TaskOutcome:
    """Structured result of one task attempt chain.

    ``ok`` outcomes carry ``value``; failures carry ``error`` (a repr of
    the exception, or a timeout/crash description) and ``error_kind``
    (``"exception"`` | ``"timeout"`` | ``"crash"``).  ``attempts``
    counts executions including retries; ``telemetry`` is the worker's
    typed metrics snapshot for the task (empty in serial fallback,
    where metrics flow directly into the parent registry).
    ``spans`` is the worker's span dicts for the task (kernel time
    rides on them), populated only when the parent had a trace recorder
    active at dispatch (empty in serial fallback, where spans land
    directly in the parent recorder).
    """

    index: int
    ok: bool
    value: Any = None
    error: str = ""
    error_kind: str = ""
    attempts: int = 1
    duration_s: float = 0.0
    telemetry: Dict[str, Any] = field(default_factory=dict)
    spans: List[Dict[str, Any]] = field(default_factory=list)


def cpu_workers() -> int:
    """Worker count auto-detected from the CPU count (always >= 1)."""
    return max(1, os.cpu_count() or 1)


def _run_task(unit: Unit) -> Any:
    task = unit.work
    return task.fn(*task.args, **dict(task.kwargs or {}))


def _forked_task(unit: Unit) -> Any:
    with span("pool.task", index=unit.key):
        return _run_task(unit)


def _outcome(envelope: Envelope, attempts: int) -> TaskOutcome:
    return TaskOutcome(
        envelope.key, envelope.status == "ok", value=envelope.value,
        error=envelope.error, error_kind=envelope.error_kind,
        attempts=attempts, duration_s=envelope.duration_s,
        telemetry=dict(envelope.metrics), spans=list(envelope.spans),
    )


class _Chunk:
    """A forked worker and the tasks it inherited, run in order."""

    __slots__ = ("worker", "units", "position", "since")

    def __init__(self, units: List[Unit]) -> None:
        self.worker = fork(lambda: _forked_task, units)
        self.units = units
        self.position = 0                 # index of the task now executing
        self.since = time.perf_counter()  # when that task started

    @property
    def done(self) -> bool:
        return self.position == len(self.units)

    @property
    def current(self) -> Unit:
        return self.units[self.position]


class WorkerPool:
    """Chunked multi-process task runner with bounded retries.

    Args:
        max_workers: concurrent worker processes; ``None`` auto-detects
            from the CPU count; ``<= 1`` forces in-process serial
            execution.
        timeout: per-task wall-clock budget in seconds (``None`` = no
            limit).  A worker's startup time counts against its first
            task.  Ignored in the serial fallback.
        retries: how many times a crashed or timed-out task is re-run
            before a failure outcome is recorded (exceptions are never
            retried -- they are deterministic).
        chunk_size: tasks handed to a worker per process fork; defaults
            to ``ceil(n / (workers * 4))`` for load balancing.

    Workers fork where the platform can; elsewhere the pool runs serially.
    """

    def __init__(self, max_workers: Optional[int] = None,
                 timeout: Optional[float] = None,
                 retries: int = 1,
                 chunk_size: Optional[int] = None) -> None:
        if timeout is not None and timeout <= 0:
            raise ConfigError(f"timeout must be positive, got {timeout}")
        if retries < 0:
            raise ConfigError(f"retries must be >= 0, got {retries}")
        if chunk_size is not None and chunk_size < 1:
            raise ConfigError(f"chunk_size must be >= 1, got {chunk_size}")
        self.max_workers = cpu_workers() if max_workers is None else int(max_workers)
        self.timeout = timeout
        self.retries = int(retries)
        self.chunk_size = chunk_size
        self.forks = uses_fork(None, ConfigError)

    def run(self, tasks: Sequence[Task]) -> List[TaskOutcome]:
        """Execute every task; outcomes are returned in task order."""
        tasks = list(tasks)
        if not tasks:
            return []
        if self.max_workers <= 1 or not self.forks:
            return [_outcome(execute(_run_task, Unit(index, task)), 1)
                    for index, task in enumerate(tasks)]
        return self._run_pooled(tasks)

    # ---------------------------------------------------- pooled path
    def _chunks(self, units: List[Unit]) -> List[List[Unit]]:
        size = self.chunk_size
        if size is None:
            size = max(1, math.ceil(len(units) / (self.max_workers * 4)))
        return [units[i:i + size] for i in range(0, len(units), size)]

    def _run_pooled(self, tasks: Sequence[Task]) -> List[TaskOutcome]:
        registry = default_registry()
        # decided once at run start: workers record spans only when the
        # parent has a recorder to merge them into
        trace = current_trace_context()
        pending = self._chunks([Unit(index, task, trace)
                                for index, task in enumerate(tasks)])
        outcomes: Dict[int, TaskOutcome] = {}
        failures: Dict[int, int] = {}   # crash/timeout count per task index
        attempts: Dict[int, int] = {}   # executions started per task index
        active: Dict[Worker, _Chunk] = {}

        def start_task(chunk: _Chunk) -> None:
            key = chunk.current.key
            attempts[key] = attempts.get(key, 0) + 1
            chunk.since = time.perf_counter()

        def fail(chunk: _Chunk, kind: str) -> None:
            """Attribute a crash/timeout to the in-flight task and
            reschedule it (bounded) plus the chunk's untouched tail."""
            reap([chunk.worker], grace=0.0)
            del active[chunk.worker]
            registry.counter(f"pool.worker_{kind}s").inc()
            key = chunk.current.key
            failures[key] = failures.get(key, 0) + 1
            retry = failures[key] <= self.retries
            if not retry:
                message = (f"task exceeded {self.timeout:.3g}s timeout"
                           if kind == "timeout" else
                           f"worker died (exitcode "
                           f"{chunk.worker.process.exitcode})")
                outcomes[key] = TaskOutcome(
                    key, False, error=message, error_kind=kind,
                    attempts=attempts[key],
                    duration_s=time.perf_counter() - chunk.since)
            requeue = chunk.units[chunk.position + (0 if retry else 1):]
            if requeue:
                pending.append(requeue)

        while pending or active:
            while pending and len(active) < self.max_workers:
                chunk = _Chunk(pending.pop(0))
                active[chunk.worker] = chunk
                start_task(chunk)
            registry.gauge("pool.workers_alive").set(float(len(active)))

            timeout = None
            if self.timeout is not None:
                oldest = min(chunk.since for chunk in active.values())
                timeout = max(0.0, oldest + self.timeout - time.perf_counter())
            for worker in wait(list(active), timeout):
                chunk = active[worker]
                for envelope in worker.receive():
                    absorb(envelope)
                    outcomes[envelope.key] = _outcome(
                        envelope, attempts[envelope.key])
                    chunk.position += 1
                    if not chunk.done:
                        start_task(chunk)
                if chunk.done:
                    reap([worker])
                    del active[worker]
                elif worker.gone:
                    fail(chunk, "crash")

            if self.timeout is not None:
                now = time.perf_counter()
                for chunk in list(active.values()):
                    if now - chunk.since > self.timeout:
                        fail(chunk, "timeout")

        registry.gauge("pool.workers_alive").set(0.0)
        return [outcomes[i] for i in sorted(outcomes)]

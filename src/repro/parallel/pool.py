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

The pool forks ``min(max_workers, len(tasks))`` persistent workers
(see :mod:`repro.parallel.worker`) once per :meth:`WorkerPool.run`.
Each inherits the whole task list at fork, so task functions and
arguments travel by memory, never by pickling; the parent sends a free
worker the *index* of the next pending task, one task in flight per
worker, and a crashed or timed-out worker is replaced by a fresh fork
that inherits the same list.  When
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

import collections
import functools
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigError
from repro.parallel.worker import (Envelope, Handler, Unit, Worker, absorb,
                                   execute, fork, reap, uses_fork, wait)
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


def _call(task: Task) -> Any:
    return task.fn(*task.args, **dict(task.kwargs or {}))


def _task_runner(tasks: Sequence[Task]) -> Handler:
    """A forked worker's handler: run the inherited task a unit names."""
    def handle(unit: Unit) -> Any:
        with span("pool.task", index=unit.key):
            return _call(tasks[unit.key])
    return handle


def _outcome(envelope: Envelope, attempts: int) -> TaskOutcome:
    return TaskOutcome(
        envelope.key, envelope.status == "ok", value=envelope.value,
        error=envelope.error, error_kind=envelope.error_kind,
        attempts=attempts, duration_s=envelope.duration_s,
        telemetry=dict(envelope.metrics), spans=list(envelope.spans),
    )


_FAILURE_COUNTERS = {"crash": "pool.worker_crashes",
                     "timeout": "pool.worker_timeouts"}


class WorkerPool:
    """Multi-process task runner with bounded retries.

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

    Workers fork where the platform can; elsewhere the pool runs serially.
    """

    def __init__(self, max_workers: Optional[int] = None,
                 timeout: Optional[float] = None,
                 retries: int = 1) -> None:
        if timeout is not None and timeout <= 0:
            raise ConfigError(f"timeout must be positive, got {timeout}")
        if retries < 0:
            raise ConfigError(f"retries must be >= 0, got {retries}")
        self.max_workers = cpu_workers() if max_workers is None else int(max_workers)
        self.timeout = timeout
        self.retries = int(retries)
        self.forks = uses_fork(None, ConfigError)

    def run(self, tasks: Sequence[Task]) -> List[TaskOutcome]:
        """Execute every task; outcomes are returned in task order."""
        tasks = list(tasks)
        if not tasks:
            return []
        if self.max_workers <= 1 or not self.forks:
            return [_outcome(execute(lambda unit: _call(unit.work),
                                     Unit(index, task)), 1)
                    for index, task in enumerate(tasks)]
        return self._run_pooled(tasks)

    # ---------------------------------------------------- pooled path
    def _run_pooled(self, tasks: List[Task]) -> List[TaskOutcome]:
        registry = default_registry()
        # decided once at run start: workers record spans only when the
        # parent has a recorder to merge them into
        trace = current_trace_context()
        init = functools.partial(_task_runner, tasks)
        size = min(self.max_workers, len(tasks))
        queue = collections.deque(range(len(tasks)))  # task indices to run
        outcomes: Dict[int, TaskOutcome] = {}
        failures: Dict[int, int] = {}   # crash/timeout count per task index
        attempts: Dict[int, int] = {}   # executions started per task index
        workers: List[Worker] = []
        running: Dict[Worker, Tuple[int, float]] = {}  # task index, start

        def dispatch(worker: Worker) -> None:
            key = queue.popleft()
            attempts[key] = attempts.get(key, 0) + 1
            running[worker] = (key, time.perf_counter())
            try:
                worker.send(Unit(key, None, trace))
            except OSError:
                pass  # the worker is dead: the next wait sees its sentinel

        def fail(worker: Worker, kind: str) -> None:
            """Charge a crash/timeout to the worker's task, reap only
            that worker and requeue the task first (bounded)."""
            key, since = running.pop(worker)
            reap([worker], grace=0.0)
            workers.remove(worker)
            registry.counter(_FAILURE_COUNTERS[kind]).inc()
            failures[key] = failures.get(key, 0) + 1
            if failures[key] <= self.retries:
                queue.appendleft(key)
                return
            message = (f"task exceeded {self.timeout:.3g}s timeout"
                       if kind == "timeout" else
                       f"worker died (exitcode {worker.process.exitcode})")
            outcomes[key] = TaskOutcome(
                key, False, error=message, error_kind=kind,
                attempts=attempts[key],
                duration_s=time.perf_counter() - since)

        try:
            while queue or running:
                for worker in workers:
                    if queue and worker not in running:
                        dispatch(worker)
                while queue and len(workers) < size:
                    workers.append(fork(init))
                    dispatch(workers[-1])
                registry.gauge("pool.workers_alive").set(float(len(workers)))

                timeout = None
                if self.timeout is not None:
                    oldest = min(since for _, since in running.values())
                    timeout = max(0.0, oldest + self.timeout - time.perf_counter())
                for worker in wait(list(running), timeout):
                    for envelope in worker.receive():
                        absorb(envelope)
                        outcomes[envelope.key] = _outcome(
                            envelope, attempts[envelope.key])
                        del running[worker]
                    if worker in running and worker.gone:
                        fail(worker, "crash")

                if self.timeout is not None:
                    now = time.perf_counter()
                    for worker, (_, since) in list(running.items()):
                        if now - since > self.timeout:
                            fail(worker, "timeout")
        finally:
            reap(workers)
            registry.gauge("pool.workers_alive").set(0.0)
        return [outcomes[i] for i in range(len(tasks))]

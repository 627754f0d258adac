"""One fork runtime: the process core under every parallel runtime.

:class:`~repro.parallel.pool.WorkerPool` (chunked tasks),
:class:`~repro.parallel.shards.ShardPool` (request tickets) and
:class:`~repro.parallel.ddp.DDPContext` (lockstep ranks) differ only in
how they schedule work.  The process mechanics live here, once:

* **child side** -- :func:`fork` starts one worker that builds its
  handler with ``init()`` and runs every :class:`Unit` through it,
  replying with one :class:`Envelope` per unit.  The units are either
  inherited at fork (a pool chunk) or streamed down the pipe until the
  ``None`` stop sentinel (shards, DDP ranks: *persistent* workers).
* **the envelope** -- the only upward wire format: status, key, value
  or structured error, duration, and the unit's telemetry.  The child
  resets its registry before each unit and ships a *sparse* typed
  snapshot (only metrics the unit moved), plus its spans -- kernel
  time included, on the spans -- when the unit carries a trace context.
* **parent side** -- :func:`absorb` merges an envelope's telemetry;
  :func:`wait` blocks on the pipes *and* the process sentinels, so a
  death is seen the moment it happens, with no polling; :func:`reap`
  tears workers down in one order: stop sentinel (persistent workers),
  join, terminate, join, kill.

Workers fork: ``init`` and inherited units travel by memory, never by
pickling.  Where ``fork`` is unavailable (or another start method is
asked for) the runtimes run serially in-process through
:func:`execute`, with the same envelope.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import time
from typing import (Any, Callable, Dict, Iterable, List, NamedTuple,
                    Optional, Sequence)

from repro.telemetry.metrics import default_registry
from repro.telemetry.trace import (
    TraceContext,
    get_recorder,
    set_recorder,
    worker_recorder,
)

__all__ = ["Unit", "Envelope", "Worker", "uses_fork", "fork", "execute",
           "absorb", "wait", "reap", "set_message_audit", "Handler"]


class Unit(NamedTuple):
    """One unit of work sent to (or inherited by) a worker."""

    key: Any                               # task index, ticket, or rank
    work: Any
    trace: Optional[TraceContext] = None   # ship spans under this context


class Envelope(NamedTuple):
    """A worker's reply to one unit: the only upward wire format."""

    status: str                 # "ok" | "err" | "init_error"
    key: Any
    value: Any = None
    error: str = ""
    error_kind: str = ""        # "" | "exception"
    duration_s: float = 0.0
    metrics: Dict[str, Any] = {}    # sparse typed registry snapshot
    spans: List[Dict[str, Any]] = []


Handler = Callable[[Unit], Any]


def uses_fork(start_method: Optional[str], error: Callable[[str], Exception]) -> bool:
    """Whether a runtime asked for ``start_method`` forks (else it runs
    serially); an unknown method raises ``error(message)``."""
    available = multiprocessing.get_all_start_methods()
    if start_method is not None and start_method not in available:
        raise error(f"start method {start_method!r} not in {available}")
    return "fork" in available and start_method in (None, "fork")


# ---------------------------------------------------------------------------
# Control-plane message audit
# ---------------------------------------------------------------------------

_message_audit: Optional[Callable[[str, Any], None]] = None


def set_message_audit(
    hook: Optional[Callable[[str, Any], None]]
) -> Optional[Callable[[str, Any], None]]:
    """Install a hook observing every parent-side control message.

    The hook is called as ``hook(direction, message)`` with direction
    ``"send"`` or ``"recv"`` for every message the parent sends down or
    receives from a worker pipe.  Tests use it to pin down that DDP's
    steady-state step path pickles no weights and no batches.  Returns
    the previous hook.
    """
    global _message_audit
    previous = _message_audit
    _message_audit = hook
    return previous


# ---------------------------------------------------------------------------
# Child side
# ---------------------------------------------------------------------------

def execute(handle: Handler, unit: Unit) -> Envelope:
    """Run one unit in this process; the envelope carries no telemetry."""
    start = time.perf_counter()
    try:
        value = handle(unit)
    except Exception as exc:
        return Envelope("err", unit.key, error=repr(exc),
                        error_kind="exception",
                        duration_s=time.perf_counter() - start)
    return Envelope("ok", unit.key, value,
                    duration_s=time.perf_counter() - start)


def _child_main(conn, init: Callable[[], Handler],
                units: Optional[Iterable[Unit]], telemetry: bool) -> None:
    """Forked worker: build the handler, answer every unit, exit.

    ``telemetry=False`` ships spans only (no metrics).
    """
    # the parent owns spans recorded before the fork; a kernel hook the
    # parent's recorder did not install stays inherited
    set_recorder(None)
    try:
        handle = init()
    except Exception as exc:
        conn.send(Envelope("init_error", None, error=repr(exc),
                           error_kind="exception"))
        conn.close()
        return
    registry = default_registry()
    recorder = None
    try:
        for unit in units if units is not None else iter(conn.recv, None):
            current = recorder
            recorder = (worker_recorder(unit.trace, reuse=recorder)
                        if unit.trace is not None else None)
            if recorder is not current:
                set_recorder(recorder)
            registry.reset()
            envelope = execute(handle, unit)._replace(
                metrics=registry.typed_snapshot(sparse=True) if telemetry else {},
                spans=recorder.drain_dicts() if recorder is not None else [],
            )
            try:
                conn.send(envelope)
            except OSError:
                return  # the parent is gone
            except Exception as exc:  # unpicklable value
                conn.send(envelope._replace(
                    status="err", value=None,
                    error=f"unpicklable result: {exc!r}",
                    error_kind="exception"))
    except (EOFError, OSError):
        return  # the parent closed the pipe
    conn.close()


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------

class Worker:
    """Parent-side handle on one forked worker process and its pipe."""

    __slots__ = ("process", "conn", "persistent", "eof")

    def __init__(self, process, conn, persistent: bool) -> None:
        self.process = process
        self.conn = conn
        self.persistent = persistent
        self.eof = False

    @property
    def gone(self) -> bool:
        """The pipe hit EOF or the process exited."""
        return self.eof or not self.process.is_alive()

    def send(self, message: Any) -> None:
        if _message_audit is not None:
            _message_audit("send", message)
        self.conn.send(message)

    def recv(self) -> Envelope:
        envelope = self.conn.recv()
        if _message_audit is not None:
            _message_audit("recv", envelope)
        return envelope

    def receive(self) -> List[Envelope]:
        """Every envelope already waiting; marks :attr:`eof` at EOF."""
        envelopes: List[Envelope] = []
        try:
            while self.conn.poll():
                envelopes.append(self.recv())
        except (EOFError, OSError):
            self.eof = True
        return envelopes

    def kill_process(self) -> bool:
        """SIGKILL the process (fault injection); False if already dead."""
        if not self.process.is_alive():
            return False
        self.process.kill()
        return True


def fork(init: Callable[[], Handler],
         units: Optional[Sequence[Unit]] = None,
         telemetry: bool = True) -> Worker:
    """Fork one worker running ``init()``'s handler over ``units``.

    With ``units=None`` the worker is persistent: it answers units sent
    with :meth:`Worker.send` until :func:`reap` sends the stop sentinel.
    """
    ctx = multiprocessing.get_context("fork")
    parent_conn, child_conn = ctx.Pipe()
    process = ctx.Process(target=_child_main,
                          args=(child_conn, init, units, telemetry),
                          daemon=True)
    process.start()
    child_conn.close()
    return Worker(process, parent_conn, persistent=units is None)


def absorb(envelope: Envelope, label: Optional[str] = None) -> None:
    """Merge one envelope's metrics and spans into this process (spans
    land in a lane named ``label``, default by pid)."""
    if envelope.metrics:
        default_registry().merge_typed(envelope.metrics)
    recorder = get_recorder()
    if envelope.spans and recorder is not None:
        recorder.merge_spans(envelope.spans, label=label)


def wait(workers: Sequence[Worker], timeout: Optional[float] = None,
         messages: bool = True) -> List[Worker]:
    """The one liveness wait: block until a worker has an envelope
    waiting (unless ``messages=False``) or has died, or ``timeout``
    elapses; returns the ready workers."""
    handles: List[Any] = [w.process.sentinel for w in workers]
    if messages:
        handles += [w.conn for w in workers]
    ready = set(multiprocessing.connection.wait(handles, timeout))
    return [w for w in workers
            if w.process.sentinel in ready or w.conn in ready]


def _join(workers: Sequence[Worker], grace: float) -> None:
    deadline = time.monotonic() + grace
    for worker in workers:
        worker.process.join(max(0.0, deadline - time.monotonic()))


def reap(workers: Iterable[Worker], grace: float = 1.0) -> None:
    """Tear workers down: stop sentinel, join, terminate, join, kill.

    Each join waits up to ``grace`` seconds for the whole group; on
    return every process has exited and every pipe is closed.
    """
    workers = list(workers)
    for worker in workers:
        if worker.persistent:
            try:
                worker.send(None)
            except OSError:
                pass  # the pipe died with the worker
    _join(workers, grace)
    for worker in workers:
        if worker.process.is_alive():
            worker.process.terminate()
    _join(workers, grace)
    for worker in workers:
        if worker.process.is_alive():
            worker.process.kill()
        worker.process.join()
        worker.conn.close()

"""Deadline-based request coalescing: the batching core of ``repro.serve``.

Single requests against a CPU inference stack waste most of their time
in per-call overhead (IPC, Python dispatch, cold im2col indices); the
paper's "released model under heavy traffic" scenario only becomes
measurable when requests *coalesce* into batches.  :class:`DeadlineBatcher`
is the pure, clock-injected decision kernel the async server builds on:

* requests are admitted FIFO with an absolute **deadline**; a request
  whose deadline has already passed, or that would overflow
  ``capacity``, is refused at admission with :class:`ServeError`
  (structured back-pressure, never silent queue growth);
* every admitted request becomes *due* at
  ``min(enqueued_at + max_wait, deadline - dispatch_margin)`` -- it
  coalesces with later arrivals for at most ``max_wait`` seconds, but
  never so long that dispatch would land past its deadline;
* :meth:`pop_due` emits batches of at most ``max_batch`` requests in
  strict FIFO order whenever the queue holds a due request or a full
  batch; draining an empty (or not-yet-due) queue is a no-op.

The batcher never sleeps and never reads the wall clock unless asked:
callers pass ``now`` explicitly or inject ``clock`` (the async server
uses ``time.monotonic``; the property tests drive a simulated clock),
so the invariants above are testable without a single real sleep.
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, List, Optional

from repro.errors import ServeError

__all__ = ["QueuedRequest", "DeadlineBatcher"]


@dataclass
class QueuedRequest:
    """One admitted request waiting for a batch slot.

    ``context`` is an opaque caller slot (the async server parks the
    request's record there); the batcher never touches it.
    """

    request_id: str
    payload: Any
    enqueued_at: float
    deadline: float
    due_at: float
    seq: int = 0
    context: Any = field(default=None, repr=False)


class DeadlineBatcher:
    """FIFO queue that coalesces requests into deadline-safe batches.

    Args:
        max_batch: hard cap on requests per emitted batch.
        max_wait_s: longest a request may wait for co-batching once
            admitted (its *coalescing* budget, not its deadline).
        capacity: admission cap on queued requests; submits beyond it
            are refused with :class:`ServeError`.
        dispatch_margin_s: safety margin subtracted from each deadline
            when computing the due time, covering the dispatch hop
            between "popped" and "running".
        clock: monotonic time source used when ``now`` is not passed
            explicitly (injectable for deterministic tests).
    """

    def __init__(self, max_batch: int = 16, max_wait_s: float = 0.005,
                 capacity: int = 512, dispatch_margin_s: float = 0.0,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if max_batch < 1:
            raise ServeError(f"max_batch must be >= 1, got {max_batch}")
        if max_wait_s < 0:
            raise ServeError(f"max_wait_s must be >= 0, got {max_wait_s}")
        if capacity < 1:
            raise ServeError(f"capacity must be >= 1, got {capacity}")
        if dispatch_margin_s < 0:
            raise ServeError(
                f"dispatch_margin_s must be >= 0, got {dispatch_margin_s}")
        self.max_batch = int(max_batch)
        self.max_wait_s = float(max_wait_s)
        self.capacity = int(capacity)
        self.dispatch_margin_s = float(dispatch_margin_s)
        self.clock = clock
        self._pending: Deque[QueuedRequest] = deque()
        self._seq = itertools.count()

    # ------------------------------------------------------------ admission
    def __len__(self) -> int:
        return len(self._pending)

    def submit(self, request_id: str, payload: Any,
               deadline: Optional[float] = None,
               now: Optional[float] = None,
               context: Any = None) -> QueuedRequest:
        """Admit one request; refuse (raise) rather than over-commit.

        ``deadline`` is absolute in the batcher's clock domain; ``None``
        means "no deadline" (the request still dispatches within
        ``max_wait_s``).
        """
        now = self.clock() if now is None else float(now)
        if len(self._pending) >= self.capacity:
            raise ServeError(
                f"queue full: {len(self._pending)}/{self.capacity} requests "
                f"pending (request {request_id!r} refused)")
        if deadline is not None and deadline <= now:
            raise ServeError(
                f"deadline already passed for request {request_id!r} "
                f"(deadline {deadline:.6f} <= now {now:.6f})")
        due = now + self.max_wait_s
        if deadline is not None:
            due = min(due, deadline - self.dispatch_margin_s)
        request = QueuedRequest(
            request_id=str(request_id), payload=payload, enqueued_at=now,
            deadline=float("inf") if deadline is None else float(deadline),
            due_at=due, seq=next(self._seq), context=context,
        )
        self._pending.append(request)
        return request

    # ------------------------------------------------------------- dispatch
    def next_due(self) -> Optional[float]:
        """Earliest due time over pending requests (None when empty).

        Full batches are ready regardless of due times; the server
        calls :meth:`pop_due` after every admission, so a filled batch
        never waits on this value.
        """
        if not self._pending:
            return None
        return min(r.due_at for r in self._pending)

    def _head_due(self, now: float) -> bool:
        head = list(itertools.islice(self._pending, self.max_batch))
        return any(r.due_at <= now for r in head)

    def pop_due(self, now: Optional[float] = None) -> List[List[QueuedRequest]]:
        """Emit every batch that is ready at ``now``.

        A batch is ready when the queue holds ``max_batch`` requests
        (coalescing cannot help the head any further) or any request in
        the head window is due.  Requests leave in admission order and
        a single call drains everything ready, so one wake-up never
        leaves a due request behind.  Empty/not-due queues are a no-op.
        """
        now = self.clock() if now is None else float(now)
        batches: List[List[QueuedRequest]] = []
        while self._pending and (len(self._pending) >= self.max_batch
                                 or self._head_due(now)):
            batch = [self._pending.popleft()
                     for _ in range(min(self.max_batch, len(self._pending)))]
            batches.append(batch)
        return batches

    def drain(self) -> List[QueuedRequest]:
        """Remove and return everything pending (server shutdown path)."""
        drained = list(self._pending)
        self._pending.clear()
        return drained

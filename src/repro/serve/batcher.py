"""The admission queue of ``repro.serve``: one FIFO per served model.

Single requests against a CPU inference stack waste most of their time
in per-call overhead (IPC, Python dispatch, cold im2col indices); the
paper's "released model under heavy traffic" scenario only becomes
measurable when requests *coalesce* into batches.  :class:`DeadlineBatcher`
is the pure, clock-injected queue the async server builds on:

* requests are admitted FIFO with an absolute **deadline**; a request
  whose deadline has already passed, or that would overflow
  ``capacity``, is refused at admission with :class:`ServeError`
  (structured back-pressure, never silent queue growth);
* :meth:`pop_batch` hands out up to ``n`` requests in strict FIFO
  order.  The server calls it the moment a shard is free, so a request
  waits only while every shard is busy, and whatever arrived meanwhile
  leaves as one batch.  A request whose deadline passes while it waits
  is still handed out; the server answers it marked late.

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
    seq: int = 0
    context: Any = field(default=None, repr=False)


class DeadlineBatcher:
    """FIFO admission queue with a capacity and deadline refusal.

    Args:
        capacity: admission cap on queued requests; submits beyond it
            are refused with :class:`ServeError`.
        clock: monotonic time source used when ``now`` is not passed
            explicitly (injectable for deterministic tests).
    """

    def __init__(self, capacity: int = 512,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if capacity < 1:
            raise ServeError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
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
        means "no deadline".
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
        request = QueuedRequest(
            request_id=str(request_id), payload=payload, enqueued_at=now,
            deadline=float("inf") if deadline is None else float(deadline),
            seq=next(self._seq), context=context,
        )
        self._pending.append(request)
        return request

    # ------------------------------------------------------------- dispatch
    @property
    def head(self) -> Optional[QueuedRequest]:
        """The oldest pending request (None when empty)."""
        return self._pending[0] if self._pending else None

    def pop_batch(self, n: int) -> List[QueuedRequest]:
        """Remove and return the oldest ``n`` requests (fewer when fewer
        are pending), in admission order."""
        return [self._pending.popleft()
                for _ in range(min(n, len(self._pending)))]

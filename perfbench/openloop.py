"""Open-loop load generator for :class:`repro.serve.ModelServer`.

Requests are sent on the schedule of a :func:`repro.serve.generate_trace`
trace whatever the server does, as independent users would send them.
Each request is timed from the moment it was *due*, so a stall also
charges the wait it imposes on the requests queued behind it, and the
generator reports how late it sent each one (its own lateness).  A refused
or failed request is a failed operation and counts as a miss of the
latency limit.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence


@dataclass
class Sent:
    """One request as the generator saw it (times in seconds, monotonic)."""

    due: float
    sent: float = 0.0
    done: float = 0.0
    response: Any = None

    @property
    def ok(self) -> bool:
        return self.response is not None and bool(self.response.ok)

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1e3

    @property
    def lateness_ms(self) -> float:
        return (self.sent - self.due) * 1e3


@dataclass
class Phase:
    """Every request of one phase, in schedule order."""

    name: str
    requests: List[Sent] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.requests)

    @property
    def failed(self) -> int:
        return sum(not r.ok for r in self.requests)

    def ok(self) -> List[Sent]:
        return [r for r in self.requests if r.ok]

    def slo_misses(self, slo_ms: float) -> int:
        """Failed requests plus successes slower than ``slo_ms``."""
        return sum((not r.ok) or r.latency_ms > slo_ms for r in self.requests)

    def throughput(self) -> float:
        """Completed requests / (last completion - first due time)."""
        done = self.ok()
        if not done:
            return float("nan")
        first_due = min(r.due for r in self.requests)
        return len(done) / (max(r.done for r in done) - first_due)


async def drive(server: Any, name: str, offsets: Sequence[float],
                input_seeds: Sequence[int],
                deadline_ms: Optional[float] = None) -> Phase:
    """Send one request per offset (seconds from now); await them all."""
    loop = asyncio.get_running_loop()
    phase = Phase(name)
    start = time.monotonic()
    tasks = []

    async def one(record: Sent, seed: int) -> None:
        record.sent = time.monotonic()
        record.response = await server.infer(input_seed=int(seed),
                                             deadline_ms=deadline_ms)
        record.done = time.monotonic()

    for offset, seed in zip(offsets, input_seeds):
        due = start + float(offset)
        wait = due - time.monotonic()
        if wait > 0:
            await asyncio.sleep(wait)
        record = Sent(due=due)
        phase.requests.append(record)
        tasks.append(loop.create_task(one(record, seed)))
    await asyncio.gather(*tasks)
    return phase

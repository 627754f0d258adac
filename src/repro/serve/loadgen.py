"""Deterministic open-loop synthetic load for the serving stack.

A serving benchmark is only trustworthy if its traffic is (a)
**open-loop** -- requests arrive on their own schedule whether or not
earlier ones finished, so queueing actually builds -- and (b)
**replayable** -- the same seed produces byte-identical traces, so a
latency regression is a code change, not a traffic change.

:func:`generate_trace` draws heavy-tailed (Pareto) inter-arrival gaps
from a seeded generator and normalizes them so the *mean* rate equals
``rate_rps`` while bursts well above it still occur -- the shape of
real inference traffic, and exactly the regime where deadline batching
earns its keep.  Arrival times are rounded to nanoseconds and each
entry carries an ``input_seed``, so the full request stream (timing
*and* payloads) round-trips through JSONL byte-for-byte
(:func:`trace_to_jsonl` / :func:`load_trace`).

:func:`run_loadgen` (in process) and :func:`repro.serve.http.http_loadgen`
(over HTTP) replay a trace through one open-loop loop, one task per
arrival, timing each request from when it was *due* -- so time before
admission counts -- into a :class:`LoadReport`.
"""

from __future__ import annotations

import asyncio
import json
import time
from collections import Counter
from dataclasses import dataclass, field, fields
from typing import Any, Awaitable, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.errors import ServeError
from repro.serve.server import InferenceResponse
from repro.telemetry.slo import nearest_rank
from repro.telemetry.trace import span

__all__ = ["LoadGenConfig", "TraceEntry", "Trace", "SentRequest",
           "LoadReport", "generate_trace",
           "trace_to_jsonl", "trace_from_jsonl", "load_trace", "save_trace",
           "run_loadgen"]


@dataclass
class LoadGenConfig:
    """Shape of one synthetic load run (everything the trace derives from)."""

    seed: int = 0
    n_requests: int = 100
    rate_rps: float = 200.0
    alpha: float = 1.5  # Pareto tail index; smaller = burstier
    deadline_ms: float = 1000.0
    model: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": int(self.seed), "n_requests": int(self.n_requests),
            "rate_rps": float(self.rate_rps), "alpha": float(self.alpha),
            "deadline_ms": float(self.deadline_ms), "model": self.model,
        }


@dataclass
class TraceEntry:
    """One scheduled request: when it arrives and what it carries."""

    index: int
    arrival_s: float  # offset from load start, seconds
    input_seed: int
    deadline_ms: float
    model: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {
            "index": int(self.index), "arrival_s": self.arrival_s,
            "input_seed": int(self.input_seed),
            "deadline_ms": float(self.deadline_ms),
        }
        if self.model is not None:
            record["model"] = self.model
        return record


class Trace(List[TraceEntry]):
    """A request schedule plus the generator header it came from.

    Behaves exactly like ``list[TraceEntry]``; ``config`` carries the
    raw header dict so a loaded trace re-saves byte-identically even
    when the saver never knew the original :class:`LoadGenConfig`.
    """

    config: Optional[Dict[str, Any]] = None


def generate_trace(config: LoadGenConfig) -> Trace:
    """Seeded heavy-tailed open-loop arrival schedule.

    Gaps are ``(pareto(alpha) + 1) * scale`` with ``scale`` chosen so
    the mean gap is ``1 / rate_rps`` (the Pareto-plus-one mean is
    ``alpha / (alpha - 1)``); arrivals are cumulative sums rounded to
    9 decimals so the JSONL round trip is byte-exact.
    """
    if config.n_requests < 1:
        raise ServeError(f"n_requests must be >= 1, got {config.n_requests}")
    if config.rate_rps <= 0:
        raise ServeError(f"rate_rps must be > 0, got {config.rate_rps}")
    if config.alpha <= 1.0:
        raise ServeError(
            f"alpha must be > 1 for a finite mean gap, got {config.alpha}")
    rng = np.random.default_rng(int(config.seed))
    mean_gap = 1.0 / float(config.rate_rps)
    scale = mean_gap / (config.alpha / (config.alpha - 1.0))
    gaps = (rng.pareto(config.alpha, size=config.n_requests) + 1.0) * scale
    gaps[0] = 0.0  # first request fires at t=0
    arrivals = np.cumsum(gaps)
    seeds = rng.integers(0, 2**31 - 1, size=config.n_requests)
    trace = Trace(
        TraceEntry(index=i, arrival_s=round(float(arrivals[i]), 9),
                   input_seed=int(seeds[i]),
                   deadline_ms=float(config.deadline_ms),
                   model=config.model)
        for i in range(config.n_requests)
    )
    trace.config = config.to_dict()
    return trace


# ------------------------------------------------------------------ trace IO
def trace_to_jsonl(trace: Sequence[TraceEntry],
                   config: Optional[LoadGenConfig] = None) -> str:
    """Serialize a trace (header line + one line per request).

    ``config`` defaults to the trace's own carried header (see
    :class:`Trace`), so generate -> save and load -> save round trips
    are byte-identical without threading the config by hand.
    """
    header = config.to_dict() if config is not None \
        else getattr(trace, "config", None)
    lines = [json.dumps({"trace": "repro-loadgen-v1", "config": header},
                        sort_keys=True)]
    lines.extend(json.dumps(entry.to_dict(), sort_keys=True)
                 for entry in trace)
    return "\n".join(lines) + "\n"


def _trace_record(where: str, line: str) -> Dict[str, Any]:
    try:
        record = json.loads(line)
    except ValueError as exc:
        raise ServeError(f"{where}: not JSON: {exc}") from None
    if not isinstance(record, dict):
        raise ServeError(f"{where}: not a JSON object")
    return record


def trace_from_jsonl(text: str, source: str = "<trace>") -> Trace:
    """Parse :func:`trace_to_jsonl` output; a malformed line raises
    :class:`ServeError` naming ``source:line``."""
    lines = [(number, line) for number, line
             in enumerate(text.splitlines(), start=1) if line.strip()]
    if not lines:
        raise ServeError(f"{source}: empty loadgen trace")
    number, line = lines[0]
    header = _trace_record(f"{source}:{number}", line)
    if header.get("trace") != "repro-loadgen-v1":
        raise ServeError(f"{source}:{number}: not a loadgen trace "
                         f"(header {header.get('trace')!r})")
    entries = Trace()
    entries.config = header.get("config")
    for number, line in lines[1:]:
        where = f"{source}:{number}"
        record = _trace_record(where, line)
        try:
            entries.append(TraceEntry(
                index=int(record["index"]),
                arrival_s=float(record["arrival_s"]),
                input_seed=int(record["input_seed"]),
                deadline_ms=float(record["deadline_ms"]),
                model=record.get("model")))
        except KeyError as exc:
            raise ServeError(f"{where}: trace entry has no "
                             f"{exc.args[0]!r}") from None
        except (TypeError, ValueError) as exc:
            raise ServeError(f"{where}: bad trace entry: {exc}") from None
    return entries


def save_trace(trace: Sequence[TraceEntry], path: str,
               config: Optional[LoadGenConfig] = None) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(trace_to_jsonl(trace, config))


def load_trace(path: str) -> Trace:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ServeError(f"{path}: cannot read loadgen trace: {exc}") from None
    return trace_from_jsonl(text, source=path)


# ------------------------------------------------------------------- running
@dataclass
class SentRequest:
    """One replayed request: its entry, its due, sent and done times on
    the replay clock, and its response (``None`` when lost)."""

    entry: TraceEntry
    due: float
    sent: float = 0.0
    done: float = 0.0
    response: Optional[InferenceResponse] = None

    @property
    def ok(self) -> bool:
        return self.response is not None and self.response.ok

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1e3

    @property
    def lateness_ms(self) -> float:
        return (self.sent - self.due) * 1e3


@dataclass
class LoadReport:
    """What one load run did to the server, as the client saw it:
    latency is due to done (exact nearest rank over the completed
    requests), lateness sent to due; ``requests`` holds the records."""

    sent: int = 0
    completed: int = 0
    errors: int = 0
    refused: int = 0
    deadline_missed: int = 0
    duration_s: float = 0.0
    p50_ms: float = 0.0
    p90_ms: float = 0.0
    p99_ms: float = 0.0
    max_ms: float = 0.0
    lateness_p99_ms: float = 0.0
    mean_batch: float = 0.0
    throughput_rps: float = 0.0
    error_kinds: Dict[str, int] = field(default_factory=dict)
    requests: List[SentRequest] = field(default_factory=list, repr=False)

    @classmethod
    def from_requests(cls, requests: Sequence[SentRequest]) -> "LoadReport":
        """Fold the records; a refused, failed or lost request counts as
        failed, and throughput is completed requests per second from the
        first due to the last completion (0 for a zero-length run)."""
        done = [r for r in requests if r.ok]
        kinds = Counter("lost" if r.response is None
                        else r.response.error_kind or "error"
                        for r in requests if not r.ok)
        report = cls(
            sent=len(requests), completed=len(done), refused=kinds["refused"],
            errors=len(requests) - len(done) - kinds["refused"],
            deadline_missed=sum(r.response is not None
                                and r.response.deadline_missed
                                for r in requests),
            error_kinds=dict(kinds), requests=list(requests))
        if requests:
            first_due = min(r.due for r in requests)
            report.duration_s = max(r.done for r in requests) - first_due
            report.lateness_p99_ms = nearest_rank(
                [r.lateness_ms for r in requests], 0.99)
        if done:
            latencies = [r.latency_ms for r in done]
            report.p50_ms, report.p90_ms, report.p99_ms = (
                nearest_rank(latencies, q) for q in (0.50, 0.90, 0.99))
            report.max_ms = max(latencies)
            report.mean_batch = sum(r.response.batch_size
                                    for r in done) / len(done)
            last = max(r.done for r in done) - first_due
            report.throughput_rps = len(done) / last if last > 0 else 0.0
        return report

    def to_dict(self) -> Dict[str, Any]:
        """The summary fields (everything but ``requests``)."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name != "requests"}

    def to_table(self) -> str:
        rows = [
            ("sent", str(self.sent)),
            ("completed", str(self.completed)),
            ("refused", str(self.refused)),
            ("errors", str(self.errors)),
            ("deadline missed", str(self.deadline_missed)),
            ("duration", f"{self.duration_s:.3f} s"),
            ("throughput", f"{self.throughput_rps:.1f} req/s"),
            ("latency p50", f"{self.p50_ms:.2f} ms"),
            ("latency p90", f"{self.p90_ms:.2f} ms"),
            ("latency p99", f"{self.p99_ms:.2f} ms"),
            ("latency max", f"{self.max_ms:.2f} ms"),
            ("lateness p99", f"{self.lateness_p99_ms:.2f} ms"),
            ("mean batch", f"{self.mean_batch:.2f}"),
        ]
        if self.error_kinds:
            kinds = ", ".join(f"{k}={n}" for k, n in
                              sorted(self.error_kinds.items()))
            rows.append(("error kinds", kinds))
        width = max(len(label) for label, _ in rows)
        return "\n".join(f"{label:<{width}}  {value}"
                         for label, value in rows)


Send = Callable[..., Awaitable[Optional[InferenceResponse]]]


async def _timed(request: SentRequest, send: Send,
                 clock: Callable[[], float]) -> None:
    entry = request.entry
    request.sent = clock()
    try:
        request.response = await send(
            model=entry.model, input_seed=entry.input_seed,
            deadline_ms=entry.deadline_ms, request_id=f"load-{entry.index}")
    except ServeError:
        request.response = None  # lost, never raised
    request.done = clock()


async def _replay(trace: Sequence[TraceEntry], send: Send,
                  time_scale: float, clock: Callable[[], float],
                  sleep: Callable[[float], Awaitable[Any]]) -> LoadReport:
    """The replay loop, under one ``serve.loadgen`` span: each entry is
    sent when due (``arrival_s * time_scale`` after the start) as one
    task calling ``send(model=, input_seed=, deadline_ms=,
    request_id=)``, whatever earlier requests are doing."""
    requests: List[SentRequest] = []
    tasks = []
    with span("serve.loadgen", requests=len(trace)):
        start = clock()
        for entry in sorted(trace, key=lambda e: e.arrival_s):
            request = SentRequest(entry, start + entry.arrival_s * time_scale)
            wait = request.due - clock()
            if wait > 0:
                await sleep(wait)
            requests.append(request)
            tasks.append(asyncio.ensure_future(_timed(request, send, clock)))
        await asyncio.gather(*tasks)
    return LoadReport.from_requests(requests)


async def run_loadgen(server: Any, trace: Sequence[TraceEntry],
                      time_scale: float = 1.0,
                      clock: Callable[[], float] = time.monotonic,
                      sleep: Callable[[float], Awaitable[Any]] = asyncio.sleep,
                      ) -> LoadReport:
    """Replay ``trace`` against ``server`` open-loop; return the report.

    Arrival times are honored relative to the run start regardless of
    how long earlier requests take (``time_scale`` compresses or
    stretches the schedule).  Refusals and errors are counted, never
    raised -- the generator survives a server that says no.
    """
    return await _replay(trace, server.infer, time_scale, clock, sleep)

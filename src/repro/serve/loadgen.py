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

:func:`run_loadgen` replays a trace against an in-process
:class:`~repro.serve.server.ModelServer` (or any object with an async
``infer``), keeps the open-loop contract with one task per arrival,
and folds the structured responses into a :class:`LoadReport`
(p50/p99, throughput, refusals).
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.errors import ServeError

__all__ = ["LoadGenConfig", "TraceEntry", "Trace", "LoadReport",
           "generate_trace",
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
class LoadReport:
    """What one load run did to the server."""

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
    mean_batch: float = 0.0
    throughput_rps: float = 0.0
    error_kinds: Dict[str, int] = field(default_factory=dict)

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
            ("mean batch", f"{self.mean_batch:.2f}"),
        ]
        if self.error_kinds:
            kinds = ", ".join(f"{k}={n}" for k, n in
                              sorted(self.error_kinds.items()))
            rows.append(("error kinds", kinds))
        width = max(len(label) for label, _ in rows)
        return "\n".join(f"{label:<{width}}  {value}"
                         for label, value in rows)


def summarize_responses(responses: Iterable[Any],
                        duration_s: float) -> LoadReport:
    """Fold structured :class:`InferenceResponse`-likes into a report."""
    report = LoadReport(duration_s=float(duration_s))
    latencies: List[float] = []
    batches: List[float] = []
    for response in responses:
        report.sent += 1
        if response is None:
            report.errors += 1
            report.error_kinds["lost"] = \
                report.error_kinds.get("lost", 0) + 1
            continue
        if getattr(response, "deadline_missed", False):
            report.deadline_missed += 1
        if getattr(response, "ok", False):
            report.completed += 1
            latencies.append(float(response.latency_ms))
            batches.append(float(response.batch_size))
        else:
            kind = getattr(response, "error_kind", "") or "error"
            report.error_kinds[kind] = report.error_kinds.get(kind, 0) + 1
            if kind == "refused":
                report.refused += 1
            else:
                report.errors += 1
    if latencies:
        array = np.asarray(latencies)
        report.p50_ms = float(np.percentile(array, 50))
        report.p90_ms = float(np.percentile(array, 90))
        report.p99_ms = float(np.percentile(array, 99))
        report.max_ms = float(array.max())
    if batches:
        report.mean_batch = float(np.mean(batches))
    if duration_s > 0:
        report.throughput_rps = report.completed / duration_s
    return report


async def run_loadgen(server: Any, trace: Sequence[TraceEntry],
                      time_scale: float = 1.0,
                      clock: Callable[[], float] = time.monotonic,
                      sleep: Callable[[float], Any] = asyncio.sleep,
                      ) -> LoadReport:
    """Replay ``trace`` against ``server`` open-loop; return the report.

    Arrival times are honored relative to the run start regardless of
    how long earlier requests take (``time_scale`` compresses or
    stretches the schedule).  Refusals and errors are counted, never
    raised -- the generator survives a server that says no.
    """

    start = clock()

    async def _one(entry: TraceEntry) -> Any:
        delay = entry.arrival_s * time_scale - (clock() - start)
        if delay > 0:
            await sleep(delay)
        try:
            return await server.infer(
                model=entry.model, input_seed=entry.input_seed,
                deadline_ms=entry.deadline_ms,
                request_id=f"load-{entry.index}")
        except ServeError:
            return None

    tasks = [asyncio.ensure_future(_one(entry)) for entry in trace]
    responses = await asyncio.gather(*tasks)
    return summarize_responses(responses, clock() - start)

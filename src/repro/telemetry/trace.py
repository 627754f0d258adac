"""Span-based wall-time tracing with JSONL and Chrome-trace export.

A *span* is one named, timed region of execution; spans nest, forming
the run's call-tree skeleton (epoch > batch, attack > quantize >
cluster).  Instrumented library code wraps its stages in
``with span("attack.training"):`` unconditionally -- when no
:class:`TraceRecorder` is installed the context manager is a shared
no-op object, so the disabled fast path costs one global read and two
trivial method calls.

Enable tracing with :func:`recording`::

    with recording() as recorder:
        run_quantized_correlation_attack(...)
    recorder.to_chrome_trace("trace.json")   # open in chrome://tracing
    recorder.to_jsonl("trace.jsonl")

Tracing is *distributed*: a recorder carries a trace id and exposes
:meth:`TraceRecorder.context`, a small picklable :class:`TraceContext`
that ``repro.parallel`` ships into worker processes.  The worker builds
an aligned recorder with :func:`worker_recorder` (its timestamps land
on the parent's timeline via a wall-clock handshake), records spans as
usual, and ships them back for :meth:`TraceRecorder.merge_spans`; the
merged Chrome trace then shows one lane per worker process (stable
pids, ``process_name`` metadata) under the parent's sweep span.

Spans are also the one attribution mechanism.  While a recorder is
active it owns the backend kernel hook (:mod:`repro.backend.registry`):
each top-level kernel call adds its seconds, calls and bytes to the
innermost open span, and the totals land in that span's
``attrs["kernels"]`` when it closes -- so they ride home from workers
with the spans.  :func:`read_trace` loads a Chrome trace and
:func:`attribute` turns it into one self-time table per process lane
whose rows (span self time, kernel time, ``unattributed``) sum to the
lane's total; ``repro analyze`` prints it.
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
import json
import os
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import (Any, Dict, Iterator, List, Mapping, Optional, Sequence,
                    Set, Tuple)

from repro.backend import registry as _kernels
from repro.errors import ConfigError


@dataclass
class SpanRecord:
    """One finished span: [start, start+duration) seconds from the epoch.

    ``span_id`` / ``parent_id`` give the span a stable identity inside
    its process (0 = no parent); ``pid`` is the recording process, so a
    merged multi-process trace keeps worker spans on distinct lanes.
    """

    name: str
    start: float
    duration: float
    depth: int
    thread_id: int
    attrs: Dict[str, Any] = field(default_factory=dict)
    span_id: int = 0
    parent_id: int = 0
    pid: int = 0

    @property
    def end(self) -> float:
        return self.start + self.duration

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "depth": self.depth,
            "thread_id": self.thread_id,
            "attrs": self.attrs,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "pid": self.pid,
        }


@dataclass
class TraceContext:
    """Picklable trace handoff shipped into worker processes.

    ``origin_wall`` is the wall-clock instant of the parent recorder's
    time origin; a worker aligns its own monotonic clock against it so
    shipped-back spans land directly on the parent timeline (wall-clock
    agreement on one machine is ~ms, far below span granularity).
    ``parent_span_id`` is the span open at capture time -- worker root
    spans are re-parented onto it when merged.
    """

    trace_id: str
    origin_wall: float
    parent_span_id: int = 0


def new_trace_id() -> str:
    """A short unique id shared by every span of one distributed trace."""
    return uuid.uuid4().hex[:16]


class TraceRecorder:
    """Collects finished spans; timestamps are relative to construction."""

    def __init__(self, trace_id: Optional[str] = None) -> None:
        self.spans: List[SpanRecord] = []
        self.trace_id = trace_id if trace_id is not None else new_trace_id()
        self._origin = time.perf_counter()
        self._origin_wall = time.time()
        self._lock = threading.Lock()
        # one innermost open span per thread *and* per asyncio task: a
        # span held across an ``await`` must not nest spans of other tasks
        self._open: contextvars.ContextVar[Optional[_LiveSpan]] = \
            contextvars.ContextVar("repro_open_span", default=None)
        self._stopped: Optional[float] = None
        self._ids = itertools.count(1)
        # spans merged from other processes label their pid lane here
        self._process_labels: Dict[int, str] = {os.getpid(): "repro main"}
        # (pid, tid) -> display name for synthetic lanes (request lanes)
        self._thread_labels: Dict[Any, str] = {}
        # worker-side recorders re-parent their root spans onto the
        # parent process's span that was open at context capture
        self._root_parent_id = 0

    # -------------------------------------------------------------- record
    def add(self, name: str, start: float, duration: float, depth: int,
            attrs: Dict[str, Any], span_id: int = 0,
            parent_id: int = 0, thread_id: Optional[int] = None) -> None:
        record = SpanRecord(
            name=name, start=start, duration=duration, depth=depth,
            thread_id=(threading.get_ident() if thread_id is None
                       else int(thread_id)),
            attrs=attrs,
            span_id=span_id, parent_id=parent_id, pid=os.getpid(),
        )
        with self._lock:
            self.spans.append(record)

    def label_thread(self, thread_id: int, label: str,
                     pid: Optional[int] = None) -> None:
        """Name one tid lane in the Chrome trace (``thread_name`` meta).

        Synthetic lanes -- per-request lanes from
        :mod:`repro.serve.tracing` -- pick tids outside the range of
        real thread idents and label them here so the trace viewer
        shows "request lane 3" instead of a bare number.
        """
        with self._lock:
            self._thread_labels[(pid or os.getpid(), int(thread_id))] = label

    def next_span_id(self) -> int:
        """Allocate a span id for externally-assembled spans.

        :class:`~repro.serve.tracing.RequestTracer` builds its spans
        from explicit timestamps rather than ``with span(...)`` blocks
        (the stages cross async/executor boundaries), but still needs
        ids from the recorder's sequence so parent links cannot collide
        with live spans.
        """
        return next(self._ids)

    # ------------------------------------------------- distributed tracing
    def context(self) -> TraceContext:
        """Capture a :class:`TraceContext` for handing to a worker.

        The parent span id is the innermost span currently open on the
        calling thread or task (0 when none).
        """
        live = self._open.get()
        return TraceContext(
            trace_id=self.trace_id,
            origin_wall=self._origin_wall,
            parent_span_id=live.span_id if live is not None else 0,
        )

    def drain_dicts(self) -> List[Dict[str, Any]]:
        """Pop every recorded span as plain dicts (the worker wire format)."""
        with self._lock:
            spans, self.spans = self.spans, []
        return [record.to_dict() for record in spans]

    def merge_spans(self, spans: Sequence[Mapping[str, Any]],
                    label: Optional[str] = None) -> None:
        """Fold spans shipped back from another process into this trace.

        ``spans`` are :meth:`SpanRecord.to_dict` dicts whose timestamps
        were already aligned to this recorder's timeline by
        :func:`worker_recorder`.  Each foreign pid gets a stable lane
        label (``label`` or ``worker pid=N``) used by the Chrome-trace
        ``process_name`` metadata.
        """
        merged: List[SpanRecord] = []
        for data in spans:
            pid = int(data.get("pid", 0))
            merged.append(SpanRecord(
                name=str(data["name"]),
                start=float(data["start"]),
                duration=float(data["duration"]),
                depth=int(data.get("depth", 0)),
                thread_id=int(data.get("thread_id", 0)),
                attrs=dict(data.get("attrs", {})),
                span_id=int(data.get("span_id", 0)),
                parent_id=int(data.get("parent_id", 0)),
                pid=pid,
            ))
        with self._lock:
            self.spans.extend(merged)
            for record in merged:
                if record.pid and record.pid not in self._process_labels:
                    self._process_labels[record.pid] = (
                        label if label is not None
                        else f"worker pid={record.pid}")

    # ------------------------------------------------------------- queries
    def __len__(self) -> int:
        return len(self.spans)

    def by_name(self, name: str) -> List[SpanRecord]:
        return [s for s in self.spans if s.name == name]

    def total_time(self, name: str) -> float:
        """Summed wall time of every span with ``name``."""
        return sum(s.duration for s in self.by_name(name))

    def roots(self) -> List[SpanRecord]:
        return [s for s in self.spans if s.depth == 0]

    @property
    def wall_s(self) -> float:
        """Seconds from construction until the recorder was last
        uninstalled (until now while it is active)."""
        end = self._stopped
        if end is None or _active is self:
            end = time.perf_counter()
        return end - self._origin

    # -------------------------------------------------------------- export
    def to_jsonl(self, path: os.PathLike) -> None:
        """One JSON object per line, in completion order."""
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record.to_dict(), sort_keys=True))
                handle.write("\n")

    def chrome_trace(self) -> Dict[str, Any]:
        """The Chrome trace-event JSON object (``ph: "X"`` complete events).

        Metadata events (``ph: "M"``) name each process lane and pin a
        stable sort order -- the parent process first, then workers by
        pid -- so a merged multi-process trace renders each worker on
        its own non-interleaved lane in ``chrome://tracing``.  Events
        keep their ``span_id``/``parent_id`` and ``otherData`` holds
        this process's pid and :attr:`wall_s`, which is what
        :func:`attribute` needs to tile each lane.
        """
        own_pid = os.getpid()
        events: List[Dict[str, Any]] = []
        lanes: Dict[int, Set[int]] = {}
        for record in self.spans:
            pid = record.pid or own_pid
            lanes.setdefault(pid, set()).add(record.thread_id)
            events.append({
                "name": record.name,
                "cat": "repro",
                "ph": "X",
                "ts": record.start * 1e6,
                "dur": record.duration * 1e6,
                "pid": pid,
                "tid": record.thread_id,
                "span_id": record.span_id,
                "parent_id": record.parent_id,
                "args": {str(k): v for k, v in record.attrs.items()},
            })
        meta: List[Dict[str, Any]] = []
        order = sorted(lanes, key=lambda p: (p != own_pid, p))
        for sort_index, pid in enumerate(order):
            label = self._process_labels.get(
                pid, "repro main" if pid == own_pid else f"worker pid={pid}")
            meta.append({"name": "process_name", "ph": "M", "pid": pid,
                         "tid": 0, "args": {"name": label}})
            meta.append({"name": "process_sort_index", "ph": "M", "pid": pid,
                         "tid": 0, "args": {"sort_index": sort_index}})
            for tid in sorted(lanes[pid]):
                name = self._thread_labels.get((pid, tid), f"thread {tid}")
                meta.append({"name": "thread_name", "ph": "M", "pid": pid,
                             "tid": tid, "args": {"name": name}})
        return {"traceEvents": meta + events, "displayTimeUnit": "ms",
                "otherData": {"trace_id": self.trace_id, "pid": own_pid,
                              "wall_s": self.wall_s}}

    def to_chrome_trace(self, path: os.PathLike) -> None:
        """Write a file loadable by chrome://tracing / Perfetto."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(), handle, indent=1)
            handle.write("\n")


# ---------------------------------------------------------------------------
# The active recorder and the span() entry point
# ---------------------------------------------------------------------------

_active: Optional[TraceRecorder] = None
# the kernel hook that was installed when the recorder's hook went in
_chained_hook: Optional[_kernels.KernelHook] = None


class _NoopSpan:
    """Shared do-nothing context manager: the disabled fast path."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: Any) -> bool:
        return False


_NOOP = _NoopSpan()


class _LiveSpan:
    __slots__ = ("recorder", "name", "attrs", "start", "depth",
                 "span_id", "parent", "kernels")

    def __init__(self, recorder: TraceRecorder, name: str,
                 attrs: Dict[str, Any]) -> None:
        self.recorder = recorder
        self.name = name
        self.attrs = attrs
        # kernel name -> [seconds, calls, bytes] of the kernels called
        # while this was the innermost open span
        self.kernels: Dict[str, List[float]] = {}

    def __enter__(self) -> "_LiveSpan":
        recorder = self.recorder
        self.parent = parent = recorder._open.get()
        self.depth = 0 if parent is None else parent.depth + 1
        self.span_id = next(recorder._ids)
        recorder._open.set(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> bool:
        end = time.perf_counter()
        recorder = self.recorder
        parent = self.parent
        recorder._open.set(parent)
        if self.kernels:
            self.attrs["kernels"] = {
                name: {"s": s, "calls": int(calls), "bytes": int(nbytes)}
                for name, (s, calls, nbytes) in self.kernels.items()}
        recorder.add(self.name, self.start - recorder._origin,
                     end - self.start, self.depth, self.attrs,
                     span_id=self.span_id,
                     parent_id=(parent.span_id if parent is not None
                                else recorder._root_parent_id))
        return False


def _kernel_to_span(backend_name: str, kernel: str, seconds: float,
                    nbytes: int) -> None:
    """Kernel hook installed while a recorder is active: adds the call
    to the innermost open span's kernel totals, then chains to the hook
    that was installed before it.  Calls outside any span go unrecorded
    (their time reads as unattributed)."""
    recorder = _active
    live = recorder._open.get() if recorder is not None else None
    if live is not None:
        entry = live.kernels.get(kernel)
        if entry is None:
            live.kernels[kernel] = [seconds, 1, nbytes]
        else:
            entry[0] += seconds
            entry[1] += 1
            entry[2] += nbytes
    if _chained_hook is not None:
        _chained_hook(backend_name, kernel, seconds, nbytes)


def span(name: str, **attrs: Any):
    """Context manager timing a named region under the active recorder.

    With no recorder installed this returns a shared no-op object, so
    it is safe (and intended) to leave in hot paths.
    """
    recorder = _active
    if recorder is None:
        return _NOOP
    return _LiveSpan(recorder, name, attrs)


def get_recorder() -> Optional[TraceRecorder]:
    return _active


def set_recorder(recorder: Optional[TraceRecorder]) -> Optional[TraceRecorder]:
    """Install (or with None, remove) the active recorder; returns the old one.

    While a recorder is active, :func:`_kernel_to_span` is the backend
    kernel hook; removing the recorder restores whatever hook it
    chained to, so a hook the recorder did not install survives.
    """
    global _active, _chained_hook
    previous = _active
    _active = recorder
    hooked = _kernels.get_kernel_hook() is _kernel_to_span
    if recorder is not None and not hooked:
        _chained_hook = _kernels.set_kernel_hook(_kernel_to_span)
    elif recorder is None and hooked:
        _kernels.set_kernel_hook(_chained_hook)
        _chained_hook = None
    if previous is not None and previous is not recorder:
        previous._stopped = time.perf_counter()
    return previous


@contextlib.contextmanager
def recording(recorder: Optional[TraceRecorder] = None) -> Iterator[TraceRecorder]:
    """Activate a recorder for the duration of the ``with`` block."""
    recorder = recorder if recorder is not None else TraceRecorder()
    previous = set_recorder(recorder)
    try:
        yield recorder
    finally:
        set_recorder(previous)


def current_trace_context() -> Optional[TraceContext]:
    """The active recorder's :class:`TraceContext`, or None when disabled.

    This is what task dispatchers (``repro.parallel``) capture and ship
    to worker processes alongside the task payload.
    """
    recorder = _active
    if recorder is None:
        return None
    return recorder.context()


def worker_recorder(ctx: TraceContext,
                    reuse: Optional[TraceRecorder] = None) -> TraceRecorder:
    """Build a recorder inside a worker, aligned to the parent timeline.

    The worker's monotonic origin is back-dated by the wall-clock gap
    since the parent's origin, so span ``start`` values are directly
    comparable with (and mergeable into) the parent recorder.  Root
    spans recorded here are parented onto ``ctx.parent_span_id``; span
    ids are offset into a per-pid block of 2**30 ids so they cannot
    collide with the parent's or a sibling worker's ids after the merge
    (and stay exact as JSON doubles).  ``reuse`` -- the worker's
    recorder from an earlier unit -- is kept and only re-parented when
    it records the same trace, so its ids keep counting within the
    block instead of restarting.
    """
    if reuse is not None and reuse.trace_id == ctx.trace_id:
        reuse._root_parent_id = ctx.parent_span_id
        return reuse
    recorder = TraceRecorder(trace_id=ctx.trace_id)
    recorder._origin = time.perf_counter() - (time.time() - ctx.origin_wall)
    recorder._origin_wall = ctx.origin_wall
    recorder._root_parent_id = ctx.parent_span_id
    recorder._ids = itertools.count((os.getpid() << 30) + 1)
    return recorder


@contextlib.contextmanager
def timed_stage(name: str, registry=None, **attrs: Any) -> Iterator[None]:
    """Span + histogram in one: the standard stage instrumentation.

    Emits a span named ``name`` (when tracing is active) and always
    observes the duration into the ``<name>_s`` histogram in
    ``registry`` (the default metrics registry when omitted).
    """
    from repro.telemetry.metrics import default_registry

    registry = registry if registry is not None else default_registry()
    start = time.perf_counter()
    with span(name, **attrs):
        yield
    registry.histogram(name + "_s").observe(time.perf_counter() - start)


# ---------------------------------------------------------------------------
# Attribution: where a trace's time went, one table per process lane
# ---------------------------------------------------------------------------

@dataclass
class Lane:
    """Self-time rows of one process lane.

    ``rows`` are ``(kind, name, calls, seconds)`` with kind ``"span"``,
    ``"kernel"`` or ``"overlap"``; together with ``unattributed_s``, the
    part of ``total_s`` no root span covers, they sum to ``total_s``
    (up to float rounding).  A lane whose total is its roots' coverage
    has ``unattributed_s == 0.0`` exactly.
    """

    pid: int
    label: str
    total_s: float
    rows: List[Tuple[str, str, int, float]]
    unattributed_s: float = 0.0


def read_trace(path: os.PathLike) -> Dict[str, Any]:
    """Load a Chrome trace file (a ``--trace-out`` trace or a serving
    flight dump); anything else, or an event that is not a JSON object,
    raises :class:`ConfigError`."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            trace = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"{os.fspath(path)}: cannot read: {exc}")
    except ValueError as exc:
        raise ConfigError(f"{os.fspath(path)}: not a Chrome trace: {exc}")
    if not isinstance(trace, dict) \
            or not isinstance(trace.get("traceEvents"), list):
        raise ConfigError(
            f"{os.fspath(path)}: not a Chrome trace: no traceEvents list")
    for index, event in enumerate(trace["traceEvents"]):
        if not isinstance(event, dict):
            raise ConfigError(f"{os.fspath(path)}: traceEvents[{index}] is "
                              f"not a JSON object")
    return trace


def attribute(trace: Mapping[str, Any]) -> List[Lane]:
    """Tile each process lane of a :meth:`TraceRecorder.chrome_trace`.

    A span name's row is its spans' durations minus their same-process
    children and minus the kernel time attached to them; a kernel's row
    sums the totals that spans carry under ``args["kernels"]``.  The
    recording process's total is the recorder's wall time (from
    ``otherData``); any other lane's total is the time its root spans
    cover.  Root spans that overlap (concurrent asyncio tasks or
    threads, such as the server's in-flight ``serve.batch`` spans) add
    one negative ``overlap`` row, the time they count more than once,
    so ``unattributed`` is the time no span covers.

    Spans carrying a ``request_id`` arg are left out: they are the
    serving per-request trees, which overlap one another by design and
    are read by the request view (:mod:`repro.serve.analyze`) instead.
    """
    other = trace.get("otherData", {}) or {}
    labels: Dict[int, str] = {}
    by_pid: Dict[int, List[Mapping[str, Any]]] = {}
    for event in trace.get("traceEvents", ()):
        if event.get("ph") == "X":
            if "request_id" in (event.get("args") or {}):
                continue
            by_pid.setdefault(int(event["pid"]), []).append(event)
        elif event.get("name") == "process_name":
            labels[int(event["pid"])] = str(event["args"]["name"])
    lanes: List[Lane] = []
    for pid, events in by_pid.items():
        ids = {event["span_id"] for event in events if "span_id" in event}
        children: Dict[Any, float] = {}
        for event in events:
            if event.get("parent_id") in ids:
                children[event["parent_id"]] = \
                    children.get(event["parent_id"], 0.0) + event["dur"] / 1e6
        spans: Dict[str, List[float]] = {}
        kernels: Dict[str, List[float]] = {}
        roots: List[Tuple[float, float]] = []
        for event in events:
            duration = event["dur"] / 1e6
            self_s = duration - children.get(event.get("span_id"), 0.0)
            for name, stat in ((event.get("args") or {})
                               .get("kernels", {}).items()):
                row = kernels.setdefault(name, [0, 0.0])
                row[0] += stat["calls"]
                row[1] += stat["s"]
                self_s -= stat["s"]
            row = spans.setdefault(event["name"], [0, 0.0])
            row[0] += 1
            row[1] += self_s
            if event.get("parent_id") not in ids:
                start = event["ts"] / 1e6
                roots.append((start, start + duration))
        # roots of concurrent tasks or threads overlap; each span row
        # counts the shared time, so one negative row takes the excess
        # back (overlaps under 1 us are timestamp rounding)
        overlap, overlapping, reach = 0.0, 0, float("-inf")
        for start, stop in sorted(roots):
            if start < reach - 1e-6:
                overlap += min(stop, reach) - start
                overlapping += 1
            reach = max(reach, stop)
        main = pid == other.get("pid") and "wall_s" in other
        rows = [("span", name, int(calls), s)
                for name, (calls, s) in spans.items()]
        rows += [("kernel", name, int(calls), s)
                 for name, (calls, s) in kernels.items()]
        if overlapping:
            rows.append(("overlap", "concurrent spans", overlapping,
                         -overlap))
        rows.sort(key=lambda row: -row[3])
        covered = sum(stop - start for start, stop in roots) - overlap
        total = float(other["wall_s"]) if main else covered
        lanes.append(Lane(pid, labels.get(pid, f"pid {pid}"), total, rows,
                          total - covered))
    lanes.sort(key=lambda lane: (lane.pid != other.get("pid"), lane.pid))
    return lanes


def render_lanes(lanes: Sequence[Lane], source: str = "") -> str:
    """One self-time table per lane: rows, ``unattributed``, ``total``."""
    from repro.telemetry.tables import format_table

    blocks = []
    for lane in lanes:
        total = lane.total_s
        rows = [list(row) for row in lane.rows]
        rows.append(["", "unattributed", "", lane.unattributed_s])
        rows.append(["", "total", "", total])
        body = [[name, kind, calls, s * 1e3,
                 f"{s / total:.1%}" if total > 0 else "-"]
                for kind, name, calls, s in rows]
        title = f"{lane.label} (pid {lane.pid}): self time"
        if source:
            title += f"  ({source})"
        blocks.append(format_table(["row", "kind", "calls", "ms", "share"],
                                   body, title=title))
    return "\n\n".join(blocks) + "\n"

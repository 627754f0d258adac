"""Process-local metrics registry: counters, gauges and histograms.

The registry is the numeric half of the observability layer (spans and
events are the other half, see :mod:`repro.telemetry.trace` and
:mod:`repro.telemetry.events`).  Everything here is zero-dependency and
cheap enough to leave permanently wired into hot paths: a counter
increment is one attribute add, a histogram observation one bisect
over a fixed bucket layout.  The one distribution type is
:class:`~repro.telemetry.slo.SloHistogram`, whose bucket vectors add
exactly, so worker snapshots merge into the parent without losing
quantiles.

A process-global default registry (:func:`default_registry`) collects
the library's built-in instrumentation (``trainer.*``, ``attack.*``,
``quant.*`` metric names); user code may create private
:class:`MetricsRegistry` instances for isolated experiments.
``snapshot()`` returns plain JSON-ready data so results can be stored
next to experiment records without this library.
"""

from __future__ import annotations

import math
import os
import re
import threading
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.errors import ConfigError
from repro.telemetry.slo import EDGES, SloHistogram
from repro.telemetry.tables import format_table


class Counter:
    """Monotonically increasing count (batches seen, ops dispatched)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ConfigError(f"counter {self.name!r} cannot decrease (inc {amount})")
        self.value += amount

    def snapshot(self) -> float:
        return self.value

    def reset(self) -> None:
        self.value = 0.0


class Gauge:
    """Last-written value (current loss, images/sec of the last epoch)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = float("nan")

    def set(self, value: float) -> None:
        self.value = float(value)

    def snapshot(self) -> float:
        return self.value

    def reset(self) -> None:
        self.value = float("nan")


class MetricsRegistry:
    """Named metrics with get-or-create accessors and a plain snapshot."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Any] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, name: str, kind: type, *args: Any) -> Any:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = kind(name, *args)
                self._metrics[name] = metric
            elif not isinstance(metric, kind):
                raise ConfigError(
                    f"metric {name!r} is a {type(metric).__name__}, "
                    f"not a {kind.__name__}"
                )
            return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)

    def histogram(self, name: str,
                  slo: Optional[float] = None) -> SloHistogram:
        """Fixed-bucket :class:`~repro.telemetry.slo.SloHistogram`.

        ``slo`` (a breach target in the observations' unit) is the
        histogram's target from this call on: a later caller with another
        target (a second server in the process) gets its own, and only
        the observations after it are judged against it.  ``breaches``
        keeps counting, so a burn-rate rule over its deltas stays valid.
        A lookup without ``slo`` leaves the target alone.
        """
        histogram = self._get_or_create(name, SloHistogram, slo)
        if slo is not None:
            histogram.slo = float(slo)
        return histogram

    def timer(self, name: str) -> SloHistogram:
        """Alias of :meth:`histogram`, kept for ``perfbench/workloads.py``."""
        return self.histogram(name)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def snapshot(self) -> Dict[str, Any]:
        """All metrics as JSON-ready data (scalars, or dicts for histograms)."""
        with self._lock:
            return {name: metric.snapshot()
                    for name, metric in sorted(self._metrics.items())}

    def typed_snapshot(self, sparse: bool = False) -> Dict[str, Dict[str, Any]]:
        """Snapshot keyed by metric kind, suitable for cross-process merge.

        The plain :meth:`snapshot` loses the counter/gauge distinction
        (both are bare scalars); this variant groups values as
        ``{"counters": {...}, "gauges": {...}, "histograms": {...}}`` so
        :meth:`merge_typed` can apply the right fold per kind.  Used by
        ``repro.parallel`` workers to ship their process-local metrics
        back to the parent.  ``sparse`` keeps only metrics moved since
        the last :meth:`reset` -- counters != 0, set gauges, histograms
        with observations -- and never snapshots an untouched histogram.
        """
        kinds = {Counter: "counters", Gauge: "gauges",
                 SloHistogram: "histograms"}
        typed: Dict[str, Dict[str, Any]] = {
            "counters": {}, "gauges": {}, "histograms": {}}
        with self._lock:
            for name, metric in sorted(self._metrics.items()):
                if sparse and not _moved(metric):
                    continue
                typed[kinds[type(metric)]][name] = metric.snapshot()
        return typed

    def merge_typed(self, typed: Mapping[str, Mapping[str, Any]]) -> None:
        """Merge a :meth:`typed_snapshot` from another process.

        Counters add, gauges take the incoming value (NaN skipped,
        meaning the gauge was never set over there), histograms add
        their bucket vectors, so merged quantiles are exact.
        """
        for name, value in typed.get("counters", {}).items():
            if float(value) != 0.0:
                self.counter(name).inc(float(value))
        for name, value in typed.get("gauges", {}).items():
            if not (isinstance(value, float) and math.isnan(value)):
                self.gauge(name).set(value)
        # zero-count snapshots are skipped *before* the accessor call:
        # merging would be a no-op, but the accessor would still create
        # an empty metric here whose NaN fields pollute later snapshots
        for name, value in typed.get("histograms", {}).items():
            if int(value.get("count", 0)) > 0:
                # a snapshot's target applies on creation only: a late
                # worker snapshot must not undo a newer target here
                self._get_or_create(name, SloHistogram, value.get("slo")) \
                    .merge_snapshot(value)

    def flat_snapshot(self) -> Dict[str, float]:
        """:meth:`snapshot` through :func:`flatten`: dotted scalar keys."""
        return flatten(self.snapshot())

    def reset(self) -> None:
        """Zero every metric (names stay registered)."""
        with self._lock:
            for metric in self._metrics.values():
                metric.reset()

    def clear(self) -> None:
        """Drop every metric entirely."""
        with self._lock:
            self._metrics.clear()

    def render_table(self, title: str = "metrics") -> str:
        """Aligned plain-text table of the current snapshot."""
        return render_metrics(self.snapshot(), title=title)


def _moved(metric: Any) -> bool:
    if isinstance(metric, SloHistogram):
        return metric.count > 0
    if isinstance(metric, Gauge):
        return not math.isnan(metric.value)
    return metric.value != 0.0


def flatten(snapshot: Mapping[str, Any]) -> Dict[str, float]:
    """Flatten ``{name: scalar or dict}`` to dotted scalar keys.

    Non-scalar fields (a histogram's bucket vector) are skipped: flat
    snapshots feed alert rules and sweep records, which expect every
    value to be a number.
    """
    flat: Dict[str, float] = {}
    for name, value in snapshot.items():
        if isinstance(value, dict):
            for field, scalar in value.items():
                if isinstance(scalar, (int, float)):
                    flat[f"{name}.{field}"] = scalar
        else:
            flat[name] = value
    return flat


def _compact(value: Any) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if value != 0 and abs(value) < 1e-3:
            return f"{value:.2e}"
        return f"{value:.4g}"
    return str(value)


_HISTOGRAM_COLUMNS = ("count", "mean", "p50", "p90", "p99", "sum")


def render_metrics(snapshot: Mapping[str, Any], title: str = "metrics") -> str:
    """Aligned plain-text table of a :meth:`MetricsRegistry.snapshot`.

    Counters and gauges print their value; histograms print their
    count, mean, p50, p90, p99 and sum (NaN fields left out).  Serves
    the live registry and a manifest's recorded ``telemetry`` alike.
    """
    rows: List[Sequence[Any]] = []
    for name, value in snapshot.items():
        if isinstance(value, dict):
            detail = "  ".join(
                f"{k}={_compact(value[k])}" for k in _HISTOGRAM_COLUMNS
                if k in value and not (isinstance(value[k], float)
                                       and math.isnan(value[k])))
            rows.append([name, detail])
        else:
            rows.append([name, _compact(value)])
    return format_table(["metric", "value"], rows, title=title)


# --------------------------------------------------------------------------
# Prometheus text exposition
# --------------------------------------------------------------------------

_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")


def _prom_name(name: str) -> str:
    """``trainer.images_per_s`` -> ``repro_trainer_images_per_s``."""
    return "repro_" + _NAME_RE.sub("_", name)


def _prom_value(value: Any) -> str:
    value = float(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(value)


def prometheus_text(registry: Optional[MetricsRegistry] = None) -> str:
    """Render a registry in the Prometheus text exposition format.

    Counters and gauges map directly.  Histograms
    (:class:`~repro.telemetry.slo.SloHistogram`) render as *native*
    Prometheus histograms -- cumulative ``_bucket{le="..."}`` series
    over the fixed layout plus ``_sum``/``_count`` -- so
    ``histogram_quantile()`` works on them server-side; one with an SLO
    target also exposes its breach tally as a ``_breaches`` counter.
    """
    registry = registry if registry is not None else default_registry()
    typed = registry.typed_snapshot()
    lines = []
    for name, value in typed["counters"].items():
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} counter")
        lines.append(f"{prom} {_prom_value(value)}")
    for name, value in typed["gauges"].items():
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} gauge")
        lines.append(f"{prom} {_prom_value(value)}")
    for name, snap in typed["histograms"].items():
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} histogram")
        cumulative = 0
        for edge, count in zip(EDGES, snap["counts"]):
            cumulative += int(count)
            lines.append(f'{prom}_bucket{{le="{edge:g}"}} {cumulative}')
        lines.append(f'{prom}_bucket{{le="+Inf"}} {int(snap["count"])}')
        lines.append(f"{prom}_sum {_prom_value(snap['sum'])}")
        lines.append(f"{prom}_count {_prom_value(snap['count'])}")
        if "slo" in snap:
            lines.append(f"# TYPE {prom}_breaches counter")
            lines.append(f"{prom}_breaches {_prom_value(snap['breaches'])}")
    return "\n".join(lines) + "\n"


_default_registry = MetricsRegistry()


def _renew_lock() -> None:
    # a thread of the parent (a serving thread) may hold the lock at fork
    # time; the child has no such thread to release it
    _default_registry._lock = threading.Lock()


os.register_at_fork(after_in_child=_renew_lock)


def default_registry() -> MetricsRegistry:
    """The process-global registry used by the library's instrumentation."""
    return _default_registry

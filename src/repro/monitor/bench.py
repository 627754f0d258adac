"""Benchmark-trajectory store: record gated results, flag trend regressions.

The perf/quality gates (backend speedup, telemetry overhead, the
monitor overhead gate) assert hard thresholds, but a slow drift that
stays inside the threshold is invisible to them.  This module gives
every gated benchmark a *trajectory*: results append to
``BENCH_<name>.json`` with the machine fingerprint and run id, and the
comparator flags any metric that regressed more than a threshold
fraction against the stored history.

The store is deliberately plain JSON -- diffable, versionable, and
readable without this library::

    {"name": "monitor", "entries": [
        {"ts": ..., "run_id": "...", "fingerprint": "9f2c...",
         "machine": {...}, "metrics": {"epoch_s": 0.41, ...}}, ...]}
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

from repro.errors import ConfigError

PathLike = Union[str, os.PathLike]

#: History window the comparator baselines against.
DEFAULT_WINDOW = 8
#: Default regression threshold (fraction of the baseline).
DEFAULT_THRESHOLD = 0.2

#: Metric-name fragments implying "lower is better".
_LOWER_BETTER = ("time", "duration", "_s", "seconds", "overhead", "mape",
                 "latency", "rss", "mem")


def machine_info() -> Dict[str, Any]:
    """The benchmark-relevant identity of this machine."""
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "cpus": os.cpu_count() or 1,
    }


def machine_fingerprint(info: Optional[Mapping[str, Any]] = None) -> str:
    """Short stable hash of :func:`machine_info` (same box => same hash)."""
    payload = json.dumps(dict(info if info is not None else machine_info()),
                         sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]


def metric_direction(metric: str) -> str:
    """``"lower"`` or ``"higher"`` -- which way is better for this metric.

    Timing/size-flavoured names (``*_s``, ``*time*``, ``*overhead*``,
    ``mape``, ``rss``) are lower-better; everything else (speedup,
    accuracy, PSNR, SSIM, images/sec) is higher-better.
    """
    lowered = metric.lower()
    if any(fragment in lowered for fragment in _LOWER_BETTER):
        return "lower"
    return "higher"


@dataclass
class Regression:
    """One metric that moved past the threshold against its history."""

    metric: str
    baseline: float
    current: float
    change: float          # signed fraction vs. baseline
    direction: str         # which way is better for this metric
    entries: int           # history points behind the baseline

    def __str__(self) -> str:
        return (f"{self.metric}: {self.current:.4g} vs baseline "
                f"{self.baseline:.4g} ({self.change:+.1%}, "
                f"{self.direction} is better, n={self.entries})")


def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def detect_regressions(
    entries: Sequence[Mapping[str, Any]],
    current: Mapping[str, float],
    threshold: float = DEFAULT_THRESHOLD,
    directions: Optional[Mapping[str, str]] = None,
    window: int = DEFAULT_WINDOW,
    fingerprint: Optional[str] = None,
) -> List[Regression]:
    """Flag metrics in ``current`` that regressed vs. the stored history.

    The baseline per metric is the median over the last ``window``
    history entries (restricted to the same machine ``fingerprint``
    when given and at least one entry matches -- cross-machine timings
    are not comparable).  A metric regresses when it moves more than
    ``threshold`` (fraction of baseline) in its *bad* direction; moves
    in the good direction never flag.
    """
    if threshold <= 0:
        raise ConfigError(f"threshold must be positive, got {threshold}")
    history = list(entries)
    if fingerprint is not None:
        same_box = [e for e in history if e.get("fingerprint") == fingerprint]
        if same_box:
            history = same_box
    regressions: List[Regression] = []
    for metric, value in current.items():
        value = float(value)
        past = [float(e["metrics"][metric]) for e in history[-window:]
                if metric in e.get("metrics", {})]
        past = [v for v in past if v == v]  # drop NaN history points
        if not past or value != value:
            continue
        baseline = _median(past)
        if baseline == 0.0:
            continue
        change = (value - baseline) / abs(baseline)
        direction = (directions or {}).get(metric, metric_direction(metric))
        regressed = (direction == "lower" and change > threshold) or \
                    (direction == "higher" and change < -threshold)
        if regressed:
            regressions.append(Regression(
                metric=metric, baseline=baseline, current=value,
                change=change, direction=direction, entries=len(past),
            ))
    return regressions


class BenchStore:
    """Append-only trajectory of benchmark results under one directory.

    Each benchmark name maps to ``<root>/BENCH_<name>.json``; appends
    are read-modify-write of the whole file (entries stay small and the
    writers are test sessions, not servers).
    """

    def __init__(self, root: PathLike = ".") -> None:
        self.root = os.fspath(root)

    def path(self, name: str) -> str:
        if not name or any(sep in name for sep in (os.sep, "/", "\0")):
            raise ConfigError(f"invalid benchmark name {name!r}")
        return os.path.join(self.root, f"BENCH_{name}.json")

    def entries(self, name: str) -> List[Dict[str, Any]]:
        """Stored history for ``name`` (empty when no file exists)."""
        path = self.path(name)
        if not os.path.exists(path):
            return []
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        entries = data.get("entries", [])
        if not isinstance(entries, list):
            raise ConfigError(f"{path}: 'entries' is not a list")
        return entries

    def append(self, name: str, metrics: Mapping[str, float],
               run_id: Optional[str] = None, **extra: Any) -> Dict[str, Any]:
        """Append one result entry; returns the entry as stored."""
        clean = {key: float(value) for key, value in metrics.items()
                 if isinstance(value, (int, float))}
        if not clean:
            raise ConfigError(f"no numeric metrics to record for {name!r}")
        if run_id is None:
            from repro.telemetry.events import get_logger
            run_id = get_logger().run_id
        info = machine_info()
        entry: Dict[str, Any] = {
            "ts": time.time(),
            "run_id": run_id,
            "fingerprint": machine_fingerprint(info),
            "machine": info,
            "metrics": clean,
        }
        if extra:
            entry["extra"] = dict(extra)
        entries = self.entries(name)
        entries.append(entry)
        path = self.path(name)
        if self.root:
            os.makedirs(self.root, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"name": name, "entries": entries}, handle,
                      indent=2, sort_keys=True)
            handle.write("\n")
        return entry

    def check(self, name: str, current: Mapping[str, float],
              threshold: float = DEFAULT_THRESHOLD,
              directions: Optional[Mapping[str, str]] = None,
              window: int = DEFAULT_WINDOW) -> List[Regression]:
        """Compare ``current`` against this store's history for ``name``."""
        return detect_regressions(
            self.entries(name), current, threshold=threshold,
            directions=directions, window=window,
            fingerprint=machine_fingerprint(),
        )

    def names(self) -> List[str]:
        """Benchmark names with a trajectory file under ``root``."""
        found = []
        try:
            listing = os.listdir(self.root)
        except OSError:
            return []
        for entry in sorted(listing):
            if entry.startswith("BENCH_") and entry.endswith(".json"):
                found.append(entry[len("BENCH_"):-len(".json")])
        return found


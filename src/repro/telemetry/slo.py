"""Fixed-bucket histograms: the registry's one distribution type.

Every distribution the library records -- trainer batch and epoch
times, DDP all-reduce waits, monitor probe timings, serve latencies --
is a :class:`SloHistogram` over the same **fixed log-spaced bucket
layout** (:data:`EDGES`).  Because every process buckets identically,
bucket vectors add exactly: a quantile merged from pool workers, shard
workers or DDP ranks is the one a single process observing every value
would report, computed the way Prometheus computes
``histogram_quantile`` -- from one summed bucket vector.

:class:`SloHistogram` keeps

* a bucket-count vector over :data:`EDGES`, ``1e-6`` to ``1e5`` at
  :data:`BUCKETS_PER_DECADE` buckets/decade (111 bounds plus an
  overflow bucket): sub-millisecond durations in seconds and serve
  latencies in milliseconds share one layout,
* exact ``count`` / ``sum`` / ``min`` / ``max`` over the full stream,
* an optional SLO target: observations above it bump ``breaches``,
  which is what the ``latency_slo`` burn-rate alert rule watches.

Quantiles are nearest-rank: the first and last ranks answer with the
exact ``min`` and ``max``, the others with the geometric midpoint of
the answering bucket clamped to ``[min, max]``, so the error is bounded
by the bucket ratio (~12% typical at 10 buckets/decade).
``merge_snapshot`` adds bucket vectors elementwise and raises
:class:`~repro.errors.ConfigError` on a snapshot whose vector has
another length.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from itertools import accumulate
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.errors import ConfigError

__all__ = ["SloHistogram", "EDGES", "BUCKETS_PER_DECADE"]

BUCKETS_PER_DECADE = 10
# bucket upper bounds 10**(k/10) for 1e-6..1e5, rounded to 9 significant
# digits so every process computes the same layout bit for bit
EDGES: Tuple[float, ...] = tuple(
    float(f"{10.0 ** (k / BUCKETS_PER_DECADE):.9g}")
    for k in range(-6 * BUCKETS_PER_DECADE, 5 * BUCKETS_PER_DECADE + 1))
_RATIO = 10.0 ** (1.0 / BUCKETS_PER_DECADE)


class SloHistogram:
    """Mergeable fixed-bucket histogram with SLO breach counting.

    Args:
        name: metric name (``serve.slo.latency_ms``).
        slo: optional target in the same unit as observations; values
            strictly above it count as breaches.
    """

    __slots__ = ("name", "slo", "counts", "count", "total", "min", "max",
                 "breaches")

    def __init__(self, name: str, slo: Optional[float] = None) -> None:
        self.name = name
        self.slo = float(slo) if slo is not None else None
        # counts[i] <= EDGES[i]; counts[-1] is the overflow bucket
        self.counts = [0] * (len(EDGES) + 1)
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.breaches = 0

    # --------------------------------------------------------------- observe
    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.counts[bisect_left(EDGES, value)] += 1
        if self.slo is not None and value > self.slo:
            self.breaches += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else float("nan")

    # -------------------------------------------------------------- quantile
    def quantile(self, q: float) -> float:
        """Nearest-rank quantile: exact at the extremes, else bucketed."""
        if not 0.0 <= q <= 1.0:
            raise ConfigError(f"quantile must be in [0, 1], got {q}")
        if not self.count:
            return float("nan")
        return self._quantile(q, list(accumulate(self.counts)))

    def percentiles(self) -> Dict[str, float]:
        quantiles = (("p50", 0.5), ("p90", 0.9), ("p99", 0.99),
                     ("p999", 0.999))
        if not self.count:
            return {key: float("nan") for key, _ in quantiles}
        # one cumulative pass shared by every quantile: snapshots are
        # taken per shard request and per pool task
        cumulative = list(accumulate(self.counts))
        return {key: self._quantile(q, cumulative) for key, q in quantiles}

    def _quantile(self, q: float, cumulative: List[int]) -> float:
        rank = max(1, math.ceil(q * self.count))
        if rank == 1:
            return self.min
        if rank == self.count:
            return self.max
        index = bisect_left(cumulative, rank)
        if index >= len(EDGES):  # overflow bucket
            return self.max
        upper = EDGES[index]
        lower = EDGES[index - 1] if index else upper / _RATIO
        return min(self.max, max(self.min, math.sqrt(lower * upper)))

    # -------------------------------------------------------------- snapshot
    def snapshot(self) -> Dict[str, Any]:
        snap: Dict[str, Any] = {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min if self.count else float("nan"),
            "max": self.max if self.count else float("nan"),
            "breaches": float(self.breaches),
            "counts": list(self.counts),
        }
        snap.update(self.percentiles())
        if self.slo is not None:
            snap["slo"] = self.slo
        return snap

    def merge_snapshot(self, other: Mapping[str, Any]) -> None:
        """Fold another histogram's snapshot into this one.

        Bucket vectors add elementwise, so merged quantiles are exactly
        what a single process observing both streams would report.
        """
        counts = other.get("counts")
        if not isinstance(counts, (list, tuple)) or \
                len(counts) != len(self.counts):
            raise ConfigError(
                f"histogram {self.name!r}: snapshot counts do not match "
                f"the {len(self.counts)}-bucket layout")
        count = int(other.get("count", 0))
        if count <= 0:
            return
        self.counts = [mine + int(theirs)
                       for mine, theirs in zip(self.counts, counts)]
        self.count += count
        self.total += float(other.get("sum", 0.0))
        self.breaches += int(float(other.get("breaches", 0.0)))
        for key, fold in (("min", min), ("max", max)):
            value = float(other.get(key, float("nan")))
            if not math.isnan(value):
                setattr(self, key, fold(getattr(self, key), value))

    def reset(self) -> None:
        self.counts = [0] * (len(EDGES) + 1)
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.breaches = 0

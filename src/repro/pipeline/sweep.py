"""Parameter-sweep runner: cartesian grids of experiment configurations.

The benchmarks hand-roll their sweeps for readable output; this runner
is the programmatic equivalent for users extending the study -- it
expands a grid, runs a callable per point, tags each record with its
parameters, and renders/exports the collected records.

``Sweep.run(parallel=N)`` fans the grid across a
:class:`repro.parallel.WorkerPool`.  Parallel and serial runs produce
identical records: points are recorded in grid order regardless of
completion order, and per-point randomness (when ``seed`` is given)
derives from ``SeedSequence.spawn`` by point index, independent of
scheduling.  A failed point becomes a failure record (``error`` /
``error_kind`` keys) instead of aborting the sweep.
"""

from __future__ import annotations

import csv
import itertools
import numbers
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Union

import numpy as np

from repro.errors import ConfigError
from repro.pipeline.reporting import format_records
from repro.telemetry.metrics import flatten
from repro.telemetry.trace import span

#: Key marking a sweep record as a failed point.
ERROR_KEY = "error"


def expand_grid(grid: Mapping[str, Sequence[Any]]) -> Iterator[Dict[str, Any]]:
    """Yield one dict per point of the cartesian product of ``grid``."""
    if not grid:
        yield {}
        return
    keys = list(grid)
    for values in itertools.product(*(grid[key] for key in keys)):
        yield dict(zip(keys, values))


@dataclass
class SweepResult:
    """Records collected by :class:`Sweep`."""

    records: List[Dict[str, Any]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    def columns(self) -> List[str]:
        columns: List[str] = []
        for record in self.records:
            for key in record:
                if key not in columns:
                    columns.append(key)
        return columns

    def filter(self, **criteria: Any) -> "SweepResult":
        """Records matching every key=value criterion.

        Records lacking a criterion key simply do not match; failure
        records are handled like any other record.
        """
        kept = [
            record for record in self.records
            if all(record.get(key) == value for key, value in criteria.items())
        ]
        return SweepResult(records=kept)

    def failures(self) -> "SweepResult":
        """Only the failure records (points whose experiment failed)."""
        return SweepResult(records=[r for r in self.records if ERROR_KEY in r])

    def ok(self) -> "SweepResult":
        """Only the successful records."""
        return SweepResult(records=[r for r in self.records if ERROR_KEY not in r])

    def best(self, metric: str, maximize: bool = True) -> Dict[str, Any]:
        """The record with the best value of ``metric``.

        Records that lack the metric or carry a non-orderable value for
        it (``None``, NaN, failure entries) are skipped rather than
        raising; :class:`ConfigError` is raised only when *no* record
        carries a usable value.
        """
        scored = [r for r in self.records if _orderable(r.get(metric))]
        if not scored:
            raise ConfigError(f"no record carries metric {metric!r}")
        chooser = max if maximize else min
        return chooser(scored, key=lambda r: r[metric])

    def to_table(self, title: str = "") -> str:
        return format_records(self.records, title=title, columns=self.columns())

    def to_csv(self, path: Union[str, os.PathLike]) -> None:
        columns = self.columns()
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.DictWriter(handle, fieldnames=columns, restval="")
            writer.writeheader()
            writer.writerows(self.records)


def _orderable(value: Any) -> bool:
    if not isinstance(value, numbers.Real):
        return False
    return value == value  # rejects NaN


def _run_point(experiment: Callable[..., Mapping[str, Any]],
               params: Dict[str, Any],
               seed_seq: Optional[np.random.SeedSequence],
               index: int,
               backend: Optional[str] = None) -> Dict[str, Any]:
    """Execute one grid point (a pool task, forked or in-process).

    ``backend`` is threaded by *name* and resolved against the worker's
    own backend registry.
    """
    from repro import backend as _backend
    with _backend.use_backend(backend), \
            span("sweep.point", index=index,
                 **{k: repr(v) for k, v in params.items()}):
        if seed_seq is not None:
            metrics = experiment(**params, rng=np.random.default_rng(seed_seq))
        else:
            metrics = experiment(**params)
    return dict(metrics)


class Sweep:
    """Run ``experiment(**params)`` over every grid point.

    The experiment callable returns a dict of metrics; each record in
    the result is ``{**params, **metrics}``.

    With ``telemetry=True`` each record additionally carries its
    wall-clock ``duration_s``; pooled points also carry the worker's
    per-point metrics snapshot, flattened under ``tm.*`` keys (see
    ``repro.parallel``), so a sweep export doubles as a per-point cost
    trace.  In-process points carry no ``tm.*``: their metrics land in
    the parent's registry directly.  Each point also runs inside a
    ``sweep.point`` span for Chrome-trace export.
    """

    def __init__(self, grid: Mapping[str, Sequence[Any]],
                 experiment: Callable[..., Mapping[str, Any]],
                 telemetry: bool = False) -> None:
        if not callable(experiment):
            raise ConfigError("experiment must be callable")
        self.grid = dict(grid)
        self.experiment = experiment
        self.telemetry = bool(telemetry)

    def __len__(self) -> int:
        count = 1
        for values in self.grid.values():
            count *= len(values)
        return count

    def run(self, progress: Callable[[Dict[str, Any]], None] = None,
            parallel: int = 1,
            seed: Optional[int] = None,
            timeout: Optional[float] = None,
            retries: int = 1,
            backend: Optional[str] = None) -> SweepResult:
        """Run every grid point and collect records.

        A point whose experiment raises, crashes or times out becomes a
        failure record (``error`` / ``error_kind`` keys, params kept);
        ``run`` never raises for a failed point.

        Args:
            progress: per-point callback receiving the point's params
                (called at submission time, in grid order).
            parallel: worker processes of the
                :class:`repro.parallel.WorkerPool`; ``<= 1`` runs the
                points in-process, in grid order.  Serial and parallel
                runs produce identical records (``telemetry=True`` keys
                excepted: durations and snapshots are
                execution-dependent by nature).
            seed: when given, point ``i`` receives an extra ``rng``
                kwarg, a ``numpy`` Generator derived via
                ``SeedSequence(seed).spawn`` by grid index -- identical
                regardless of scheduling.
            timeout / retries: per-point budget and crash retry bound,
                forwarded to the pool (a timeout cannot preempt an
                in-process point).
            backend: kernel backend name scoped around every point --
                threaded by name into worker processes, which resolve
                it against their own registry.
        """
        from repro.parallel.pool import Task, WorkerPool

        points = list(expand_grid(self.grid))
        seeds: List[Optional[np.random.SeedSequence]] = [None] * len(points)
        if seed is not None:
            from repro.parallel.seeding import spawn_sequences
            seeds = list(spawn_sequences(seed, len(points)))
        for params in points:
            if progress is not None:
                progress(params)
        pool = WorkerPool(max_workers=parallel, timeout=timeout, retries=retries)
        with span("sweep", points=len(points), parallel=int(parallel)):
            outcomes = pool.run([
                Task(_run_point, (self.experiment, params, seed_seq, index,
                                  backend))
                for index, (params, seed_seq) in enumerate(zip(points, seeds))
            ])
        result = SweepResult()
        for params, outcome in zip(points, outcomes):
            record = dict(params)
            if outcome.ok:
                record.update(outcome.value)
            else:
                record[ERROR_KEY] = outcome.error
                record["error_kind"] = outcome.error_kind
            if self.telemetry:
                record["duration_s"] = outcome.duration_s
                for kind_values in outcome.telemetry.values():
                    for name, value in flatten(kind_values).items():
                        record[f"tm.{name}"] = value
            result.records.append(record)
        return result

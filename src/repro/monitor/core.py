"""The Monitor: probe orchestration + JSONL timeseries emission.

A :class:`Monitor` owns a set of probes and plugs into the
:class:`~repro.pipeline.trainer.Trainer`'s ``probes=`` seam.  The
trainer calls :meth:`on_epoch` after every epoch and :meth:`on_batch`
after every batch; the monitor decides which probes fire (epoch-scope
probes at epoch boundaries, batch-scope probes additionally every
``every_batches`` batches) and appends one structured record per probe
tick to

* its in-memory ``records`` list (tests, reports on live objects), and
* a JSONL timeseries file (when ``path`` is given), written through a
  dedicated PR-1 :class:`~repro.telemetry.events.EventLogger` keyed to
  the run manifest's run id.

**Failure isolation**: a probe that raises must never kill training.
The exception is recorded as a ``monitor.probe_error`` event (in the
timeseries and as a warning on the library logger), counted in the
``monitor.probe_errors`` metric, and the probe is disabled after
``max_probe_errors`` consecutive failures so a hard-broken probe cannot
flood the log.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.errors import ConfigError
from repro.monitor.probes import (
    CorrelationProbe,
    DecodeProbe,
    Probe,
    ProbeContext,
    WeightDriftProbe,
)
from repro.monitor.system import (
    GradNormProbe,
    MemoryProbe,
    ThroughputProbe,
    UpdateRatioProbe,
)

#: Event names used in the timeseries JSONL.
PROBE_EVENT = "monitor.probe"
ERROR_EVENT = "monitor.probe_error"


def default_probes(decode_images: int = 4) -> List[Probe]:
    """The built-in probe set: leakage + systems, cheapest first."""
    return [
        CorrelationProbe(),
        WeightDriftProbe(),
        DecodeProbe(max_images=decode_images),
        GradNormProbe(),
        UpdateRatioProbe(),
        MemoryProbe(),
        ThroughputProbe(),
    ]


class Monitor:
    """Probe runner emitting a structured per-epoch/per-batch timeseries.

    Args:
        probes: probe instances to run; ``None`` uses
            :func:`default_probes`.
        path: JSONL timeseries output file (``None`` keeps records
            in memory only).
        every_batches: additionally fire batch-scope probes every N
            batches (``None`` disables batch ticks entirely).
        run_id: run id stamped on every record; defaults to the library
            logger's current run id so the timeseries joins the
            manifest.
        max_probe_errors: consecutive failures after which a probe is
            disabled for the rest of the run.
        alerts: an :class:`~repro.monitor.alerts.AlertEngine` (or plain
            sequence of rules) evaluated against every probe record and,
            once per epoch tick, the metrics registry; fired alerts are
            also written into the timeseries.
    """

    def __init__(
        self,
        probes: Optional[Sequence[Probe]] = None,
        path: Optional[str] = None,
        every_batches: Optional[int] = None,
        run_id: Optional[str] = None,
        max_probe_errors: int = 3,
        alerts: Any = None,
    ) -> None:
        if every_batches is not None and every_batches < 1:
            raise ConfigError(f"every_batches must be >= 1, got {every_batches}")
        if max_probe_errors < 1:
            raise ConfigError(f"max_probe_errors must be >= 1, got {max_probe_errors}")
        self.probes: List[Probe] = list(probes) if probes is not None else default_probes()
        for probe in self.probes:
            if not isinstance(probe, Probe):
                raise ConfigError(f"probes must be Probe instances, got {probe!r}")
        self.every_batches = every_batches
        self.max_probe_errors = int(max_probe_errors)
        self.records: List[Dict[str, Any]] = []
        self.context: Dict[str, Any] = {}
        self.timeseries_path: Optional[str] = path
        self._error_streak: Dict[str, int] = {}
        self._disabled: set = set()
        self._logger = None
        if path is not None:
            from repro.telemetry.events import EventLogger, get_logger
            self._logger = EventLogger(
                path=path, level="debug",
                run_id=run_id if run_id is not None else get_logger().run_id,
            )
        self.alerts = None
        if alerts is not None:
            from repro.monitor.alerts import AlertEngine
            engine = (alerts if isinstance(alerts, AlertEngine)
                      else AlertEngine(list(alerts)))
            if self._logger is not None:
                engine.attach(self._logger)
            self.alerts = engine

    # -------------------------------------------------------------- context
    def bind(self, **context: Any) -> "Monitor":
        """Attach attack context (``groups=``, ``payload=``, ...) for probes.

        Returns ``self`` so construction chains:
        ``Monitor(...).bind(groups=groups)``.
        """
        self.context.update(context)
        return self

    @property
    def run_id(self) -> Optional[str]:
        return self._logger.run_id if self._logger is not None else None

    # ---------------------------------------------------------------- ticks
    def on_epoch(self, model: Any, epoch: int, history: Any = None,
                 optimizer: Any = None) -> None:
        """Epoch-boundary tick: every enabled probe fires."""
        ctx = self._context(model, epoch, None, history, optimizer)
        for probe in self.probes:
            self._run(probe, ctx, "epoch")
        if self.alerts is not None:
            self.alerts.observe_registry(epoch=epoch)

    def on_batch(self, model: Any, epoch: int, batch: int, history: Any = None,
                 optimizer: Any = None) -> None:
        """Per-batch tick: batch-scope probes fire every ``every_batches``."""
        if self.every_batches is None or (batch + 1) % self.every_batches:
            return
        ctx = self._context(model, epoch, batch, history, optimizer)
        for probe in self.probes:
            if probe.scope == "batch":
                self._run(probe, ctx, "batch")

    def _context(self, model: Any, epoch: int, batch: Optional[int],
                 history: Any, optimizer: Any) -> ProbeContext:
        return ProbeContext(
            model=model, epoch=epoch, batch=batch, history=history,
            optimizer=optimizer, groups=self.context.get("groups"),
            extra=self.context,
        )

    # ------------------------------------------------------------ execution
    def _run(self, probe: Probe, ctx: ProbeContext, scope: str) -> None:
        if probe.name in self._disabled:
            return
        from repro.telemetry.metrics import default_registry
        start = time.perf_counter()
        try:
            values = probe.observe(ctx)
        except Exception as exc:
            self._record_error(probe, ctx, scope, exc)
            return
        finally:
            default_registry().histogram(f"monitor.{probe.name}_s").observe(
                time.perf_counter() - start)
        self._error_streak[probe.name] = 0
        if not values:
            return
        record: Dict[str, Any] = {"probe": probe.name, "scope": scope,
                                  "epoch": ctx.epoch, "batch": ctx.batch}
        record.update({key: float(value) for key, value in values.items()})
        self.records.append(record)
        if self._logger is not None:
            self._logger.info(PROBE_EVENT, **record)
        if self.alerts is not None:
            self.alerts.observe(record)

    def _record_error(self, probe: Probe, ctx: ProbeContext, scope: str,
                      exc: Exception) -> None:
        from repro.telemetry.events import get_logger
        from repro.telemetry.metrics import default_registry

        default_registry().counter("monitor.probe_errors").inc()
        streak = self._error_streak.get(probe.name, 0) + 1
        self._error_streak[probe.name] = streak
        disabled = streak >= self.max_probe_errors
        if disabled:
            self._disabled.add(probe.name)
        record: Dict[str, Any] = {
            "probe": probe.name, "scope": scope, "epoch": ctx.epoch,
            "batch": ctx.batch, "error": repr(exc), "disabled": disabled,
        }
        self.records.append({"probe_error": True, **record})
        get_logger().warning(ERROR_EVENT, **record)
        if self._logger is not None:
            self._logger.warning(ERROR_EVENT, **record)
        if self.alerts is not None:
            self.alerts.observe({"probe_error": True, **record})

    # ------------------------------------------------------------- queries
    def probe_records(self, probe: Optional[str] = None,
                      scope: str = "epoch") -> List[Dict[str, Any]]:
        """Successful records, optionally filtered by probe name/scope."""
        return [
            r for r in self.records
            if not r.get("probe_error")
            and (probe is None or r["probe"] == probe)
            and (scope is None or r["scope"] == scope)
        ]

    def errors(self) -> List[Dict[str, Any]]:
        return [r for r in self.records if r.get("probe_error")]

    def series(self, field: str, probe: Optional[str] = None) -> List[float]:
        """Epoch-ordered values of one field across epoch-scope records."""
        ticks = [r for r in self.probe_records(probe, scope="epoch") if field in r]
        return [r[field] for r in sorted(ticks, key=lambda r: r["epoch"])]

    def summary(self) -> Dict[str, float]:
        """Final (latest-epoch) value of every observed field."""
        latest: Dict[str, float] = {}
        for record in self.probe_records(scope="epoch"):
            for key, value in record.items():
                if key not in ("probe", "scope", "epoch", "batch"):
                    latest[key] = value
        return latest

    # ------------------------------------------------------------ lifecycle
    def close(self) -> None:
        if self._logger is not None:
            self._logger.close()

    def __enter__(self) -> "Monitor":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


ProbesArg = Union[Monitor, Sequence[Probe], None]


def as_monitor(probes: ProbesArg) -> Optional[Monitor]:
    """Normalise the trainer's ``probes=`` argument to a Monitor.

    Accepts a ready :class:`Monitor`, a plain sequence of probes
    (wrapped into an in-memory monitor), or ``None``.
    """
    if probes is None or isinstance(probes, Monitor):
        return probes
    return Monitor(probes=list(probes))

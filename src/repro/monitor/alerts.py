"""Declarative alerting rules evaluated against the monitor's timeseries.

The monitor (PR 4) *observes* -- per-epoch probe records land in a JSONL
timeseries and get read back after the fact by ``repro report``.  This
module closes the loop in-process: an :class:`AlertEngine` holds a list
of :class:`AlertRule`\\ s and sees every probe record (and the metrics
registry, once per epoch) as it is produced.  Rules that trip emit
structured :class:`Alert` events to the in-memory list, the
``monitor.alert`` JSONL stream, the metrics registry / live exporter,
and any attached loggers -- so a leakage signature (the paper's Eq. 2
correlation rising out of the benign band), a stalled decode, a
throughput collapse, or a dead worker surfaces while the run is still
going.

Rules come in five shapes:

* :class:`ThresholdRule` -- a probe field crosses a fixed bound;
* :class:`DriftRule` -- a field leaves its own EWMA k-sigma band;
* :class:`StallRule` -- a field stops improving for N ticks;
* :class:`MetricRule` -- a registry metric crosses a bound (absolute or
  relative to its own peak), evaluated at epoch granularity;
* :class:`ProbeDisabledRule` -- the monitor auto-disabled a probe.

``repro alerts TIMESERIES`` replays record-based rules over an existing
timeseries file, so the same rule set works live and forensically.
"""

from __future__ import annotations

import math
import time
import dataclasses
from dataclasses import dataclass
from typing import (Any, Callable, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Tuple)

from repro.errors import ConfigError

#: Event name used for alerts in the timeseries JSONL.
ALERT_EVENT = "monitor.alert"


@dataclass
class Alert:
    """One fired alert: what rule, on what evidence, when."""

    rule: str
    severity: str
    message: str
    probe: str = ""
    field: str = ""
    value: float = float("nan")
    epoch: Optional[int] = None
    batch: Optional[int] = None
    ts: float = dataclasses.field(default_factory=time.time)

    def to_record(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {
            "alert": True, "rule": self.rule, "severity": self.severity,
            "message": self.message, "ts": self.ts,
        }
        if self.probe:
            record["probe"] = self.probe
        if self.field:
            record["field"] = self.field
        if not (isinstance(self.value, float) and math.isnan(self.value)):
            record["value"] = float(self.value)
        if self.epoch is not None:
            record["epoch"] = self.epoch
        if self.batch is not None:
            record["batch"] = self.batch
        return record


class AlertRule:
    """Base rule: sees records (and optionally the registry), may fire.

    Subclasses implement :meth:`evaluate` (per probe record) and/or
    :meth:`evaluate_registry` (per epoch tick); both return an
    :class:`Alert` or ``None``.  :meth:`reset` must restore the rule to
    its just-constructed state so a rule set can be replayed.
    """

    def __init__(self, name: str, severity: str = "warning") -> None:
        if severity not in ("info", "warning", "critical"):
            raise ConfigError(
                f"severity must be info/warning/critical, got {severity!r}")
        self.name = name
        self.severity = severity

    def evaluate(self, record: Mapping[str, Any]) -> Optional[Alert]:
        return None

    def evaluate_registry(self, flat: Mapping[str, float],
                          epoch: Optional[int]) -> Optional[Alert]:
        return None

    def reset(self) -> None:
        pass

    def _alert(self, message: str, record: Mapping[str, Any] = (),
               field: str = "", value: float = float("nan"),
               epoch: Optional[int] = None) -> Alert:
        record = dict(record)
        return Alert(
            rule=self.name, severity=self.severity, message=message,
            probe=str(record.get("probe", "")), field=field, value=value,
            epoch=record.get("epoch", epoch), batch=record.get("batch"),
        )


class ThresholdRule(AlertRule):
    """Fire when a probe field crosses a fixed bound.

    Exactly one of ``above`` / ``below`` must be given.  ``min_epoch``
    suppresses early-training noise (epoch-0 correlation is dominated by
    initialisation); ``fire_once`` latches after the first firing.
    """

    def __init__(self, name: str, field: str,
                 above: Optional[float] = None,
                 below: Optional[float] = None,
                 probe: Optional[str] = None,
                 min_epoch: int = 0,
                 fire_once: bool = True,
                 severity: str = "warning") -> None:
        super().__init__(name, severity)
        if (above is None) == (below is None):
            raise ConfigError("exactly one of above/below is required")
        self.field = field
        self.above = above
        self.below = below
        self.probe = probe
        self.min_epoch = int(min_epoch)
        self.fire_once = fire_once
        self._fired = False

    def reset(self) -> None:
        self._fired = False

    def evaluate(self, record: Mapping[str, Any]) -> Optional[Alert]:
        if self.fire_once and self._fired:
            return None
        if self.probe is not None and record.get("probe") != self.probe:
            return None
        if self.field not in record:
            return None
        epoch = record.get("epoch")
        if epoch is not None and epoch < self.min_epoch:
            return None
        value = float(record[self.field])
        if self.above is not None and value > self.above:
            bound, direction = self.above, "above"
        elif self.below is not None and value < self.below:
            bound, direction = self.below, "below"
        else:
            return None
        self._fired = True
        return self._alert(
            f"{self.field}={value:.4g} {direction} bound {bound:.4g}",
            record, field=self.field, value=value)


class DriftRule(AlertRule):
    """Fire when a field leaves its own EWMA ``sigmas``-sigma band.

    Tracks an exponentially-weighted mean and variance of the field;
    after ``warmup`` observations, a value more than ``sigmas`` standard
    deviations from the mean fires.  The outlier still updates the
    statistics, so a genuine level shift alerts once and then becomes
    the new normal -- drift detection, not threshold pinning.
    """

    def __init__(self, name: str, field: str, sigmas: float = 4.0,
                 alpha: float = 0.3, warmup: int = 3,
                 probe: Optional[str] = None,
                 severity: str = "warning") -> None:
        super().__init__(name, severity)
        if sigmas <= 0:
            raise ConfigError(f"sigmas must be positive, got {sigmas}")
        if not 0 < alpha <= 1:
            raise ConfigError(f"alpha must be in (0, 1], got {alpha}")
        self.field = field
        self.sigmas = float(sigmas)
        self.alpha = float(alpha)
        self.warmup = int(warmup)
        self.probe = probe
        self._mean = 0.0
        self._var = 0.0
        self._seen = 0

    def reset(self) -> None:
        self._mean = 0.0
        self._var = 0.0
        self._seen = 0

    def evaluate(self, record: Mapping[str, Any]) -> Optional[Alert]:
        if self.probe is not None and record.get("probe") != self.probe:
            return None
        if self.field not in record:
            return None
        value = float(record[self.field])
        alert = None
        if self._seen >= self.warmup:
            sigma = math.sqrt(self._var)
            if sigma > 0 and abs(value - self._mean) > self.sigmas * sigma:
                alert = self._alert(
                    f"{self.field}={value:.4g} drifted "
                    f"{abs(value - self._mean) / sigma:.1f} sigma from "
                    f"EWMA {self._mean:.4g}",
                    record, field=self.field, value=value)
        if self._seen == 0:
            self._mean = value
        else:
            delta = value - self._mean
            self._mean += self.alpha * delta
            self._var = (1 - self.alpha) * (self._var + self.alpha * delta * delta)
        self._seen += 1
        return alert


class StallRule(AlertRule):
    """Fire when a field stops improving for ``window`` consecutive ticks.

    "Improving" means increasing by at least ``min_delta`` over the best
    value seen so far (set ``increasing=False`` for loss-like fields).
    Fires once per stall streak: a recovery re-arms the rule.
    """

    def __init__(self, name: str, field: str, window: int = 3,
                 min_delta: float = 0.0, increasing: bool = True,
                 probe: Optional[str] = None,
                 severity: str = "warning") -> None:
        super().__init__(name, severity)
        if window < 1:
            raise ConfigError(f"window must be >= 1, got {window}")
        self.field = field
        self.window = int(window)
        self.min_delta = float(min_delta)
        self.increasing = increasing
        self.probe = probe
        self._best: Optional[float] = None
        self._stalled = 0
        self._fired_this_streak = False

    def reset(self) -> None:
        self._best = None
        self._stalled = 0
        self._fired_this_streak = False

    def evaluate(self, record: Mapping[str, Any]) -> Optional[Alert]:
        if self.probe is not None and record.get("probe") != self.probe:
            return None
        if self.field not in record:
            return None
        value = float(record[self.field])
        signed = value if self.increasing else -value
        best = self._best
        if best is None or signed > best + self.min_delta:
            self._best = signed if best is None else max(best, signed)
            self._stalled = 0
            self._fired_this_streak = False
            return None
        self._stalled += 1
        if self._stalled >= self.window and not self._fired_this_streak:
            self._fired_this_streak = True
            best_shown = best if self.increasing else -best
            return self._alert(
                f"{self.field} has not improved for {self._stalled} ticks "
                f"(best {best_shown:.4g}, now {value:.4g})",
                record, field=self.field, value=value)
        return None


class MetricRule(AlertRule):
    """Fire on a registry metric, evaluated once per epoch tick.

    ``metric`` is a flat-snapshot key (``trainer.images_per_s``,
    ``pool.worker_crashes``, ``trainer.epoch_s.p90``).  One of:

    * ``above`` / ``below`` -- absolute bound;
    * ``below_frac_of_peak`` -- relative collapse: fire when the value
      drops under the given fraction of its own observed peak (after
      ``warmup`` observations), catching throughput cliffs without
      hard-coding machine-specific numbers.
    """

    def __init__(self, name: str, metric: str,
                 above: Optional[float] = None,
                 below: Optional[float] = None,
                 below_frac_of_peak: Optional[float] = None,
                 warmup: int = 2, fire_once: bool = True,
                 severity: str = "warning") -> None:
        super().__init__(name, severity)
        modes = sum(x is not None for x in (above, below, below_frac_of_peak))
        if modes != 1:
            raise ConfigError(
                "exactly one of above/below/below_frac_of_peak is required")
        if below_frac_of_peak is not None and not 0 < below_frac_of_peak < 1:
            raise ConfigError(
                f"below_frac_of_peak must be in (0, 1), got {below_frac_of_peak}")
        self.metric = metric
        self.above = above
        self.below = below
        self.below_frac_of_peak = below_frac_of_peak
        self.warmup = int(warmup)
        self.fire_once = fire_once
        self._peak: Optional[float] = None
        self._seen = 0
        self._fired = False

    def reset(self) -> None:
        self._peak = None
        self._seen = 0
        self._fired = False

    def evaluate_registry(self, flat: Mapping[str, float],
                          epoch: Optional[int]) -> Optional[Alert]:
        if self.fire_once and self._fired:
            return None
        if self.metric not in flat:
            return None
        value = float(flat[self.metric])
        if math.isnan(value):
            return None
        message = None
        if self.above is not None and value > self.above:
            message = f"{self.metric}={value:.4g} above bound {self.above:.4g}"
        elif self.below is not None and value < self.below:
            message = f"{self.metric}={value:.4g} below bound {self.below:.4g}"
        elif self.below_frac_of_peak is not None:
            peak = self._peak
            if (self._seen >= self.warmup and peak is not None and peak > 0
                    and value < self.below_frac_of_peak * peak):
                message = (f"{self.metric}={value:.4g} collapsed under "
                           f"{100 * self.below_frac_of_peak:.0f}% of peak "
                           f"{peak:.4g}")
            self._peak = value if peak is None else max(peak, value)
        self._seen += 1
        if message is None:
            return None
        self._fired = True
        return self._alert(message, field=self.metric, value=value,
                           epoch=epoch)


class BurnRateRule(AlertRule):
    """Fire when the error-budget *burn rate* over a window exceeds budget.

    SLO alerting on raw counters is either too twitchy (any breach
    fires) or too numb (lifetime ratios dilute a fresh regression).
    The standard fix is burn-rate alerting: watch the ratio of *recent*
    bad events to *recent* total events.  ``bad`` and ``total`` are
    cumulative flat-snapshot keys (``serve.slo.latency_ms.breaches`` /
    ``serve.slo.latency_ms.count``); each registry evaluation appends
    one observation, and the rule fires when, over the trailing
    ``window`` evaluations,

    ``(bad_now - bad_then) / (total_now - total_then) > budget``

    with at least ``min_events`` new total events (so a quiet server
    or a tiny test run cannot fire on two unlucky requests).  The rule
    latches while burning and re-arms once the windowed rate drops back
    under budget -- a sustained regression alerts once, recovery and
    re-regression alerts again.
    """

    def __init__(self, name: str, bad: str, total: str,
                 budget: float = 0.1, window: int = 8,
                 min_events: int = 50,
                 severity: str = "warning") -> None:
        super().__init__(name, severity)
        if not 0.0 <= budget < 1.0:
            raise ConfigError(f"budget must be in [0, 1), got {budget}")
        if window < 1:
            raise ConfigError(f"window must be >= 1, got {window}")
        if min_events < 1:
            raise ConfigError(f"min_events must be >= 1, got {min_events}")
        self.bad = bad
        self.total = total
        self.budget = float(budget)
        self.window = int(window)
        self.min_events = int(min_events)
        self._history: List[Tuple[float, float]] = []
        self._burning = False

    def reset(self) -> None:
        self._history = []
        self._burning = False

    def evaluate_registry(self, flat: Mapping[str, float],
                          epoch: Optional[int]) -> Optional[Alert]:
        if self.bad not in flat or self.total not in flat:
            return None
        bad = float(flat[self.bad])
        total = float(flat[self.total])
        if math.isnan(bad) or math.isnan(total):
            return None
        self._history.append((bad, total))
        if len(self._history) > self.window + 1:
            del self._history[:-(self.window + 1)]
        bad_then, total_then = self._history[0]
        delta_bad = bad - bad_then
        delta_total = total - total_then
        if delta_total < self.min_events:
            return None
        rate = delta_bad / delta_total
        if rate <= self.budget:
            self._burning = False
            return None
        if self._burning:  # latched: one alert per burn episode
            return None
        self._burning = True
        return self._alert(
            f"{self.bad}/{self.total} burn rate {rate:.1%} over last "
            f"{int(delta_total)} events exceeds budget {self.budget:.1%}",
            field=self.bad, value=rate, epoch=epoch)


class ProbeDisabledRule(AlertRule):
    """Fire (once per probe) when the monitor auto-disables a probe.

    The monitor's failure isolation turns a hard-broken probe into
    ``monitor.probe_error`` records with ``disabled: true`` on the final
    one; this rule surfaces that as a real alert without ever touching
    training itself.
    """

    def __init__(self, name: str = "probe_disabled",
                 severity: str = "warning") -> None:
        super().__init__(name, severity)
        self._seen: set = set()

    def reset(self) -> None:
        self._seen = set()

    def evaluate(self, record: Mapping[str, Any]) -> Optional[Alert]:
        if not record.get("probe_error") or not record.get("disabled"):
            return None
        probe = str(record.get("probe", ""))
        if probe in self._seen:
            return None
        self._seen.add(probe)
        return self._alert(
            f"probe {probe!r} disabled after repeated errors: "
            f"{record.get('error', '?')}",
            record)


class AlertEngine:
    """Evaluates a rule set against live records and the registry.

    Wire into a :class:`~repro.monitor.core.Monitor` via its ``alerts=``
    argument; the monitor feeds every probe record (success and error)
    through :meth:`observe` and calls :meth:`observe_registry` once per
    epoch tick.  Fired alerts accumulate on :attr:`alerts`, bump the
    ``alerts.total`` / ``alerts.<rule>`` counters (visible to the live
    exporter), update the health heartbeat, and are written as
    ``monitor.alert`` events to any attached loggers.

    ``clock`` (default ``time.time``) stamps each fired alert's ``ts``;
    tests inject a fake clock so alert timestamps are deterministic.
    """

    def __init__(self, rules: Sequence[AlertRule],
                 clock: Optional[Callable[[], float]] = None) -> None:
        self.rules: List[AlertRule] = list(rules)
        for rule in self.rules:
            if not isinstance(rule, AlertRule):
                raise ConfigError(f"rules must be AlertRule instances, got {rule!r}")
        self.clock = clock
        self.alerts: List[Alert] = []
        self._loggers: List[Any] = []

    def attach(self, logger: Any) -> "AlertEngine":
        """Add an EventLogger that receives ``monitor.alert`` events."""
        if logger is not None:
            self._loggers.append(logger)
        return self

    # ----------------------------------------------------------- evaluation
    def observe(self, record: Mapping[str, Any]) -> List[Alert]:
        """Evaluate record-based rules against one probe record."""
        fired = []
        for rule in self.rules:
            try:
                alert = rule.evaluate(record)
            except Exception:
                continue  # a broken rule must not break the monitor
            if alert is not None:
                fired.append(alert)
        for alert in fired:
            self._emit(alert)
        return fired

    def observe_registry(self, registry=None,
                         epoch: Optional[int] = None) -> List[Alert]:
        """Evaluate metric-based rules against a registry snapshot."""
        from repro.telemetry.metrics import default_registry
        registry = registry if registry is not None else default_registry()
        flat = registry.flat_snapshot()
        fired = []
        for rule in self.rules:
            try:
                alert = rule.evaluate_registry(flat, epoch)
            except Exception:
                continue
            if alert is not None:
                fired.append(alert)
        for alert in fired:
            self._emit(alert)
        return fired

    def replay(self, records: Iterable[Mapping[str, Any]]) -> List[Alert]:
        """Reset every rule, then run record-based rules over a recorded
        timeseries (e.g. :func:`repro.monitor.load_timeseries` output)."""
        for rule in self.rules:
            rule.reset()
        self.alerts = []
        for record in records:
            self.observe(record)
        return list(self.alerts)

    # ------------------------------------------------------------- emission
    def _emit(self, alert: Alert) -> None:
        from repro.telemetry.export import update_health
        from repro.telemetry.metrics import default_registry

        if self.clock is not None:
            alert.ts = self.clock()
        self.alerts.append(alert)
        registry = default_registry()
        registry.counter("alerts.total").inc()
        registry.counter(f"alerts.{alert.rule}").inc()
        update_health(last_alert=alert.rule, last_alert_ts=alert.ts,
                      last_alert_severity=alert.severity)
        for logger in self._loggers:
            level = "error" if alert.severity == "critical" else "warning"
            logger.log(level, ALERT_EVENT, **alert.to_record())

    # -------------------------------------------------------------- queries
    def by_rule(self, name: str) -> List[Alert]:
        return [a for a in self.alerts if a.rule == name]

    def summary_table(self, title: str = "alerts") -> str:
        from repro.pipeline.reporting import format_table

        rows = [
            (a.severity, a.rule,
             "-" if a.epoch is None else a.epoch,
             a.message)
            for a in self.alerts
        ]
        return format_table(("severity", "rule", "epoch", "message"), rows,
                            title=title)


def default_rules(corr_threshold: float = 0.25,
                  psnr_window: int = 3,
                  throughput_frac: float = 0.4) -> List[AlertRule]:
    """The built-in rule set watching the attack pipeline's vitals.

    * ``correlation_leak`` -- the paper's Eq. 2 diagnostic: mean
      absolute weight/payload correlation above the benign band (benign
      runs stay under ~0.15 at this scale, see the integration suite)
      is the signature of an imprint being trained in.
    * ``psnr_stall`` -- the decode probe's reconstruction quality
      stopped improving: the attack is no longer making progress.
    * ``corr_drift`` -- any sudden k-sigma jump in the correlation
      trajectory, catching regressions in either direction.
    * ``throughput_collapse`` -- ``trainer.images_per_s`` fell under
      ``throughput_frac`` of its own peak.
    * ``worker_death`` -- the pool recorded a worker crash.
    * ``probe_disabled`` -- monitor failure isolation kicked in.
    """
    return [
        ThresholdRule("correlation_leak", field="corr_abs_mean",
                      above=corr_threshold, probe="correlation",
                      min_epoch=1, severity="critical"),
        StallRule("psnr_stall", field="psnr_mean", window=psnr_window,
                  min_delta=0.05, probe="decode"),
        DriftRule("corr_drift", field="corr_abs_mean", sigmas=6.0,
                  probe="correlation", warmup=3),
        MetricRule("throughput_collapse", metric="trainer.images_per_s",
                   below_frac_of_peak=throughput_frac),
        MetricRule("worker_death", metric="pool.worker_crashes",
                   above=0.0, severity="critical"),
        ProbeDisabledRule(),
    ]


def serving_rules(p99_budget_ms: float = 250.0,
                  error_budget: float = 0.0,
                  refusal_budget: float = 0.0,
                  slo_burn_budget: float = 0.1,
                  saturation_budget: float = 0.05,
                  burn_window: int = 8,
                  burn_min_events: int = 50) -> List[AlertRule]:
    """Rule set watching the ``repro.serve`` request path's vitals.

    Wire into :class:`~repro.serve.server.ModelServer` via ``alerts=``;
    the server calls :meth:`AlertEngine.observe_registry` after every
    dispatched batch, so these fire *during* a load run:

    * ``serve_p99_breach`` -- the ``serve.latency_ms`` p99 crossed the
      latency budget (critical: the serving SLO is gone); the p99 is
      the bucketed quantile over the whole run, not a recent window;
    * ``shard_death`` -- a shard process died mid-request (critical;
      the pool respawns it, but an operator should know);
    * ``serve_errors`` -- operational failures (crashes surviving the
      retry budget, timeouts, handler exceptions) exceeded budget;
    * ``serve_refusals`` -- admission refused more requests than the
      back-pressure budget allows: the queue cap is being hit;
    * ``latency_slo`` -- burn-rate rule on the SLO histogram: more than
      ``slo_burn_budget`` of recent requests breached the per-request
      latency target (critical; also trips a flight-recorder dump);
    * ``queue_saturation`` -- burn-rate rule on admission: more than
      ``saturation_budget`` of recent submissions were refused, i.e.
      the queue is persistently saturated rather than momentarily full.
    """
    return [
        MetricRule("serve_p99_breach", metric="serve.latency_ms.p99",
                   above=p99_budget_ms, severity="critical"),
        MetricRule("shard_death", metric="serve.shard_deaths",
                   above=0.0, severity="critical"),
        MetricRule("serve_errors", metric="serve.errors",
                   above=error_budget, severity="critical"),
        MetricRule("serve_refusals", metric="serve.refused",
                   above=refusal_budget),
        BurnRateRule("latency_slo", bad="serve.slo.latency_ms.breaches",
                     total="serve.slo.latency_ms.count",
                     budget=slo_burn_budget, window=burn_window,
                     min_events=burn_min_events, severity="critical"),
        BurnRateRule("queue_saturation", bad="serve.refused",
                     total="serve.requests", budget=saturation_budget,
                     window=burn_window, min_events=burn_min_events),
    ]

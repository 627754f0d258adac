"""In-training observability: leakage probes, run timeseries, alerts.

Three pieces on top of :mod:`repro.telemetry`:

* **Probes** (:mod:`repro.monitor.probes`, :mod:`repro.monitor.system`)
  -- observers of the live training process.  Leakage probes measure
  what the paper is about (weight/secret correlation, mid-training
  decodability, weight-distribution drift); systems probes measure what
  it costs (grad norm, update ratio, memory, throughput).  Where the
  time goes is not a probe: kernel time rides on trace spans
  (``repro analyze``).
* **Monitor** (:mod:`repro.monitor.core`) -- runs probes per epoch and
  every N batches from the Trainer's ``probes=`` seam and emits a
  structured JSONL timeseries keyed to the run manifest's run id.
  Probe failures are isolated: recorded as ``monitor.probe_error``
  events, never fatal to training.
* **Reports** (:mod:`repro.monitor.report`) -- render a run into
  tables with ASCII sparklines and diff two runs;
  :mod:`repro.monitor.bench` fingerprints the machine a benchmark ran on.

Watch an attack imprint appear::

    monitor = Monitor(path="run.jsonl").bind(groups=groups)
    Trainer(model, x, y, config, penalty=penalty, probes=monitor).train()
    print(render_run(monitor.records))

CLI: ``repro monitor`` (train with probes on) and ``repro analyze``
(render or diff timeseries and replay the alert rules over them).
"""

from repro.monitor.core import (
    ERROR_EVENT,
    PROBE_EVENT,
    Monitor,
    as_monitor,
    default_probes,
)
from repro.monitor.probes import (
    CorrelationProbe,
    DecodeProbe,
    Probe,
    ProbeContext,
    WeightDriftProbe,
    histogram_entropy,
    pearson,
)
from repro.monitor.system import (
    GradNormProbe,
    MemoryProbe,
    ThroughputProbe,
    UpdateRatioProbe,
)
from repro.monitor.alerts import (
    ALERT_EVENT,
    Alert,
    AlertEngine,
    AlertRule,
    DriftRule,
    MetricRule,
    ProbeDisabledRule,
    StallRule,
    ThresholdRule,
    default_rules,
    serving_rules,
)
from repro.monitor.report import (
    alert_records,
    compare_runs,
    load_timeseries,
    render_run,
    series,
)
from repro.monitor.bench import machine_fingerprint, machine_info

__all__ = [
    "Monitor", "as_monitor", "default_probes", "PROBE_EVENT", "ERROR_EVENT",
    "Probe", "ProbeContext", "CorrelationProbe", "DecodeProbe",
    "WeightDriftProbe", "histogram_entropy", "pearson",
    "GradNormProbe", "MemoryProbe", "ThroughputProbe",
    "UpdateRatioProbe",
    "load_timeseries", "render_run", "compare_runs", "series",
    "alert_records",
    "ALERT_EVENT", "Alert", "AlertEngine", "AlertRule", "DriftRule",
    "MetricRule", "ProbeDisabledRule", "StallRule", "ThresholdRule",
    "default_rules", "serving_rules",
    "machine_fingerprint", "machine_info",
]

"""Observability stack overhead gate.

Times the same monitored attack-training epoch with and without the
live observability stack on top of it -- the default alert-rule engine
evaluating every probe record, counting each alert it fires into the
metrics registry -- and asserts the stack adds under the overhead
budget.  The numbers are in the failure message; the gate writes no
file.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.monitor import Monitor, default_probes
from repro.monitor.alerts import default_rules
from repro.pipeline import TrainingConfig
from repro.pipeline.trainer import Trainer

from .test_monitor_overhead import _attack_setup, _best_epoch_seconds

pytestmark = pytest.mark.slow

# Alerts may cost at most this much on top of an already-monitored
# epoch: the rule engine evaluates a handful of comparisons once per
# epoch tick.
OVERHEAD_BUDGET = 0.03


def _monitored_trainer(alerts=None):
    model, batch, labels, groups, payload, mean, std, penalty = _attack_setup()
    monitor = Monitor(default_probes(decode_images=2), alerts=alerts).bind(
        groups=groups, payload=payload, mean=mean, std=std)
    trainer = Trainer(model, batch, labels,
                      TrainingConfig(epochs=1, batch_size=32, lr=0.05, seed=0),
                      penalty=penalty, probes=monitor)
    return trainer, monitor


def test_observability_stack_overhead():
    trainer, monitor = _monitored_trainer()
    trainer.train_epoch()  # warm-up: first-touch allocations stay untimed
    monitored_s = _best_epoch_seconds(trainer)

    observed_trainer, observed_monitor = _monitored_trainer(
        alerts=default_rules())
    observed_trainer.train_epoch()  # same warm-up on the observed side
    observed_s = _best_epoch_seconds(observed_trainer)

    overhead = observed_s / monitored_s - 1.0

    # the stack actually observed something while training ran
    assert observed_monitor.probe_records(scope="epoch")
    assert not observed_monitor.errors()
    assert overhead < OVERHEAD_BUDGET, (
        f"observability stack costs {overhead:.1%} per monitored epoch "
        f"(monitored {monitored_s * 1e3:.1f} ms, "
        f"observed {observed_s * 1e3:.1f} ms); budget {OVERHEAD_BUDGET:.0%}")

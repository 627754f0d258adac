"""Property: merging worker histograms equals observing every value once.

Pool tasks, shard workers and DDP ranks ship ``typed_snapshot()`` home
and the parent folds them in with ``merge_typed``.  The fixed bucket
layout makes that fold exact: bucket for bucket, the parent holds what
one registry observing the union of the streams would hold.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry.metrics import MetricsRegistry

# durations and latencies: zero, sub-microsecond, and past the last edge
streams = st.lists(st.floats(min_value=0.0, max_value=1e7), max_size=60)


def fed(values):
    registry = MetricsRegistry()
    histogram = registry.histogram("h", slo=50.0)
    for value in values:
        histogram.observe(value)
    return registry


@given(streams, streams)
@settings(max_examples=200, deadline=None)
def test_merge_typed_equals_observing_the_union(a, b):
    parent = MetricsRegistry()
    parent.merge_typed(fed(a).typed_snapshot())
    parent.merge_typed(fed(b).typed_snapshot())
    union = fed(a + b).histogram("h")
    if not union.count:
        assert "h" not in parent   # empty snapshots create nothing
        return
    merged = parent.histogram("h")
    assert merged.counts == union.counts
    assert merged.count == union.count
    assert merged.min == union.min
    assert merged.max == union.max
    assert merged.breaches == union.breaches
    assert merged.total == pytest.approx(union.total, rel=1e-12)
    assert merged.percentiles() == union.percentiles()

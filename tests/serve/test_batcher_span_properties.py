"""Property tests: request span trees under simulated dispatch schedules.

Drives the real :class:`DeadlineBatcher` and :class:`RequestTracer` on
one shared fake clock over hypothesis-generated arrival patterns,
dispatched by the work-conserving rule of
:func:`tests.serve.test_batcher_properties.simulate`, then
checks the span-tree invariants the Chrome trace (and ``repro
analyze``) relies on: every span is monotone (non-negative duration),
every stage child nests inside its ``serve.request`` parent, the
tiling children are gapless, and the stage durations sum back to the
request's end-to-end latency.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.batcher import DeadlineBatcher
from repro.serve.tracing import REQUEST_SPAN, RequestTracer
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.trace import TraceRecorder
from tests.serve.test_batcher_properties import simulate

EPS = 1e-9

# Workload: per-request (arrival gap, deadline slack); plus batch cap,
# shard count and a per-batch simulated service time.
request_plans = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=0.02,
                  allow_nan=False, allow_infinity=False),  # gap to previous
        st.floats(min_value=1e-3, max_value=0.5,
                  allow_nan=False, allow_infinity=False),  # deadline slack
    ),
    min_size=1, max_size=40,
)

scenario_params = st.tuples(
    st.integers(min_value=1, max_value=8),     # max_batch
    st.integers(min_value=1, max_value=3),     # shards
    st.floats(min_value=0.0, max_value=0.01,   # per-batch service time
              allow_nan=False, allow_infinity=False),
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _simulate(plan, max_batch, shards, service_s):
    """Admission -> queue -> dispatch -> finish on one fake clock.

    Each request is admitted through the tracer at its arrival; a batch
    is stamped dispatched when a free shard takes it, and its requests
    finish when its service time has passed.
    """
    clock = FakeClock()
    recorder = TraceRecorder()
    tracer = RequestTracer(recorder=recorder, clock=clock,
                           registry=MetricsRegistry())
    batcher = DeadlineBatcher(capacity=10_000, clock=clock)

    def admit(index, now, slack):
        clock.now = now
        ctx = tracer.admit(f"r{index}", "m")
        request = batcher.submit(f"r{index}", payload=index,
                                 deadline=now + slack, context=ctx)
        ctx.t_submit = request.enqueued_at

    def done(batch, shard, start, end):
        clock.now = end
        for request in batch:
            ctx = request.context
            ctx.t_dispatch, ctx.batch_size = start, len(batch)
            ctx.ok, ctx.shard, ctx.infer_s = True, shard, service_s / 2
            tracer.finish(ctx)

    simulate(plan, max_batch, shards, service_s, batcher, admit, done)
    return recorder


def _span_trees(recorder):
    roots = {s.span_id: s for s in recorder.spans if s.name == REQUEST_SPAN}
    children = {}
    for span in recorder.spans:
        if span.name == REQUEST_SPAN:
            continue
        # infer spans hang off the batch child; walk up to the root
        parent = span.parent_id
        while parent not in roots:
            parent = next(s for s in recorder.spans
                          if s.span_id == parent).parent_id
        children.setdefault(parent, []).append(span)
    return roots, children


@settings(max_examples=80, deadline=None)
@given(request_plans, scenario_params)
def test_spans_are_monotone_and_nested_in_their_request(plan, params):
    recorder = _simulate(plan, *params)
    roots, children = _span_trees(recorder)
    assert len(roots) == len(plan), "every admitted request gets a root span"
    for root_id, root in roots.items():
        assert root.duration >= -EPS
        for child in children.get(root_id, []):
            assert child.duration >= -EPS, f"{child.name} runs backwards"
            assert child.start >= root.start - EPS, (
                f"{child.name} starts before its request span")
            assert child.end <= root.end + EPS, (
                f"{child.name} ends after its request span")


@settings(max_examples=80, deadline=None)
@given(request_plans, scenario_params)
def test_tiling_children_are_gapless_and_sum_to_e2e(plan, params):
    recorder = _simulate(plan, *params)
    roots, children = _span_trees(recorder)
    for root_id, root in roots.items():
        tiling = sorted(
            (c for c in children.get(root_id, [])
             if c.name != "serve.request.infer"),
            key=lambda c: c.start)
        assert tiling, "a finished request must have stage children"
        assert abs(tiling[0].start - root.start) <= EPS
        assert abs(tiling[-1].end - root.end) <= EPS
        for left, right in zip(tiling, tiling[1:]):
            assert abs(right.start - left.end) <= EPS, (
                f"gap between {left.name} and {right.name}")
        covered = sum(c.duration for c in tiling)
        assert abs(covered - root.duration) <= len(tiling) * EPS


@settings(max_examples=80, deadline=None)
@given(request_plans, scenario_params)
def test_every_request_id_appears_exactly_once(plan, params):
    recorder = _simulate(plan, *params)
    roots = [s for s in recorder.spans if s.name == REQUEST_SPAN]
    ids = sorted(s.attrs["request_id"] for s in roots)
    assert ids == sorted(f"r{i}" for i in range(len(plan)))

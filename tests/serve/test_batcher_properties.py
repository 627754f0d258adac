"""Property-based tests: the admission queue under work-conserving dispatch.

The batcher is a pure queue driven by an explicit simulated clock, and
:func:`simulate` runs it under the server's dispatch rule -- a free
shard takes up to ``max_batch`` queued requests the moment it is free,
each batch holds its shard for a service time -- so every serving
guarantee is checkable without a single sleep: no shard idles while
requests queue, one batch is in flight per shard, batches respect the
size cap and leave in FIFO order, and a request that arrives at an idle
server does not queue at all.
"""

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ServeError
from repro.serve.batcher import DeadlineBatcher

# One simulated workload: per-request (arrival gap, deadline slack).
request_plans = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=0.02,
                  allow_nan=False, allow_infinity=False),  # gap to previous
        st.floats(min_value=1e-4, max_value=0.5,
                  allow_nan=False, allow_infinity=False),  # deadline slack
    ),
    min_size=1, max_size=60,
)

dispatch_params = st.tuples(
    st.integers(min_value=1, max_value=8),     # max_batch
    st.integers(min_value=1, max_value=3),     # shards
    st.floats(min_value=0.0, max_value=0.01,   # per-batch service time
              allow_nan=False, allow_infinity=False),
)


def simulate(plan, max_batch, shards, service_s, batcher, admit, done):
    """Run ``plan`` through ``batcher`` under the server's dispatch rule.

    Events are taken in time order; at one instant, completions free
    their shards first, then arrivals are admitted (``admit(index, now,
    slack)``, which submits to ``batcher``), then every free shard takes
    a batch while requests queue.  A batch holds its shard for
    ``service_s``; ``done(batch, shard, start, end)`` runs when it
    completes.  Returns the dispatched batches as (shard, start,
    requests left queued, batch), the (time, free shards, queued) state
    after every dispatch step, and the indices of requests that arrived
    at an idle server: a shard free and nothing queued.
    """
    arrivals, now = [], 0.0
    for gap, _ in plan:
        now += gap
        arrivals.append(now)
    free = list(range(shards))  # longest-free first, as the server keeps them
    running = []  # heap of (end, shard, start, batch)
    batches, steps, idle_arrivals = [], [], set()
    index = 0
    while index < len(plan) or running:
        now = min(arrivals[index] if index < len(plan) else float("inf"),
                  running[0][0] if running else float("inf"))
        while running and running[0][0] <= now:
            end, shard, start, batch = heapq.heappop(running)
            done(batch, shard, start, end)
            free.append(shard)
        while index < len(plan) and arrivals[index] <= now:
            if free and not len(batcher):
                idle_arrivals.add(index)
            admit(index, now, plan[index][1])
            index += 1
        while free and len(batcher):
            shard = free.pop(0)
            batch = batcher.pop_batch(max_batch)
            batches.append((shard, now, len(batcher), batch))
            heapq.heappush(running, (now + service_s, shard, now, batch))
        steps.append((now, len(free), len(batcher)))
    assert len(batcher) == 0
    return batches, steps, idle_arrivals


def _run(plan, max_batch, shards, service_s):
    batcher = DeadlineBatcher(capacity=10_000)

    def admit(index, now, slack):
        batcher.submit(f"r{index}", payload=index, deadline=now + slack,
                       now=now)

    ends = {}

    def done(batch, shard, start, end):
        ends[id(batch)] = end

    batches, steps, idle = simulate(plan, max_batch, shards, service_s,
                                    batcher, admit, done)
    return [(shard, start, ends[id(batch)], left, batch)
            for shard, start, left, batch in batches], steps, idle


@settings(max_examples=120, deadline=None)
@given(request_plans, dispatch_params)
def test_no_shard_idles_while_requests_queue(plan, params):
    _, steps, _ = _run(plan, *params)
    for now, free, queued in steps:
        assert free == 0 or queued == 0, (
            f"{free} shard(s) idle with {queued} request(s) queued at {now}")


@settings(max_examples=120, deadline=None)
@given(request_plans, dispatch_params)
def test_one_batch_in_flight_per_shard(plan, params):
    _, shards, _ = params
    batches, _, _ = _run(plan, *params)
    per_shard = {}
    for shard, start, end, _, _ in batches:
        assert 0 <= shard < shards
        per_shard.setdefault(shard, []).append((start, end))
    for spans in per_shard.values():
        for (_, end), (start, _) in zip(spans, spans[1:]):
            assert start >= end, "a shard took a batch while busy"


@settings(max_examples=120, deadline=None)
@given(request_plans, dispatch_params)
def test_batches_respect_size_cap_and_nothing_is_lost(plan, params):
    max_batch = params[0]
    batches, _, _ = _run(plan, *params)
    for _, _, _, left, batch in batches:
        assert 1 <= len(batch) <= max_batch
        assert len(batch) == max_batch or left == 0, (
            "a free shard left requests queued under a partial batch")
    ids = [r.request_id for *_, batch in batches for r in batch]
    assert sorted(ids) == sorted(f"r{i}" for i in range(len(plan)))
    assert len(ids) == len(set(ids)), "a request dispatched twice"


@settings(max_examples=120, deadline=None)
@given(request_plans, dispatch_params)
def test_dispatch_is_fifo(plan, params):
    batches, _, _ = _run(plan, *params)
    seqs = [r.seq for *_, batch in batches for r in batch]
    assert seqs == sorted(seqs), "requests left the queue out of order"


@settings(max_examples=120, deadline=None)
@given(request_plans, dispatch_params)
def test_a_request_arriving_at_an_idle_server_does_not_queue(plan, params):
    batches, _, idle = _run(plan, *params)
    for _, start, _, _, batch in batches:
        for request in batch:
            if request.payload in idle:
                assert start == request.enqueued_at, (
                    f"{request.request_id} queued at an idle server")


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=8))
def test_draining_an_empty_queue_is_a_noop(n):
    batcher = DeadlineBatcher()
    assert batcher.pop_batch(n) == []
    assert batcher.head is None
    assert len(batcher) == 0


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=20),
       st.integers(min_value=1, max_value=20))
def test_pop_batch_takes_the_oldest_n(queued, n):
    batcher = DeadlineBatcher()
    for i in range(queued):
        batcher.submit(f"r{i}", payload=i, deadline=100.0, now=float(i))
    batch = batcher.pop_batch(n)
    assert [r.payload for r in batch] == list(range(min(n, queued)))
    assert len(batcher) == max(0, queued - n)
    if len(batcher):
        assert batcher.head.payload == n


def test_full_queue_refuses_with_structured_error():
    batcher = DeadlineBatcher(capacity=3)
    for i in range(3):
        batcher.submit(f"r{i}", payload=i, now=0.0)
    with pytest.raises(ServeError, match="queue full"):
        batcher.submit("r3", payload=3, now=0.0)


def test_passed_deadline_refused_at_admission():
    batcher = DeadlineBatcher()
    with pytest.raises(ServeError, match="deadline already passed"):
        batcher.submit("late", payload=0, deadline=1.0, now=2.0)


def test_a_deadline_that_passes_in_the_queue_still_dispatches():
    batcher = DeadlineBatcher(clock=lambda: 5.0)
    batcher.submit("r0", payload=0, deadline=1.0, now=0.0)
    [late] = batcher.pop_batch(4)  # popped long after its deadline
    assert late.request_id == "r0" and late.deadline == 1.0

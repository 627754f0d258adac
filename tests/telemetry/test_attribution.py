"""Kernel time on spans, and the per-lane self-time tables built from it."""

import asyncio
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import backend
from repro.autograd.tensor import Tensor
from repro.telemetry import trace
from repro.telemetry.trace import (
    attribute,
    recording,
    render_lanes,
    set_recorder,
    span,
)


def matmul(n=1):
    a = np.ones((8, 8), dtype=np.float64)
    for _ in range(n):
        backend.active().matmul(a, a)


def tiny_forward_backward():
    x = Tensor(np.random.default_rng(0).normal(size=(4, 3)),
               requires_grad=True)
    w = Tensor(np.random.default_rng(1).normal(size=(3, 2)),
               requires_grad=True)
    (x @ w).relu().sum().backward()
    return x, w


def marker_hook(backend_name, kernel, seconds, nbytes):
    """A kernel hook some other tool installed before tracing started."""


def report_hooks():
    return (backend.get_kernel_hook() is marker_hook,
            trace._chained_hook is marker_hook)


def kernel_rows(lane):
    return {name: calls for kind, name, calls, _ in lane.rows
            if kind == "kernel"}


class TestKernelsOnSpans:
    def test_innermost_span_takes_the_kernel(self):
        with recording() as recorder:
            with span("outer"):
                matmul(2)
                with span("inner"):
                    matmul(3)
        by_name = {s.name: s for s in recorder.spans}
        assert by_name["outer"].attrs["kernels"]["matmul"]["calls"] == 2
        inner = by_name["inner"].attrs["kernels"]["matmul"]
        assert inner["calls"] == 3
        assert inner["bytes"] == 3 * 3 * 8 * 8 * 8
        assert 0.0 < inner["s"] <= by_name["inner"].duration

    def test_no_kernel_totals_outside_spans(self):
        with recording() as recorder:
            matmul(2)
            with span("empty"):
                pass
        assert "kernels" not in recorder.spans[0].attrs
        assert backend.get_kernel_hook() is None

    def test_kernel_hook_restored_after_recording(self):
        assert backend.get_kernel_hook() is None
        with recording():
            assert backend.get_kernel_hook() is trace._kernel_to_span
        assert backend.get_kernel_hook() is None

    def test_kernel_hook_restored_on_exception(self):
        with pytest.raises(RuntimeError):
            with recording():
                raise RuntimeError("boom")
        assert backend.get_kernel_hook() is None

    def test_recorder_chains_to_a_foreign_hook_and_restores_it(self):
        calls = []

        def counting(backend_name, kernel, seconds, nbytes):
            calls.append(kernel)

        previous = backend.set_kernel_hook(counting)
        try:
            with recording() as recorder, span("s"):
                matmul(2)
            assert backend.get_kernel_hook() is counting
        finally:
            backend.set_kernel_hook(previous)
        assert calls == ["matmul", "matmul"]
        assert recorder.spans[0].attrs["kernels"]["matmul"]["calls"] == 2

    def test_a_later_foreign_hook_survives_set_recorder_none(self):
        with recording():
            previous = backend.set_kernel_hook(marker_hook)
            assert previous is trace._kernel_to_span
        try:
            assert backend.get_kernel_hook() is marker_hook
        finally:
            backend.set_kernel_hook(None)

    def test_foreign_hook_survives_in_forked_child(self):
        from repro.parallel import Task, WorkerPool

        pool = WorkerPool(max_workers=2, chunk_size=1)
        previous = backend.set_kernel_hook(marker_hook)
        try:
            plain = pool.run([Task(report_hooks)])[0]
            with recording():
                traced = pool.run([Task(report_hooks)])[0]
        finally:
            backend.set_kernel_hook(previous)
        assert plain.value == (True, False)
        # the child's own recorder chains to the inherited hook
        assert traced.value == (False, True)

    def test_gradients_unaffected_by_tracing(self):
        x_plain, w_plain = tiny_forward_backward()
        with recording():
            x_traced, w_traced = tiny_forward_backward()
        np.testing.assert_array_equal(x_plain.grad, x_traced.grad)
        np.testing.assert_array_equal(w_plain.grad, w_traced.grad)

    def test_kernel_totals_accumulate_within_one_span(self):
        with recording() as recorder, span("s"):
            tiny_forward_backward()
            tiny_forward_backward()
        kernels = recorder.by_name("s")[0].attrs["kernels"]
        assert kernels["matmul"]["calls"] == 2
        backward = recorder.by_name("autograd.backward")
        assert len(backward) == 2
        assert all("kernels" in s.attrs for s in backward)

    def test_chrome_trace_is_plain_data(self):
        with recording() as recorder, span("s"):
            tiny_forward_backward()
        payload = json.loads(json.dumps(recorder.chrome_trace()))
        assert payload["otherData"]["pid"] == os.getpid()
        assert payload["otherData"]["wall_s"] == pytest.approx(
            recorder.wall_s)
        events = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        assert all("span_id" in e and "parent_id" in e for e in events)


class TestAsyncNesting:
    def test_spans_held_across_await_nest_per_task(self):
        """Two tasks share one thread: each must nest on its own stack."""
        order = []

        async def first(a_open, b_open):
            with span("A"):
                a_open.set()
                await b_open.wait()
            with span("C"):
                order.append("C")

        async def second(a_open, b_open):
            await a_open.wait()
            with span("B"):
                b_open.set()
                await asyncio.sleep(0.01)
                with span("D"):
                    order.append("D")

        async def main():
            a_open, b_open = asyncio.Event(), asyncio.Event()
            await asyncio.gather(first(a_open, b_open),
                                 second(a_open, b_open))

        with recording() as recorder:
            asyncio.run(main())
        by_name = {s.name: s for s in recorder.spans}
        assert order == ["C", "D"]
        assert (by_name["C"].depth, by_name["C"].parent_id) == (0, 0)
        assert (by_name["B"].depth, by_name["B"].parent_id) == (0, 0)
        assert by_name["D"].parent_id == by_name["B"].span_id
        assert by_name["D"].depth == 1


class TestWallTime:
    def test_wall_time_freezes_when_uninstalled(self):
        with recording() as recorder:
            with span("s"):
                pass
        wall = recorder.wall_s
        assert wall >= recorder.spans[0].duration
        assert recorder.wall_s == wall

    def test_wall_time_runs_while_active(self):
        recorder = trace.TraceRecorder()
        previous = set_recorder(recorder)
        try:
            first = recorder.wall_s
            assert recorder.wall_s >= first
        finally:
            set_recorder(previous)


# ----------------------------------------------------------- attribution

@st.composite
def span_trees(draw, depth=0):
    """A span as ``(name, self_s, {kernel: (s, calls)}, children)``."""
    name = draw(st.sampled_from(["a", "b", "c"]))
    self_s = draw(st.floats(0.0, 1.0))
    kernels = draw(st.dictionaries(
        st.sampled_from(["conv", "matmul"]),
        st.tuples(st.floats(0.0, 1.0), st.integers(1, 5)), max_size=2))
    children = draw(st.lists(span_trees(depth=depth + 1),
                             max_size=0 if depth >= 2 else 3))
    return name, self_s, kernels, children


def _events(tree, pid, ids, parent_id, start, expected):
    """Chrome events for ``tree`` laid out from ``start``; fills
    ``expected`` with per-row self seconds and kernel calls."""
    name, self_s, kernels, children = tree
    span_id = next(ids)
    events, cursor = [], start + self_s
    for child in children:
        child_events = _events(child, pid, ids, span_id, cursor, expected)
        cursor += child_events[0]["dur"] / 1e6
        events += child_events
    kernel_s = sum(s for s, _ in kernels.values())
    duration = cursor - start + kernel_s
    row = expected.setdefault(("span", name), [0, 0.0])
    row[0] += 1
    row[1] += self_s
    for kernel, (s, calls) in kernels.items():
        row = expected.setdefault(("kernel", kernel), [0, 0.0])
        row[0] += calls
        row[1] += s
    root = {"name": name, "ph": "X", "pid": pid, "tid": 1,
            "ts": start * 1e6, "dur": duration * 1e6, "span_id": span_id,
            "parent_id": parent_id,
            "args": {"kernels": {k: {"s": s, "calls": c, "bytes": 0}
                                 for k, (s, c) in kernels.items()}}}
    return [root] + events


class TestAttribute:
    @given(st.lists(span_trees(), min_size=1, max_size=3),
           st.lists(span_trees(), max_size=2), st.floats(0.0, 5.0))
    @settings(max_examples=60, deadline=None)
    def test_rows_plus_unattributed_tile_every_lane(self, main, worker, idle):
        import itertools

        ids = itertools.count(1)
        main_rows, worker_rows = {}, {}
        events, cursor = [], 0.0
        for tree in main:
            tree_events = _events(tree, 1, ids, 0, cursor, main_rows)
            cursor += tree_events[0]["dur"] / 1e6
            events += tree_events
        worker_s = 0.0
        for tree in worker:
            # worker roots hang off a span of the main lane
            tree_events = _events(tree, 2, ids, 1, worker_s, worker_rows)
            worker_s += tree_events[0]["dur"] / 1e6
            events += tree_events
        wall = cursor + idle
        lanes = attribute({"traceEvents": events,
                           "otherData": {"pid": 1, "wall_s": wall}})
        assert [lane.pid for lane in lanes] == [1, 2][:1 + bool(worker)]
        for lane, expected, total in zip(lanes, (main_rows, worker_rows),
                                         (wall, worker_s)):
            assert lane.total_s == pytest.approx(total)
            attributed = sum(row[3] for row in lane.rows)
            assert attributed + lane.unattributed_s == pytest.approx(
                lane.total_s, rel=1e-12, abs=1e-9)
            got = {(kind, name): [calls, s]
                   for kind, name, calls, s in lane.rows}
            assert set(got) == set(expected)
            for key, (calls, s) in expected.items():
                assert got[key][0] == calls
                assert got[key][1] == pytest.approx(s, abs=1e-9)
        assert lanes[0].unattributed_s == pytest.approx(idle, abs=1e-9)
        if worker:
            assert lanes[1].unattributed_s == pytest.approx(0.0, abs=1e-9)

    def test_overlapping_roots_count_once(self):
        # two concurrent roots [0, 3] and [1, 4] s in a 5 s lane
        events = [{"name": name, "ph": "X", "pid": 1, "tid": 1,
                   "ts": start * 1e6, "dur": 3e6, "span_id": span_id,
                   "parent_id": 0, "args": {}}
                  for name, start, span_id in (("a", 0.0, 1), ("b", 1.0, 2))]
        [lane] = attribute({"traceEvents": events,
                            "otherData": {"pid": 1, "wall_s": 5.0}})
        rows = {(kind, name): (calls, s) for kind, name, calls, s
                in lane.rows}
        assert rows[("span", "a")] == (1, 3.0)
        assert rows[("span", "b")] == (1, 3.0)
        assert rows[("overlap", "concurrent spans")] == (1, -2.0)
        assert lane.total_s == 5.0
        assert lane.unattributed_s == pytest.approx(1.0)

    def test_kernel_rows_match_a_counting_hook(self):
        from repro.models import resnet8_tiny
        from repro.pipeline import TrainingConfig
        from repro.pipeline.trainer import Trainer

        rng = np.random.default_rng(0)
        trainer = Trainer(
            resnet8_tiny(num_classes=4, in_channels=3, width=4, rng=rng),
            rng.normal(size=(32, 3, 8, 8)), rng.integers(0, 4, size=32),
            TrainingConfig(epochs=1, batch_size=16, lr=0.05))
        counts = {}

        def counting(backend_name, kernel, seconds, nbytes):
            counts[kernel] = counts.get(kernel, 0) + 1

        previous = backend.set_kernel_hook(counting)
        try:
            with recording() as recorder:
                trainer.train_epoch()
        finally:
            backend.set_kernel_hook(previous)
        (lane,) = attribute(recorder.chrome_trace())
        assert counts and kernel_rows(lane) == counts

    def test_kernel_time_dominates_a_training_step(self):
        """Kernels carry most of a conv training step's wall time, so
        the span tree leaves little of it unexplained."""
        from repro import precision
        from repro.models import resnet8_tiny
        from repro.nn.losses import CrossEntropyLoss
        from repro.nn.optim import SGD

        rng = np.random.default_rng(0)
        with precision.use_dtype("float64"):
            model = resnet8_tiny(num_classes=4, in_channels=3, width=8,
                                 rng=rng)
            inputs = rng.normal(size=(16, 3, 16, 16))
            labels = rng.integers(0, 4, size=16)
            optimizer = SGD(model.parameters(), lr=0.01)

            def step():
                loss = CrossEntropyLoss()(model(Tensor(inputs)), labels)
                model.zero_grad()
                loss.backward()
                optimizer.step()

            step()  # warm-up outside the traced region
            with recording() as recorder, span("step"):
                step()
        (lane,) = attribute(recorder.chrome_trace())
        kernel_s = sum(row[3] for row in lane.rows if row[0] == "kernel")
        assert kernel_s >= 0.75 * recorder.by_name("step")[0].duration

    def test_worker_lanes_carry_kernel_rows(self):
        from repro.parallel import Task, WorkerPool

        pool = WorkerPool(max_workers=2, chunk_size=1)
        with recording() as recorder, span("root"):
            assert all(o.ok for o in pool.run([Task(matmul, (2,)),
                                               Task(matmul, (3,))]))
        lanes = attribute(recorder.chrome_trace())
        assert lanes[0].pid == os.getpid()
        workers = lanes[1:]
        assert workers and all(l.label.startswith("worker") for l in workers)
        assert sum(kernel_rows(l).get("matmul", 0) for l in workers) == 5
        for lane in lanes:
            assert lane.unattributed_s <= lane.total_s
        # the parent's root span is not charged for worker time
        root = next(r for r in lanes[0].rows if r[1] == "root")
        assert root[3] == pytest.approx(recorder.by_name("root")[0].duration)

    def test_render_lanes_table(self):
        with recording() as recorder, span("s"):
            matmul(2)
        text = render_lanes(attribute(recorder.chrome_trace()), source="t")
        lines = text.splitlines()
        assert lines[0].startswith("repro main (pid ")
        assert "self time" in lines[0] and "(t)" in lines[0]
        assert lines[1].split() == ["row", "|", "kind", "|", "calls", "|",
                                    "ms", "|", "share"]
        names = [line.split("|")[0].strip() for line in lines[3:]]
        assert names[-2:] == ["unattributed", "total"]
        assert set(names[:-2]) == {"s", "matmul"}
        assert lines[-1].rstrip().endswith("100.0%")


class TestTrainingLane:
    def test_traced_benign_run_shows_forward_and_loader_rows(self, tmp_path,
                                                             capsys):
        from repro.cli import main

        trace_out = tmp_path / "benign.trace.json"
        assert main(["--trace-out", str(trace_out), "benign",
                     "--dataset", "digits", "--epochs", "1",
                     "--batch-size", "64"]) == 0
        capsys.readouterr()
        loaded = trace.read_trace(trace_out)
        (lane,) = attribute(loaded)
        calls = {name: n for kind, name, n, _ in lane.rows if kind == "span"}
        assert calls["autograd.forward"] == calls["trainer.batch"] >= 1
        assert calls["nn.dataloader.wait"] == calls["trainer.batch"]
        assert 0.0 <= lane.unattributed_s < lane.total_s
        # each new span sits inside the step or the epoch it serves, so
        # no time is counted twice
        events = [e for e in loaded["traceEvents"] if e["ph"] == "X"]
        ids = {name: {e["span_id"] for e in events if e["name"] == name}
               for name in ("trainer.batch", "trainer.epoch")}
        for event in events:
            if event["name"] == "autograd.forward":
                assert event["parent_id"] in ids["trainer.batch"]
            elif event["name"] == "nn.dataloader.wait":
                assert event["parent_id"] in ids["trainer.epoch"]

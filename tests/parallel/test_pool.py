"""WorkerPool: scheduling, failure isolation, retries, timeouts, fallback.

The crash/timeout paths exercise real worker processes (with sub-second
timeouts so CI stays fast); the semantic properties are also checked on
the in-process serial fallback, which must behave identically for
everything it can express.
"""

import multiprocessing
import os
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.parallel import Task, TaskOutcome, WorkerPool, cpu_workers
from repro.telemetry import MetricsRegistry, default_registry


# ---------------------------------------------------------------- tasks
# Module-level so they stay picklable under any start method.

def square(x):
    return x * x


def report_pid():
    return os.getpid()


def boom(x):
    raise ValueError(f"bad point {x}")


def hard_crash():
    os._exit(13)  # simulates a segfaulting worker: no exception, no cleanup


def crash_once(flag_path):
    """Crash on the first attempt, succeed on the retry."""
    if not os.path.exists(flag_path):
        with open(flag_path, "w") as handle:
            handle.write("attempted")
        os._exit(13)
    return "recovered"


def sleep_forever():
    time.sleep(60)


def count_calls(x):
    default_registry().counter("pooltest.calls").inc()
    default_registry().histogram("pooltest.values").observe(x)
    return x


def observe_values(values):
    for value in values:
        default_registry().histogram("pooltest.latency").observe(value)


def return_unpicklable():
    return lambda: None


class TestHappyPath:
    def test_map_preserves_order(self):
        pool = WorkerPool(max_workers=3)
        outcomes = pool.run([Task(square, (i,)) for i in range(10)])
        assert [o.value for o in outcomes] == [i * i for i in range(10)]
        assert all(o.ok and o.index == i for i, o in enumerate(outcomes))

    def test_runs_in_separate_processes(self):
        pool = WorkerPool(max_workers=2, chunk_size=1)
        outcomes = pool.run([Task(report_pid) for _ in range(4)])
        assert all(o.value != os.getpid() for o in outcomes)

    def test_empty_task_list(self):
        assert WorkerPool(max_workers=2).run([]) == []

    def test_chunked_scheduling_covers_everything(self):
        pool = WorkerPool(max_workers=2, chunk_size=3)
        outcomes = pool.run([Task(square, (i,)) for i in range(8)])
        assert [o.value for o in outcomes] == [i * i for i in range(8)]

    def test_auto_worker_detection(self):
        assert WorkerPool().max_workers == cpu_workers() >= 1


class TestFailureIsolation:
    def test_exception_becomes_failure_record(self):
        pool = WorkerPool(max_workers=2)
        outcomes = pool.run([Task(square, (1,)), Task(boom, (2,)),
                             Task(square, (3,))])
        assert [o.ok for o in outcomes] == [True, False, True]
        failed = outcomes[1]
        assert failed.error_kind == "exception"
        assert "bad point 2" in failed.error
        assert failed.attempts == 1  # exceptions are deterministic: no retry

    def test_crash_does_not_kill_siblings(self):
        pool = WorkerPool(max_workers=2, retries=1, chunk_size=2)
        outcomes = pool.run([Task(square, (1,)), Task(hard_crash),
                             Task(square, (3,)), Task(square, (4,))])
        assert [o.ok for o in outcomes] == [True, False, True, True]
        assert outcomes[1].error_kind == "crash"
        assert "exitcode" in outcomes[1].error

    def test_crash_retry_is_bounded(self):
        crashes = default_registry().counter("pool.worker_crashs")
        before = crashes.value
        pool = WorkerPool(max_workers=2, retries=2)
        outcome = pool.run([Task(hard_crash)])[0]
        assert not outcome.ok
        assert outcome.attempts == 3  # 1 first try + 2 retries
        assert crashes.value == before + 3

    def test_zero_retries(self):
        pool = WorkerPool(max_workers=2, retries=0)
        outcome = pool.run([Task(hard_crash)])[0]
        assert not outcome.ok and outcome.attempts == 1

    def test_crash_then_recover(self, tmp_path):
        flag = str(tmp_path / "attempted.flag")
        pool = WorkerPool(max_workers=2, retries=1)
        outcome = pool.run([Task(crash_once, (flag,))])[0]
        assert outcome.ok and outcome.value == "recovered"
        assert outcome.attempts == 2

    def test_unpicklable_result_is_reported_not_fatal(self):
        pool = WorkerPool(max_workers=2)
        outcomes = pool.run([Task(return_unpicklable), Task(square, (2,))])
        assert not outcomes[0].ok
        assert "unpicklable" in outcomes[0].error
        assert outcomes[1].ok and outcomes[1].value == 4


class TestTimeouts:
    def test_timeout_is_reported_not_hung(self):
        pool = WorkerPool(max_workers=2, timeout=0.3, retries=0)
        start = time.perf_counter()
        outcomes = pool.run([Task(sleep_forever), Task(square, (2,))])
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0  # far below the task's 60s sleep
        assert not outcomes[0].ok and outcomes[0].error_kind == "timeout"
        assert outcomes[1].ok and outcomes[1].value == 4
        assert multiprocessing.active_children() == []

    def test_timeout_retry_bounded(self):
        timeouts = default_registry().counter("pool.worker_timeouts")
        before = timeouts.value
        pool = WorkerPool(max_workers=2, timeout=0.2, retries=1)
        outcome = pool.run([Task(sleep_forever)])[0]
        assert not outcome.ok
        assert outcome.error_kind == "timeout"
        assert outcome.attempts == 2
        assert timeouts.value == before + 2


class TestSerialFallback:
    def test_single_worker_runs_in_process(self):
        outcomes = WorkerPool(max_workers=1).run([Task(report_pid)])
        assert outcomes[0].value == os.getpid()

    def test_serial_failure_semantics_match(self):
        outcomes = WorkerPool(max_workers=1).run(
            [Task(square, (1,)), Task(boom, (2,)), Task(square, (3,))])
        assert [o.ok for o in outcomes] == [True, False, True]
        assert outcomes[1].error_kind == "exception"
        assert "bad point 2" in outcomes[1].error

    def test_unpicklable_tasks_fall_back_to_serial(self, monkeypatch):
        # a platform that cannot fork runs the pool serially
        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: ["spawn"])
        pool = WorkerPool(max_workers=2)
        outcomes = pool.run([Task(lambda: os.getpid())])
        assert outcomes[0].ok and outcomes[0].value == os.getpid()

    def test_serial_metrics_flow_into_parent_registry(self):
        registry = default_registry()
        registry.counter("pooltest.calls").reset()
        WorkerPool(max_workers=1).run([Task(count_calls, (i,)) for i in range(3)])
        assert registry.counter("pooltest.calls").value == 3.0


class TestTelemetryShipBack:
    def test_worker_metrics_merge_into_parent(self):
        registry = default_registry()
        registry.counter("pooltest.calls").reset()
        registry.histogram("pooltest.values").reset()
        pool = WorkerPool(max_workers=2)
        outcomes = pool.run([Task(count_calls, (float(i),)) for i in range(5)])
        assert all(o.ok for o in outcomes)
        assert registry.counter("pooltest.calls").value == 5.0
        hist = registry.histogram("pooltest.values")
        assert hist.count == 5
        assert hist.min == 0.0 and hist.max == 4.0
        # two tasks of nine 1.0s and one 100.0: the merged quantiles are
        # those of one registry observing all 20 values in-process
        values = [1.0] * 9 + [100.0]
        registry.histogram("pooltest.latency").reset()
        outcomes = pool.run([Task(observe_values, (values,))] * 2)
        assert all(o.ok for o in outcomes)
        local = MetricsRegistry()
        observe_local = local.histogram("pooltest.latency").observe
        for value in values * 2:
            observe_local(value)
        merged = registry.histogram("pooltest.latency").snapshot()
        expected = local.histogram("pooltest.latency").snapshot()
        assert merged["p50"] == expected["p50"] == 1.0
        assert merged["p99"] == expected["p99"] == 100.0

    def test_outcome_carries_typed_snapshot(self):
        pool = WorkerPool(max_workers=2)
        outcome = pool.run([Task(count_calls, (1.0,))])[0]
        assert outcome.telemetry["counters"]["pooltest.calls"] == 1.0


class TestValidation:
    def test_bad_timeout(self):
        with pytest.raises(ConfigError):
            WorkerPool(timeout=0.0)

    def test_bad_retries(self):
        with pytest.raises(ConfigError):
            WorkerPool(retries=-1)

    def test_bad_chunk_size(self):
        with pytest.raises(ConfigError):
            WorkerPool(chunk_size=0)


class TestProperties:
    @given(st.lists(st.one_of(st.integers(-100, 100),
                              st.just("boom")), max_size=12))
    @settings(max_examples=25, deadline=None)
    def test_outcomes_align_with_tasks(self, spec):
        """Any ok/raise mix yields one aligned outcome per task and
        failures never leak into siblings (serial fallback path)."""
        tasks = [Task(boom, (i,)) if s == "boom" else Task(square, (s,))
                 for i, s in enumerate(spec)]
        outcomes = WorkerPool(max_workers=1).run(tasks)
        assert len(outcomes) == len(spec)
        for i, (s, outcome) in enumerate(zip(spec, outcomes)):
            assert outcome.index == i
            if s == "boom":
                assert not outcome.ok and outcome.error_kind == "exception"
            else:
                assert outcome.ok and outcome.value == s * s

    @given(st.integers(1, 6), st.integers(1, 4), st.integers(1, 5))
    @settings(max_examples=15, deadline=None)
    def test_chunking_never_drops_tasks(self, n, workers, chunk):
        pool = WorkerPool(max_workers=workers, chunk_size=chunk)
        outcomes = pool.run([Task(square, (i,)) for i in range(n)])
        assert [o.value for o in outcomes] == [i * i for i in range(n)]


def run_kernels(n):
    """Exercise named backend kernels inside the worker process."""
    import numpy as np
    from repro import backend
    a = np.ones((8, 8), dtype=np.float64)
    for _ in range(n):
        backend.active().matmul(a, a)
    return n


def report_kernel_hook():
    from repro import backend
    return backend.get_kernel_hook()


def kernel_calls(spans):
    """Per-kernel call totals over span records or span dicts."""
    calls = {}
    for record in spans:
        attrs = record["attrs"] if isinstance(record, dict) else record.attrs
        for name, stat in attrs.get("kernels", {}).items():
            calls[name] = calls.get(name, 0) + stat["calls"]
    return calls


class TestKernelShipBack:
    """Worker kernel time rides home on the task's spans."""

    def test_worker_kernels_ride_on_merged_spans(self):
        from repro.telemetry import recording

        pool = WorkerPool(max_workers=2, chunk_size=1)
        with recording() as recorder:
            outcomes = pool.run([Task(run_kernels, (3,)),
                                 Task(run_kernels, (2,))])
        assert all(o.ok for o in outcomes)
        tasks = recorder.by_name("pool.task")
        assert {s.pid for s in tasks} - {os.getpid()}
        assert kernel_calls(tasks) == {"matmul": 5}
        assert all(s.attrs["kernels"]["matmul"]["s"] > 0.0 for s in tasks)

    def test_outcome_spans_carry_kernel_totals(self):
        from repro.telemetry import recording

        pool = WorkerPool(max_workers=2, chunk_size=1)
        with recording():
            outcomes = pool.run([Task(run_kernels, (4,))])
        kernels = outcomes[0].spans[0]["attrs"]["kernels"]
        assert kernels["matmul"]["calls"] == 4
        assert kernels["matmul"]["bytes"] == 4 * 3 * 8 * 8 * 8

    def test_no_kernel_accounting_without_recorder(self):
        pool = WorkerPool(max_workers=2, chunk_size=1)
        outcomes = pool.run([Task(run_kernels, (2,)),
                             Task(report_kernel_hook)])
        assert outcomes[0].ok and outcomes[0].spans == []
        assert outcomes[1].ok and outcomes[1].value is None

    def test_serial_fallback_kernels_land_on_parent_spans(self):
        from repro.telemetry import recording, span

        pool = WorkerPool(max_workers=1)
        with recording() as recorder, span("root"):
            outcomes = pool.run([Task(run_kernels, (2,))])
        assert outcomes[0].ok
        # in-process: the parent's open span takes the calls directly
        assert outcomes[0].spans == []
        assert kernel_calls(recorder.by_name("root")) == {"matmul": 2}

    def test_pooled_and_serial_kernel_calls_match(self):
        from repro.telemetry import recording, span

        tasks = [Task(run_kernels, (n,)) for n in (1, 2, 3)]
        totals = []
        for pool in (WorkerPool(max_workers=1),
                     WorkerPool(max_workers=2, chunk_size=1)):
            with recording() as recorder, span("root"):
                assert all(o.ok for o in pool.run(tasks))
            totals.append(kernel_calls(recorder.spans))
        assert totals[0] == totals[1] == {"matmul": 6}

"""ShardPool: persistent workers, crash retry, structured failures."""

import multiprocessing
import os
import time

import pytest

from repro.errors import ServeError
from repro.parallel import ShardPool
from repro.telemetry.metrics import MetricsRegistry, default_registry

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(not HAVE_FORK,
                                reason="fork start method unavailable")


def _make_handler():
    """Per-shard handler: doubles numbers, raises on 'boom', reports its
    pid, and blocks until a sentinel file appears for crash tests."""
    pid = os.getpid()

    def handle(payload):
        if payload == "pid":
            return pid
        if payload == "boom":
            raise ValueError("boom payload")
        if isinstance(payload, dict) and "block_unless" in payload:
            while not os.path.exists(payload["block_unless"]):
                time.sleep(0.02)
            return "unblocked"
        return payload * 2

    return handle


def _broken_init():
    raise RuntimeError("init exploded")


def _wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return False


class TestSerialFallback:
    def test_non_fork_start_method_degrades_to_serial(self):
        pool = ShardPool(_make_handler, shards=2, start_method="spawn")
        try:
            assert pool.serial
            assert pool.alive() == [True, True]
            assert pool.request(21).value == 42
        finally:
            pool.close()

    def test_serial_exception_is_structured(self):
        with ShardPool(_make_handler, start_method="spawn") as pool:
            result = pool.request("boom")
            assert not result.ok
            assert result.error_kind == "exception"
            assert "boom payload" in result.error

    def test_serial_kill_shard_is_a_noop(self):
        with ShardPool(_make_handler, start_method="spawn") as pool:
            assert pool.kill_shard(0) is False
            assert pool.request(1).value == 2

    def test_submit_after_close_refused(self):
        pool = ShardPool(_make_handler, start_method="spawn")
        pool.close()
        with pytest.raises(ServeError, match="closed"):
            pool.submit(1)


class TestValidation:
    def test_bad_shard_count(self):
        with pytest.raises(ServeError, match="shards"):
            ShardPool(_make_handler, shards=0)

    def test_unknown_start_method(self):
        with pytest.raises(ServeError, match="start method"):
            ShardPool(_make_handler, start_method="threads")


@needs_fork
class TestProcessShards:
    def test_round_trip_runs_in_child_processes(self):
        with ShardPool(_make_handler, shards=2) as pool:
            assert not pool.serial
            assert pool.request(5, timeout=10).value == 10
            pids = {pool.request("pid", shard=i, timeout=10).value
                    for i in range(2)}
            assert os.getpid() not in pids
            assert len(pids) == 2, "each shard is its own process"

    def test_round_robin_spreads_requests(self):
        with ShardPool(_make_handler, shards=2) as pool:
            pids = {pool.request("pid", timeout=10).value for _ in range(6)}
            assert len(pids) == 2

    def test_handler_exception_keeps_shard_serving(self):
        with ShardPool(_make_handler, shards=1) as pool:
            result = pool.request("boom", timeout=10)
            assert not result.ok and result.error_kind == "exception"
            assert "boom payload" in result.error
            assert pool.request(3, timeout=10).value == 6
            assert pool.alive() == [True]

    def test_kill_mid_request_retries_on_respawned_shard(self, tmp_path):
        sentinel = str(tmp_path / "go")
        deaths0 = default_registry().counter("serve.shard_deaths").value
        registry = default_registry()
        respawns0 = registry.counter("serve.shard_respawns").value
        retries0 = registry.counter("serve.request_retries").value
        with ShardPool(_make_handler, shards=1, retries=1) as pool:
            ticket = pool.submit({"block_unless": sentinel})
            assert _wait_until(lambda: pool.kill_shard(0))
            with open(sentinel, "w", encoding="utf-8") as fh:
                fh.write("go")
            result = pool.result(ticket, timeout=20)
            assert result.ok and result.value == "unblocked"
            assert result.attempts == 2, "first attempt died with the shard"
            assert pool.alive() == [True], "slot was respawned"
        assert default_registry().counter("serve.shard_deaths").value > deaths0
        assert registry.counter("serve.shard_respawns").value == respawns0 + 1
        assert registry.counter("serve.request_retries").value == retries0 + 1

    def test_retries_exhausted_yields_structured_crash(self, tmp_path):
        sentinel = str(tmp_path / "never")
        with ShardPool(_make_handler, shards=1, retries=0) as pool:
            ticket = pool.submit({"block_unless": sentinel})
            assert _wait_until(lambda: pool.kill_shard(0))
            result = pool.result(ticket, timeout=20)
            assert not result.ok
            assert result.error_kind == "crash"
            assert "died" in result.error

    def test_no_respawn_budget_leaves_pool_dead(self):
        with ShardPool(_make_handler, shards=1, max_respawns=0) as pool:
            assert _wait_until(lambda: pool.kill_shard(0))
            assert _wait_until(lambda: pool.alive() == [False])
            result = pool.request(1, timeout=10)
            assert not result.ok
            assert result.error_kind == "crash"
            assert "no live shards" in result.error

    def test_result_timeout_is_structured_and_late_value_discarded(
            self, tmp_path):
        sentinel = str(tmp_path / "later")
        with ShardPool(_make_handler, shards=1) as pool:
            ticket = pool.submit({"block_unless": sentinel})
            result = pool.result(ticket, timeout=0.2)
            assert not result.ok and result.error_kind == "timeout"
            with open(sentinel, "w", encoding="utf-8") as fh:
                fh.write("go")
            # the late value must not leak into another ticket's slot
            assert pool.request(4, timeout=10).value == 8

    def test_abandoned_ticket_discarded_on_shard_death(self, tmp_path):
        # A timed-out (abandoned) ticket whose shard later dies must not
        # leave a stored result or an _abandoned marker behind -- a
        # long-running server would otherwise leak both maps.
        sentinel = str(tmp_path / "never")
        with ShardPool(_make_handler, shards=1, retries=0,
                       max_respawns=0) as pool:
            ticket = pool.submit({"block_unless": sentinel})
            result = pool.result(ticket, timeout=0.2)
            assert not result.ok and result.error_kind == "timeout"
            assert pool.kill_shard(0)
            assert _wait_until(lambda: pool.alive() == [False])
            assert _wait_until(
                lambda: not pool._results and not pool._abandoned
                and not pool._attempts)

    def test_init_failure_surfaces_as_dead_shard(self):
        with ShardPool(_broken_init, shards=1, retries=0) as pool:
            assert _wait_until(lambda: pool.alive() == [False])
            result = pool.request(1, timeout=10)
            assert not result.ok
            assert result.error_kind == "crash"


def _observing_handler():
    """Per-shard handler observing nine 1.0s and one 100.0 per request."""
    registry = default_registry()

    def handle(payload):
        for value in [1.0] * 9 + [100.0]:
            registry.histogram("shardtest.latency").observe(value)
        return payload

    return handle


@needs_fork
class TestTelemetryShipBack:
    def test_shard_histograms_merge_into_parent(self):
        registry = default_registry()
        registry.histogram("shardtest.latency").reset()
        with ShardPool(_observing_handler, shards=2) as pool:
            results = [pool.request(i, shard=i, timeout=10) for i in range(2)]
        assert all(r.ok for r in results)
        local = MetricsRegistry()
        for value in ([1.0] * 9 + [100.0]) * 2:
            local.histogram("shardtest.latency").observe(value)
        merged = registry.histogram("shardtest.latency").snapshot()
        expected = local.histogram("shardtest.latency").snapshot()
        assert merged["count"] == expected["count"] == 20
        assert merged["p50"] == expected["p50"] == 1.0
        assert merged["p99"] == expected["p99"] == 100.0

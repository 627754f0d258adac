"""The fork core under every parallel runtime: fork safety, one reap,
and the guard that keeps fork primitives inside it."""

import multiprocessing
import signal
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.parallel import ShardPool, Task, WorkerPool
from repro.telemetry.metrics import default_registry

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable")


def square(x):
    return x * x


def _doubler():
    return lambda payload: payload * 2


def _stubborn_init():
    """A shard that ignores SIGTERM and never finishes a request."""
    signal.signal(signal.SIGTERM, signal.SIG_IGN)

    def handle(payload):
        time.sleep(60)

    return handle


def _hold_registry_lock(seconds):
    """Hold the default registry's lock on another thread, as the
    metrics exporter or the sampler may at fork time."""
    held = threading.Event()

    def hold():
        with default_registry()._lock:
            held.set()
            time.sleep(seconds)

    holder = threading.Thread(target=hold, daemon=True)
    holder.start()
    held.wait()
    return holder


@needs_fork
class TestForkSafety:
    def test_pool_forked_under_a_held_registry_lock(self):
        holder = _hold_registry_lock(1.0)
        pool = WorkerPool(max_workers=2, timeout=4, retries=0)
        outcomes = pool.run([Task(square, (3,)), Task(square, (4,))])
        holder.join()
        assert [(o.ok, o.error_kind, o.value) for o in outcomes] == [
            (True, "", 9), (True, "", 16)]

    def test_shards_forked_under_a_held_registry_lock(self):
        holder = _hold_registry_lock(1.0)
        with ShardPool(_doubler, shards=1) as pool:
            result = pool.request(21, timeout=4)
        holder.join()
        assert result.ok and result.value == 42, result.error_kind


@needs_fork
class TestOneReap:
    def test_close_kills_a_shard_that_ignores_sigterm(self):
        pool = ShardPool(_stubborn_init, shards=1)
        pool.submit("stuck")
        pool.close()
        assert multiprocessing.active_children() == []


FORK_PRIMITIVES = (".Process(", "Pipe(", "connection.wait(",
                   ".terminate()", ".kill()")


def test_fork_primitives_live_only_in_the_core():
    """A fourth fork runtime cannot grow back outside parallel/worker.py."""
    root = Path(repro.__file__).parent
    core = root / "parallel" / "worker.py"
    offenders = [
        f"{path.relative_to(root)}: {pattern}"
        for path in sorted(root.rglob("*.py")) if path != core
        for pattern in FORK_PRIMITIVES
        if pattern in path.read_text(encoding="utf-8")
    ]
    assert offenders == []

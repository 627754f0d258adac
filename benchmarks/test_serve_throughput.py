"""Serving throughput acceptance gate: batching must pay for itself.

The serve front end's whole reason to exist is request coalescing --
amortizing the per-request dispatch/IPC overhead across a
batch.  This gate drives the same synthetic open-loop trace (seeded
arrivals, heavy-tailed gaps) through two otherwise-identical servers:

* **batched**: ``max_batch=16`` -- the shipping configuration, where
  requests that arrive while the shard is busy leave as one batch;
* **batch-1**: ``max_batch=1`` -- every request is its own dispatch.

Same artifact, same worker count, same trace.  The batched server must
sustain at least **2x** the throughput of the batch-1 server; both
runs' throughput and the batched p50/p99 latencies are printed with
``-s``.  End-to-end serving speed is tracked by ``perfbench/``.

Marked ``slow`` (deselect with ``-m "not slow"``); shard execution is
in-process serial so the gate measures batching, not fork latency, and
stays meaningful on single-core machines.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.models.registry import build_model
from repro.serve import (
    LoadGenConfig,
    ModelServer,
    ServeConfig,
    generate_trace,
    run_loadgen,
    save_artifact,
)

KW = dict(num_classes=6, in_channels=3, width=8)
SHAPE = (3, 16, 16)
N_REQUESTS = 200
SEED = 77


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    path = tmp_path_factory.mktemp("serve_bench") / "released"
    model = build_model("resnet8_tiny", rng=np.random.default_rng(SEED), **KW)
    save_artifact(model, path, "resnet8_tiny", model_kwargs=KW,
                  input_shape=SHAPE, seed=SEED)
    return str(path)


def _trace():
    # arrivals span ~40ms of trace time: fast enough that requests queue
    # behind the busy shard and coalesce, slow enough to be an arrival
    # *process* rather than a single burst
    return generate_trace(LoadGenConfig(seed=SEED, n_requests=N_REQUESTS,
                                        rate_rps=5000.0, alpha=1.5,
                                        deadline_ms=60_000.0))


def _run(path, trace, max_batch):
    config = ServeConfig(start_method="spawn", shards=1, max_batch=max_batch,
                         queue_capacity=2 * N_REQUESTS)

    async def _go():
        async with ModelServer({"m": path}, config=config) as server:
            return await run_loadgen(server, trace)

    return asyncio.run(_go())


@pytest.mark.slow
class TestServingThroughputGate:
    def test_batching_at_least_2x_over_batch_size_1(self, artifact):
        trace = _trace()
        _run(artifact, trace, max_batch=16)  # warm-up: caches, BLAS init
        batched = _run(artifact, trace, max_batch=16)
        single = _run(artifact, trace, max_batch=1)

        assert batched.completed == N_REQUESTS, batched.error_kinds
        assert single.completed == N_REQUESTS, single.error_kinds
        assert batched.mean_batch > 1.5, \
            "queued requests never formed real batches"

        speedup = batched.throughput_rps / single.throughput_rps
        print(f"\nserve throughput: batched {batched.throughput_rps:.0f} rps "
              f"(mean batch {batched.mean_batch:.1f}, "
              f"p50 {batched.p50_ms:.1f} ms, p99 {batched.p99_ms:.1f} ms) "
              f"vs batch-1 {single.throughput_rps:.0f} rps "
              f"(p50 {single.p50_ms:.1f} ms) -> {speedup:.2f}x")

        assert speedup >= 2.0, \
            f"batching speedup {speedup:.2f}x is below the 2x gate"

"""Per-request observability overhead gate for the serving path.

Every request carries one record (its stage stamps, the stage
histogram observations, a flight-ring append); with a trace recorder
active it also emits a five-span tree.  The record is always kept, so
what a server can switch off is the span sink: this gate replays the
same open-loop trace through two otherwise-identical servers -- no
recorder active vs. request spans into a live recorder plus a flight
dump directory -- and asserts the observed throughput drop stays under
the budget.  The pairs' overheads are printed with ``-s``; the gate
writes no file.

Marked ``slow``; shard execution is in-process serial so the gate
measures tracing overhead, not fork latency.
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
from repro.telemetry.trace import recording

pytestmark = pytest.mark.slow

KW = dict(num_classes=6, in_channels=3, width=8)
#: CIFAR-sized inputs (the paper's serving artifacts): per-request
#: compute is then ~2 ms, so the span tree's per-request cost is
#: measured against realistic work, not against a toy forward pass.
SHAPE = (3, 32, 32)
N_REQUESTS = 250
SEED = 91

#: Request spans may cost at most this fraction of baseline throughput.
OVERHEAD_BUDGET = 0.05
#: Best-of-N runs per side: the gate compares capability, not jitter.
REPEATS = 3


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    path = tmp_path_factory.mktemp("serve_obs") / "released"
    model = build_model("resnet8_tiny", rng=np.random.default_rng(SEED), **KW)
    save_artifact(model, path, "resnet8_tiny", model_kwargs=KW,
                  input_shape=SHAPE, seed=SEED)
    return str(path)


def _trace():
    return generate_trace(LoadGenConfig(seed=SEED, n_requests=N_REQUESTS,
                                        rate_rps=5000.0, alpha=1.5,
                                        deadline_ms=60_000.0))


def _run(path, trace, traced, flight_dir=None):
    """One loadgen run; ``traced`` runs it under an active recorder."""
    config = ServeConfig(start_method="spawn", shards=1, max_batch=16,
                         queue_capacity=2 * N_REQUESTS, flight_dir=flight_dir)

    async def _go():
        async with ModelServer({"m": path}, config=config) as server:
            # time_scale=0: every arrival is immediate, so the run
            # measures pure request-path throughput with no open-loop
            # sleeps -- the quantity spans could actually slow down
            return await run_loadgen(server, trace, time_scale=0.0)

    if traced:
        with recording() as recorder:
            report = asyncio.run(_go())
        assert len(recorder.by_name("serve.request")) == N_REQUESTS
        return report
    return asyncio.run(_go())


class TestServingObservabilityOverhead:
    def test_tracing_overhead_under_budget(self, artifact, tmp_path):
        trace = _trace()
        _run(artifact, trace, traced=True,
             flight_dir=str(tmp_path))  # warm-up: caches, BLAS init
        # adjacent off/on pairs (off: no recorder active), gated on the
        # *best* pair: ambient CPU contention in CI swings single runs
        # by several percent in both directions, so the gate asks
        # whether the traced server can match the baseline, not
        # whether every sample does
        pairs = []
        for _ in range(REPEATS):
            off = _run(artifact, trace, traced=False)
            on = _run(artifact, trace, traced=True,
                      flight_dir=str(tmp_path))
            assert off.completed == N_REQUESTS, off.error_kinds
            assert on.completed == N_REQUESTS, on.error_kinds
            pairs.append((off.throughput_rps, on.throughput_rps))

        overheads = [1.0 - on / off for off, on in pairs]
        overhead = min(overheads)
        baseline, observed = max(p[0] for p in pairs), max(p[1] for p in pairs)
        print(f"\nserving observability overhead: "
              f"off {baseline:.0f} rps vs on {observed:.0f} rps, "
              f"best-pair overhead {max(0.0, overhead):.2%} "
              f"(pairs {[f'{o:.1%}' for o in overheads]}, "
              f"budget {OVERHEAD_BUDGET:.0%})")

        assert overhead < OVERHEAD_BUDGET, (
            f"per-request spans cost {overhead:.1%} of serving "
            f"throughput (off {baseline:.0f} rps, on {observed:.0f} rps); "
            f"budget {OVERHEAD_BUDGET:.0%}")

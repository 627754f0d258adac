"""Serving determinism: replayable load runs, backend-equivalent outputs."""

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
    save_trace,
)

KW = dict(num_classes=4, in_channels=3, width=4)
SHAPE = (3, 8, 8)


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    path = tmp_path_factory.mktemp("det") / "released"
    model = build_model("resnet8_tiny", rng=np.random.default_rng(23), **KW)
    save_artifact(model, path, "resnet8_tiny", model_kwargs=KW,
                  input_shape=SHAPE, seed=23)
    return str(path)


async def _serve_trace(path, trace, backend, max_batch=16):
    """Run the trace, returning {request_id: logits} plus the report."""
    outputs = {}
    config = ServeConfig(start_method="spawn", backend=backend,
                         max_batch=max_batch)

    class _Recorder:
        def __init__(self, server):
            self.server = server

        async def infer(self, **kwargs):
            response = await self.server.infer(**kwargs)
            if response.ok:
                outputs[response.request_id] = np.asarray(response.outputs)
            return response

    async with ModelServer({"m": path}, config=config) as server:
        report = await run_loadgen(_Recorder(server), trace, time_scale=0.2)
    return outputs, report


class TestReplayDeterminism:
    def test_same_seed_trace_files_are_byte_identical(self, tmp_path):
        config = LoadGenConfig(seed=77, n_requests=40, rate_rps=300.0)
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_trace(generate_trace(config), str(a), config)
        save_trace(generate_trace(config), str(b), config)
        assert a.read_bytes() == b.read_bytes()

    def test_same_trace_replays_to_identical_outputs(self, artifact):
        # max_batch=1 pins batch composition, so replay is bit-identical;
        # batching perturbs GEMM summation order at float32 rounding
        # scale, which the batched-vs-unbatched test below bounds
        trace = generate_trace(LoadGenConfig(seed=5, n_requests=15,
                                             rate_rps=500.0))

        async def _go():
            first, r1 = await _serve_trace(artifact, trace, "fast",
                                           max_batch=1)
            second, r2 = await _serve_trace(artifact, trace, "fast",
                                            max_batch=1)
            return first, second, r1, r2

        first, second, r1, r2 = asyncio.run(_go())
        assert r1.completed == r2.completed == 15
        assert sorted(first) == sorted(second)
        for request_id in first:
            np.testing.assert_array_equal(first[request_id],
                                          second[request_id])

    def test_batched_replay_matches_unbatched_within_float32(self, artifact):
        trace = generate_trace(LoadGenConfig(seed=12, n_requests=15,
                                             rate_rps=500.0))

        async def _go():
            batched, _ = await _serve_trace(artifact, trace, "fast")
            single, _ = await _serve_trace(artifact, trace, "fast",
                                           max_batch=1)
            return batched, single

        batched, single = asyncio.run(_go())
        assert sorted(batched) == sorted(single)
        for request_id in batched:
            np.testing.assert_allclose(
                batched[request_id], single[request_id],
                rtol=1e-5, atol=1e-6,
                err_msg=f"batch-composition divergence on {request_id}")


class TestBackendEquivalence:
    def test_reference_and_fast_serving_outputs_agree(self, artifact):
        trace = generate_trace(LoadGenConfig(seed=6, n_requests=10,
                                             rate_rps=500.0))

        async def _go():
            fast, _ = await _serve_trace(artifact, trace, "fast")
            reference, _ = await _serve_trace(artifact, trace, "reference")
            return fast, reference

        fast, reference = asyncio.run(_go())
        assert sorted(fast) == sorted(reference)
        for request_id in fast:
            np.testing.assert_allclose(
                fast[request_id], reference[request_id],
                rtol=1e-4, atol=1e-5,
                err_msg=f"backend divergence on {request_id}")

"""Failure-injection tests: corrupted inputs must fail loudly, not silently.

A reproduction library gets used at 2am with the wrong file paths and
half-broken configs; every failure here should be a clear library error
(ReproError subclass) or a clean numpy exception -- never silent
corruption.
"""

import numpy as np
import pytest

from repro.errors import DatasetError, GradientError, QuantizationError, ReproError


class TestCorruptedStateDicts:
    def test_truncated_npz(self, tmp_path):
        from repro.models.mlp import MLP
        from repro.nn import load_state
        path = tmp_path / "broken.npz"
        path.write_bytes(b"PK\x03\x04 this is not a real archive")
        model = MLP([4, 2], rng=np.random.default_rng(0))
        with pytest.raises(Exception):
            load_state(model, path)

    def test_state_from_different_architecture(self, tmp_path):
        from repro.models.mlp import MLP
        from repro.nn import load_state, save_state
        big = MLP([8, 8, 2], rng=np.random.default_rng(0))
        small = MLP([4, 2], rng=np.random.default_rng(0))
        path = tmp_path / "model.npz"
        save_state(big, path)
        with pytest.raises(ReproError):
            load_state(small, path)


class TestNaNPropagation:
    def test_trainer_raises_on_nan(self):
        from repro.models.mlp import MLP
        from repro.pipeline import Trainer, TrainingConfig
        model = MLP([4, 2], rng=np.random.default_rng(0))
        model.fc0.weight.data[0, 0] = np.inf
        trainer = Trainer(model, np.ones((8, 4)), np.zeros(8, dtype=int),
                          TrainingConfig(epochs=1))
        with pytest.raises(GradientError):
            trainer.train()

    def test_quantizer_with_nan_weights(self):
        # a NaN weight has no cluster: every quantizer refuses it with a
        # structured error instead of a garbage assignment
        from repro.quantization import (KMeansQuantizer, UniformQuantizer,
                                        WeightedEntropyQuantizer)
        for weights in (np.array([1.0, np.nan, 2.0]), np.array([1.0, np.inf, 2.0])):
            for quantizer in (UniformQuantizer(levels=2), KMeansQuantizer(levels=2),
                              WeightedEntropyQuantizer(levels=2)):
                with pytest.raises(QuantizationError, match="non-finite"):
                    quantizer.quantize_vector(weights)


class TestMisusedAPIs:
    def test_decode_wrong_image_shape(self):
        from repro.attacks import decode_slice
        from repro.errors import CapacityError
        with pytest.raises(CapacityError):
            decode_slice(np.zeros(10), (4, 4, 3))

    def test_dataset_non_uint8(self):
        from repro.datasets import ImageDataset
        with pytest.raises(DatasetError):
            ImageDataset(np.zeros((2, 4, 4, 1), dtype=np.float32), np.zeros(2))

    def test_quantize_empty_model_selection(self):
        from repro.models.mlp import MLP
        from repro.quantization import WeightedEntropyQuantizer
        model = MLP([4, 2], rng=np.random.default_rng(0))
        with pytest.raises(QuantizationError):
            WeightedEntropyQuantizer(4).quantize_model(model, names=[])

    def test_attack_config_catches_reversed_ranges(self):
        from repro.attacks import group_by_layer_ranges
        from repro.errors import ConfigError
        from repro.models.mlp import MLP
        model = MLP([4, 4, 2], rng=np.random.default_rng(0))
        with pytest.raises(ConfigError):
            group_by_layer_ranges(model, ((2, 1),), (1.0,))

    def test_sweep_with_failing_experiment_records_failure(self):
        from repro.pipeline import Sweep

        def boom(x):
            raise RuntimeError("experiment exploded")

        record, = Sweep({"x": [1]}, boom).run().records
        assert record["x"] == 1
        assert record["error_kind"] == "exception"
        assert "experiment exploded" in record["error"]

    def test_dataloader_rejects_scalar_labels(self):
        from repro.nn import DataLoader
        with pytest.raises(Exception):
            DataLoader(np.zeros((3, 2)), np.zeros(()))


class TestErrorHierarchy:
    def test_all_library_errors_catchable_as_repro_error(self):
        from repro import errors
        for name in ("ShapeError", "GradientError", "CapacityError",
                     "QuantizationError", "DatasetError", "ConfigError"):
            assert issubclass(getattr(errors, name), errors.ReproError)

    def test_library_raises_repro_errors_not_bare_asserts(self):
        """A sampling of misuse paths all raise from the hierarchy."""
        from repro.attacks import SecretPayload
        from repro.errors import CapacityError
        with pytest.raises(CapacityError):
            SecretPayload(np.zeros((2, 2, 2), dtype=np.uint8), np.zeros(2))


class TestServingFaults:
    """Fault injection against the serving stack: broken artifacts,
    dying shards, and overloaded servers must all resolve to structured
    errors, never hangs or silent corruption."""

    KW = dict(num_classes=4, in_channels=3, width=4)

    def _artifact(self, tmp_path, name="released"):
        from repro.models.registry import build_model
        from repro.serve import save_artifact
        model = build_model("resnet8_tiny", rng=np.random.default_rng(0),
                            **self.KW)
        path = tmp_path / name
        save_artifact(model, path, "resnet8_tiny", model_kwargs=self.KW,
                      input_shape=(3, 8, 8))
        return path

    def test_tampered_artifact_weights_refuse_to_load(self, tmp_path):
        from repro.errors import ServeError
        from repro.serve import load_artifact
        path = self._artifact(tmp_path)
        with open(path / "weights.npz", "r+b") as fh:
            fh.seek(40)
            fh.write(b"\xff\xff\xff\xff")
        with pytest.raises(ServeError):
            load_artifact(path)

    def test_server_rejects_missing_artifact_at_startup(self, tmp_path):
        from repro.errors import ServeError
        from repro.serve import ModelServer
        with pytest.raises(ServeError):
            ModelServer({"m": tmp_path / "never_released"})

    def test_evicted_artifact_reloads_transparently(self, tmp_path):
        from repro.serve import ArtifactCache, load_artifact
        first = self._artifact(tmp_path, "a")
        second = self._artifact(tmp_path / "sub", "b")
        cache = ArtifactCache(capacity=1)
        before_model, _ = cache.get(first)
        cache.get(second)  # evicts `first` from the single slot
        after_model, _ = cache.get(first)  # must reload from disk, not fail
        assert after_model is not before_model
        want = load_artifact(first)[0].state_dict()
        got = after_model.state_dict()
        for key in want:
            np.testing.assert_array_equal(got[key], want[key])

    def test_shard_kill_mid_request_is_bounded_retry_then_error(
            self, tmp_path):
        import multiprocessing
        import time as _time
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork start method unavailable")
        from repro.parallel import ShardPool
        from repro.telemetry.metrics import default_registry
        from tests.serve.test_shards import _make_handler

        respawns = default_registry().counter("serve.shard_respawns")
        respawns0 = respawns.value
        sentinel = str(tmp_path / "never_written")
        with ShardPool(_make_handler, shards=1, retries=1,
                       max_respawns=1) as pool:
            ticket = pool.submit({"block_unless": sentinel})
            deadline = _time.monotonic() + 5.0
            while _time.monotonic() < deadline and not pool.kill_shard(0):
                _time.sleep(0.02)
            # wait for the collector to respawn the slot and re-dispatch,
            # then kill the *respawned* shard too (respawn budget now spent)
            deadline = _time.monotonic() + 10.0
            while _time.monotonic() < deadline and respawns.value == respawns0:
                _time.sleep(0.02)
            assert respawns.value > respawns0, "slot was never respawned"
            deadline = _time.monotonic() + 10.0
            while _time.monotonic() < deadline and not pool.kill_shard(0):
                _time.sleep(0.02)
            result = pool.result(ticket, timeout=20)
            assert not result.ok
            assert result.error_kind == "crash"
            assert result.attempts == 2, "exactly one retry, then give up"

    def test_loadgen_survives_a_server_refusing_everything(self):
        import asyncio
        from repro.serve import InferenceResponse, LoadGenConfig, \
            generate_trace, run_loadgen

        class _Refuser:
            async def infer(self, **kwargs):
                return InferenceResponse(
                    request_id=str(kwargs.get("request_id")), ok=False,
                    error="queue full", error_kind="refused")

        trace = generate_trace(LoadGenConfig(seed=11, n_requests=8,
                                             rate_rps=2000.0))
        report = asyncio.run(run_loadgen(_Refuser(), trace))
        assert report.sent == 8
        assert report.refused == 8
        assert report.completed == 0

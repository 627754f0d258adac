"""Structured event log, config fingerprints and the RunManifest."""

import io
import json

import pytest

from repro.errors import ConfigError
from repro.pipeline.config import AttackConfig, TrainingConfig
from repro.telemetry.events import (
    EventLogger,
    RunManifest,
    config_fingerprint,
    new_run_id,
)


class TestEventLogger:
    def test_events_carry_run_id_and_fields(self):
        logger = EventLogger(level="debug", run_id="run42")
        logger.info("train.start", epochs=3)
        (record,) = logger.records
        assert record["run_id"] == "run42"
        assert record["event"] == "train.start"
        assert record["epochs"] == 3
        assert record["level"] == "info"
        assert record["ts"] > 0

    def test_level_threshold_drops_events(self):
        logger = EventLogger(level="warning")
        logger.debug("d")
        logger.info("i")
        logger.warning("w")
        logger.error("e")
        assert [r["event"] for r in logger.records] == ["w", "e"]
        assert logger.is_enabled("error")
        assert not logger.is_enabled("debug")

    def test_unknown_level_raises(self):
        with pytest.raises(ConfigError):
            EventLogger(level="loud")

    def test_jsonl_file_output(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventLogger(path=str(path), level="info") as logger:
            logger.info("a", x=1)
            logger.info("b", y=[1, 2])
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [line["event"] for line in lines] == ["a", "b"]
        assert lines[1]["y"] == [1, 2]

    def test_stream_output(self):
        stream = io.StringIO()
        logger = EventLogger(stream=stream, level="info")
        logger.info("hello")
        assert json.loads(stream.getvalue())["event"] == "hello"

    def test_non_json_fields_fall_back_to_repr(self):
        logger = EventLogger(level="info")
        logger.info("odd", value=object())
        json.dumps(logger.records[0], default=repr)


class TestRunIds:
    def test_unique_and_short(self):
        ids = {new_run_id() for _ in range(32)}
        assert len(ids) == 32
        assert all(len(i) == 12 for i in ids)


class TestConfigFingerprint:
    def test_stable_for_equal_configs(self):
        a = TrainingConfig(epochs=3, lr=0.1)
        b = TrainingConfig(epochs=3, lr=0.1)
        assert config_fingerprint(a) == config_fingerprint(b)

    def test_differs_when_config_differs(self):
        a = TrainingConfig(epochs=3)
        b = TrainingConfig(epochs=4)
        assert config_fingerprint(a) != config_fingerprint(b)

    def test_multiple_configs_hash_together(self):
        t = TrainingConfig()
        k = AttackConfig()
        assert config_fingerprint(t, k) != config_fingerprint(t)

    def test_dicts_are_order_insensitive(self):
        assert config_fingerprint({"a": 1, "b": 2}) == config_fingerprint({"b": 2, "a": 1})

    def test_plain_values(self):
        assert len(config_fingerprint({"x": (1, 2.5, None, True, "s")})) == 16


class TestRunManifest:
    def test_create_fills_defaults(self):
        manifest = RunManifest.create(seed=7, config=TrainingConfig(),
                                      telemetry={"m": 1}, dataset="cifar")
        assert manifest.seed == 7
        assert len(manifest.config_hash) == 16
        assert manifest.telemetry == {"m": 1}
        assert manifest.extra["dataset"] == "cifar"
        # every manifest records the kernel backend that produced it
        from repro import backend
        assert manifest.backend == backend.active().name
        assert manifest.created_at > 0

    def test_create_snapshots_default_registry(self):
        from repro.telemetry.metrics import default_registry
        default_registry().counter("manifest.test.counter").inc(2)
        manifest = RunManifest.create()
        assert manifest.telemetry["manifest.test.counter"] == 2.0

    def test_dict_roundtrip(self):
        manifest = RunManifest.create(seed=1, config={"bits": 4})
        again = RunManifest.from_dict(json.loads(json.dumps(manifest.to_dict())))
        assert again == manifest

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ConfigError):
            RunManifest.from_dict({"run_id": "x", "bogus": 1})

    def test_from_dict_requires_run_id(self):
        with pytest.raises(ConfigError):
            RunManifest.from_dict({"seed": 1})

"""Released-artifact format: roundtrip, fingerprints, LRU cache."""

import json
import os

import numpy as np
import pytest

from repro.errors import ServeError
from repro.models.registry import build_model
from repro.serve.artifacts import (
    META_FILE,
    WEIGHTS_FILE,
    ArtifactCache,
    artifact_fingerprint,
    load_artifact,
    save_artifact,
)

KW = dict(num_classes=4, in_channels=3, width=4)


def _make_artifact(path, seed=0, **extra):
    model = build_model("resnet8_tiny", rng=np.random.default_rng(seed), **KW)
    artifact = save_artifact(model, path, "resnet8_tiny", model_kwargs=KW,
                             input_shape=(3, 8, 8), seed=seed, **extra)
    return model, artifact


class TestRoundtrip:
    def test_save_then_load_restores_weights_exactly(self, tmp_path):
        model, saved = _make_artifact(tmp_path / "art")
        loaded, meta = load_artifact(tmp_path / "art")
        original = model.state_dict()
        restored = loaded.state_dict()
        assert sorted(original) == sorted(restored)
        for name in original:
            np.testing.assert_array_equal(original[name], restored[name])
        assert meta.fingerprint == saved.fingerprint
        assert meta.model_name == "resnet8_tiny"
        assert meta.input_shape == (3, 8, 8)

    def test_loaded_model_is_in_eval_mode(self, tmp_path):
        _make_artifact(tmp_path / "art")
        loaded, _ = load_artifact(tmp_path / "art")
        assert not loaded.training

    def test_manifest_records_identity(self, tmp_path):
        _, saved = _make_artifact(tmp_path / "art",
                                  quantization={"bits": 4, "method": "uniform"})
        assert saved.run_id
        assert saved.manifest["extra"]["artifact_fingerprint"] == \
            saved.fingerprint
        assert saved.quantization == {"bits": 4, "method": "uniform"}

    def test_unregistered_model_name_refused(self, tmp_path):
        model = build_model("resnet8_tiny", **KW)
        with pytest.raises(ServeError, match="not in the registry"):
            save_artifact(model, tmp_path / "art", "no_such_model")


class TestFingerprint:
    def test_same_weights_same_fingerprint(self):
        model = build_model("resnet8_tiny", rng=np.random.default_rng(1), **KW)
        state = model.state_dict()
        assert artifact_fingerprint("resnet8_tiny", KW, state) == \
            artifact_fingerprint("resnet8_tiny", KW, state)

    def test_different_weights_different_fingerprint(self):
        a = build_model("resnet8_tiny", rng=np.random.default_rng(1), **KW)
        b = build_model("resnet8_tiny", rng=np.random.default_rng(2), **KW)
        assert artifact_fingerprint("resnet8_tiny", KW, a.state_dict()) != \
            artifact_fingerprint("resnet8_tiny", KW, b.state_dict())

    def test_kwargs_change_fingerprint(self):
        model = build_model("resnet8_tiny", rng=np.random.default_rng(1), **KW)
        state = model.state_dict()
        other = dict(KW, width=8)
        assert artifact_fingerprint("resnet8_tiny", KW, state) != \
            artifact_fingerprint("resnet8_tiny", other, state)


class TestCorruption:
    def test_missing_directory(self, tmp_path):
        with pytest.raises(ServeError, match="metadata"):
            load_artifact(tmp_path / "nope")

    def test_unparseable_metadata(self, tmp_path):
        _make_artifact(tmp_path / "art")
        (tmp_path / "art" / META_FILE).write_text("{not json", "utf-8")
        with pytest.raises(ServeError, match="metadata"):
            load_artifact(tmp_path / "art")

    def test_wrong_format_marker(self, tmp_path):
        _make_artifact(tmp_path / "art")
        meta_path = tmp_path / "art" / META_FILE
        meta = json.loads(meta_path.read_text("utf-8"))
        meta["format"] = "something-else"
        meta_path.write_text(json.dumps(meta), "utf-8")
        with pytest.raises(ServeError, match="unknown artifact format"):
            load_artifact(tmp_path / "art")

    def test_unknown_model_name(self, tmp_path):
        # an artifact naming a model the registry lacks fails to rebuild
        # with the registry's error
        _make_artifact(tmp_path / "art")
        meta_path = tmp_path / "art" / META_FILE
        meta = json.loads(meta_path.read_text("utf-8"))
        meta["model"] = "vgg_tiny"
        meta_path.write_text(json.dumps(meta), "utf-8")
        with pytest.raises(ServeError, match="unknown model 'vgg_tiny'"):
            load_artifact(tmp_path / "art", verify=False)

    def test_truncated_weights(self, tmp_path):
        _make_artifact(tmp_path / "art")
        weights = tmp_path / "art" / WEIGHTS_FILE
        weights.write_bytes(weights.read_bytes()[: weights.stat().st_size // 2])
        with pytest.raises(ServeError):
            load_artifact(tmp_path / "art")

    def test_tampered_weights_fail_digest_check(self, tmp_path):
        _make_artifact(tmp_path / "art")
        weights_path = tmp_path / "art" / WEIGHTS_FILE
        with np.load(weights_path) as archive:
            state = {k: archive[k].copy() for k in archive.files}
        name = sorted(state)[0]
        state[name] = state[name] + 1.0
        np.savez(weights_path, **state)
        with pytest.raises(ServeError, match="digest mismatch"):
            load_artifact(tmp_path / "art")
        # but verify=False loads what is on disk
        model, _ = load_artifact(tmp_path / "art", verify=False)
        assert model is not None


class TestArtifactCache:
    def test_hit_and_miss_counters(self, tmp_path):
        from repro.telemetry.metrics import default_registry
        _make_artifact(tmp_path / "a", seed=1)
        cache = ArtifactCache(capacity=2)
        registry = default_registry()
        misses0 = registry.counter("serve.cache_misses").value
        hits0 = registry.counter("serve.cache_hits").value
        first = cache.get(tmp_path / "a")
        again = cache.get(tmp_path / "a")
        assert first[0] is again[0], "cache hit must return the same model"
        assert registry.counter("serve.cache_misses").value == misses0 + 1
        assert registry.counter("serve.cache_hits").value == hits0 + 1

    def test_lru_eviction_and_transparent_reload(self, tmp_path):
        _make_artifact(tmp_path / "a", seed=1)
        _make_artifact(tmp_path / "b", seed=2)
        _make_artifact(tmp_path / "c", seed=3)
        cache = ArtifactCache(capacity=2)
        model_a, art_a = cache.get(tmp_path / "a")
        cache.get(tmp_path / "b")
        cache.get(tmp_path / "c")  # evicts a (least recently used)
        assert len(cache) == 2
        assert art_a.fingerprint not in cache.fingerprints()
        # evicted artifact reloads transparently: same weights, new object
        reloaded, art_a2 = cache.get(tmp_path / "a")
        assert art_a2.fingerprint == art_a.fingerprint
        assert reloaded is not model_a
        sa, sb = model_a.state_dict(), reloaded.state_dict()
        for name in sa:
            np.testing.assert_array_equal(sa[name], sb[name])

    def test_recently_used_survives(self, tmp_path):
        _make_artifact(tmp_path / "a", seed=1)
        _make_artifact(tmp_path / "b", seed=2)
        _make_artifact(tmp_path / "c", seed=3)
        cache = ArtifactCache(capacity=2)
        _, art_a = cache.get(tmp_path / "a")
        cache.get(tmp_path / "b")
        cache.get(tmp_path / "a")  # touch a: b becomes LRU
        cache.get(tmp_path / "c")
        assert art_a.fingerprint in cache.fingerprints()

    def test_capacity_validation(self):
        with pytest.raises(ServeError, match="capacity"):
            ArtifactCache(capacity=0)

    def test_stats_tallies_and_hit_rate(self, tmp_path):
        _make_artifact(tmp_path / "a", seed=1)
        _make_artifact(tmp_path / "b", seed=2)
        _make_artifact(tmp_path / "c", seed=3)
        cache = ArtifactCache(capacity=2)
        assert cache.stats() == {"hits": 0.0, "misses": 0.0,
                                 "evictions": 0.0, "lookups": 0.0,
                                 "hit_rate": 0.0}
        cache.get(tmp_path / "a")   # miss
        cache.get(tmp_path / "a")   # hit
        cache.get(tmp_path / "b")   # miss
        cache.get(tmp_path / "c")   # miss, evicts a
        stats = cache.stats()
        assert stats["hits"] == 1.0
        assert stats["misses"] == 3.0
        assert stats["evictions"] == 1.0
        assert stats["lookups"] == 4.0
        assert stats["hit_rate"] == pytest.approx(0.25)

    def test_info_reports_cache_hit_rate(self, tmp_path, capsys):
        from repro.cli import main
        _make_artifact(tmp_path / "a", seed=1)
        cache = ArtifactCache(capacity=1)
        cache.get(tmp_path / "a")
        cache.get(tmp_path / "a")
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        line = [l for l in out.splitlines() if "serve cache" in l]
        assert line, out
        assert "hit rate over" in line[0]
        assert "evictions" in line[0]

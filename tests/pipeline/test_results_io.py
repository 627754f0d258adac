"""JSON serialization of experiment results."""

import numpy as np

from repro.pipeline import evaluation_to_dict, load_result, save_result
from repro.pipeline.evaluation import AttackEvaluation


def make_evaluation():
    return AttackEvaluation(
        accuracy=0.9,
        reconstructions=np.zeros((2, 4, 4, 1), dtype=np.uint8),
        originals=np.zeros((2, 4, 4, 1), dtype=np.uint8),
        mape_per_image=np.array([10.0, 30.0]),
        ssim_per_image=np.array([0.8, 0.3]),
        recognizable=np.array([True, False]),
    )


class TestEvaluationToDict:
    def test_fields(self):
        data = evaluation_to_dict(make_evaluation())
        assert data["accuracy"] == 0.9
        assert data["encoded_images"] == 2
        assert data["mean_mape"] == 20.0
        assert data["recognized_count"] == 1
        assert data["recognizable"] == [True, False]

    def test_json_serializable(self):
        import json
        json.dumps(evaluation_to_dict(make_evaluation()))


class TestSaveLoad:
    def test_roundtrip(self, tmp_path):
        data = evaluation_to_dict(make_evaluation())
        path = tmp_path / "result.json"
        save_result(data, path)
        assert load_result(path) == data

    def test_attack_result_roundtrip(self, trained_attack, tmp_path):
        from repro.pipeline import attack_result_to_dict
        data = attack_result_to_dict(trained_attack["result"])
        path = tmp_path / "attack.json"
        save_result(data, path)
        loaded = load_result(path)
        assert loaded["encoded_images"] == trained_attack["result"].encoded_images
        assert loaded["quantized"] is None
        assert len(loaded["history"]["task_loss"]) == 10


class TestRunManifest:
    def make_manifest(self):
        from repro.pipeline.config import TrainingConfig
        from repro.telemetry import RunManifest
        return RunManifest.create(
            seed=7, config=TrainingConfig(epochs=2),
            telemetry={"trainer.images": 192.0}, dataset="cifar",
        )

    def test_manifest_path_sidecar(self):
        from repro.pipeline import manifest_path
        assert manifest_path("runs/res.json") == "runs/res.manifest.json"

    def test_manifest_roundtrip(self, tmp_path):
        from repro.pipeline import load_manifest, save_manifest
        manifest = self.make_manifest()
        result_path = tmp_path / "res.json"
        save_manifest(manifest, result_path)
        loaded = load_manifest(result_path)
        assert loaded == manifest
        assert loaded.telemetry["trainer.images"] == 192.0
        assert loaded.extra["dataset"] == "cifar"
        # the provenance fields survive the round trip
        from repro import backend
        assert loaded.seed == 7
        assert len(loaded.config_hash) == 16
        assert loaded.backend == backend.active().name
        assert loaded.created_at > 0

    def test_save_result_writes_sidecar(self, tmp_path):
        from repro.pipeline import load_manifest, load_result, manifest_path
        import os
        manifest = self.make_manifest()
        path = tmp_path / "res.json"
        save_result({"accuracy": 0.9}, path, manifest=manifest)
        assert load_result(path) == {"accuracy": 0.9}
        assert os.path.exists(manifest_path(path))
        assert load_manifest(path).run_id == manifest.run_id

    def test_save_result_without_manifest_writes_no_sidecar(self, tmp_path):
        import os
        from repro.pipeline import manifest_path
        path = tmp_path / "res.json"
        save_result({"a": 1}, path)
        assert not os.path.exists(manifest_path(path))

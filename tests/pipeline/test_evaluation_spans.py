"""A traced ``evaluate_attack`` attributes each stage to its own span."""

import numpy as np

from repro.attacks.layerwise import assign_payload, group_by_layer_ranges
from repro.attacks.secret import SecretPayload
from repro.datasets.synthetic_digits import SyntheticDigitsConfig, make_synthetic_digits
from repro.datasets.transforms import images_to_batch
from repro.models.simple_cnn import SimpleCNN
from repro.pipeline.evaluation import evaluate_attack
from repro.telemetry.trace import recording, span

STAGES = ("metrics.accuracy", "attacks.decode", "metrics.ssim",
          "metrics.mape", "metrics.recognizable")


def test_traced_evaluation_opens_one_span_per_stage():
    dataset = make_synthetic_digits(
        SyntheticDigitsConfig(num_images=24, image_size=12, seed=3))
    model = SimpleCNN(in_channels=1, num_classes=10, image_size=12, width=4,
                      rng=np.random.default_rng(0))
    groups = group_by_layer_ranges(model, [(1, -1)], [10.0])
    assign_payload(groups, SecretPayload.from_dataset(dataset, [0, 1]))

    with recording() as recorder:
        with span("root"):
            evaluate_attack(model, images_to_batch(dataset.images),
                            dataset.labels, groups=groups, backend="fast")

    by_name = {record.name: record for record in recorder.spans}
    root = by_name["root"]
    for name in STAGES:
        assert name in by_name, name
        assert by_name[name].parent_id == root.span_id, name
    for name in ("metrics.accuracy", "metrics.recognizable"):
        assert "conv2d_infer" in by_name[name].attrs["kernels"], name

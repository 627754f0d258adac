"""Stroke-rendered synthetic digits."""

import hashlib

import numpy as np
import pytest

from repro.datasets import SyntheticDigitsConfig, make_synthetic_digits
from repro.errors import DatasetError


class TestSyntheticDigits:
    def test_shapes(self):
        ds = make_synthetic_digits(SyntheticDigitsConfig(num_images=50, image_size=16,
                                                         seed=0))
        assert ds.images.shape == (50, 16, 16, 1)
        assert ds.images.dtype == np.uint8
        assert ds.num_classes == 10

    def test_deterministic(self):
        config = SyntheticDigitsConfig(num_images=30, image_size=16, seed=7)
        a = make_synthetic_digits(config)
        b = make_synthetic_digits(config)
        assert np.array_equal(a.images, b.images)

    @pytest.mark.parametrize("config, images_sha, labels_sha", [
        (SyntheticDigitsConfig(),
         "883378f73f57911ec9112f1058c4458fec0b03183e9754e9f8d6710871d0ac95",
         "3053ddf3d8fed299cd65acb6ccf9e5fe1a855c456b0ad76821ddaa40d738f0ab"),
        (SyntheticDigitsConfig(num_images=37, image_size=16, seed=5,
                               noise_sigma=12.0),
         "b5f3f60096c3eb863ccdc077940700312e0cd37bb2d33424e52a3b479a968c81",
         "59e7b9186de015029ce466f4be7c7ed02f10c6908247b919bfe9fa1245c2d6eb"),
    ], ids=["default", "seed5-16px"])
    def test_pinned_bytes(self, config, images_sha, labels_sha):
        # digests of the per-image blur; the batched blur must keep them
        ds = make_synthetic_digits(config)
        assert hashlib.sha256(ds.images.tobytes()).hexdigest() == images_sha
        assert hashlib.sha256(ds.labels.tobytes()).hexdigest() == labels_sha

    def test_all_ten_digits_present(self):
        ds = make_synthetic_digits(SyntheticDigitsConfig(num_images=60, seed=1))
        assert set(ds.labels.tolist()) == set(range(10))

    def test_ink_on_dark_background(self):
        ds = make_synthetic_digits(SyntheticDigitsConfig(num_images=20, seed=2,
                                                         noise_sigma=2.0))
        image = ds.images[0].astype(float)
        # Background dominates: the median pixel is dark, the max bright.
        assert np.median(image) < 60
        assert image.max() > 150

    def test_instances_of_same_digit_differ(self):
        ds = make_synthetic_digits(SyntheticDigitsConfig(num_images=60, seed=3))
        zeros = ds.images[ds.labels == 0]
        assert len(zeros) >= 2
        assert not np.array_equal(zeros[0], zeros[1])

    def test_digits_are_classifiable(self):
        # Same-digit images must be closer than different-digit images.
        ds = make_synthetic_digits(SyntheticDigitsConfig(num_images=100, seed=4,
                                                         noise_sigma=3.0))
        images = ds.images.astype(float).reshape(len(ds), -1)
        means = np.stack([images[ds.labels == d].mean(axis=0) for d in range(10)])
        correct = 0
        for image, label in zip(images, ds.labels):
            distances = np.abs(means - image).mean(axis=1)
            correct += int(distances.argmin() == label)
        assert correct / len(ds) > 0.8  # nearest-class-mean already works

    def test_invalid_configs(self):
        with pytest.raises(DatasetError):
            make_synthetic_digits(SyntheticDigitsConfig(num_images=5))
        with pytest.raises(DatasetError):
            make_synthetic_digits(SyntheticDigitsConfig(image_size=8))

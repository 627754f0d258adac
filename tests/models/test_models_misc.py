"""SimpleCNN, MLP, FaceNetMini and the model registry."""

import numpy as np
import pytest

from repro.autograd import Tensor, no_grad
from repro.errors import ConfigError
from repro.models import (
    MLP,
    FaceNetMini,
    SimpleCNN,
    available_models,
    build_model,
    face_net_mini,
)

RNG = np.random.default_rng(29)


class TestSimpleCNN:
    def test_output_shape(self):
        model = SimpleCNN(in_channels=3, num_classes=5, image_size=16, width=4,
                          rng=np.random.default_rng(0))
        with no_grad():
            out = model(Tensor(RNG.standard_normal((2, 3, 16, 16))))
        assert out.shape == (2, 5)

    def test_grayscale(self):
        model = SimpleCNN(in_channels=1, num_classes=2, image_size=16, width=4,
                          rng=np.random.default_rng(0))
        with no_grad():
            out = model(Tensor(RNG.standard_normal((1, 1, 16, 16))))
        assert out.shape == (1, 2)


class TestMLP:
    def test_output_shape(self):
        model = MLP([12, 8, 3], rng=np.random.default_rng(0))
        with no_grad():
            assert model(Tensor(RNG.standard_normal((4, 12)))).shape == (4, 3)

    def test_flattens_images(self):
        model = MLP([27, 5], rng=np.random.default_rng(0))
        with no_grad():
            out = model(Tensor(RNG.standard_normal((2, 3, 3, 3))))
        assert out.shape == (2, 5)

    def test_too_few_sizes_raises(self):
        with pytest.raises(ValueError):
            MLP([4])

    def test_depth(self):
        assert MLP([4, 4, 4, 2]).depth == 3


class TestFaceNetMini:
    def test_classifier_shape(self):
        model = face_net_mini(num_identities=9, width=4, rng=np.random.default_rng(0))
        with no_grad():
            out = model(Tensor(RNG.standard_normal((2, 1, 24, 24))))
        assert out.shape == (2, 9)

    def test_embedding_is_normalized(self):
        model = FaceNetMini(num_identities=5, width=4, rng=np.random.default_rng(0))
        model.eval()
        with no_grad():
            emb = model.embed(Tensor(RNG.standard_normal((3, 1, 24, 24))))
        norms = np.linalg.norm(emb.data, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-6)

    def test_rgb_variant(self):
        model = face_net_mini(num_identities=4, in_channels=3, width=4,
                              rng=np.random.default_rng(0))
        with no_grad():
            out = model(Tensor(RNG.standard_normal((1, 3, 24, 24))))
        assert out.shape == (1, 4)


class TestRegistry:
    def test_defaults_registered(self):
        names = available_models()
        for expected in ["resnet34_cifar", "resnet8_tiny", "simple_cnn", "face_net_mini"]:
            assert expected in names

    def test_build_by_name(self):
        model = build_model("resnet8_tiny", num_classes=4, width=4,
                            rng=np.random.default_rng(0))
        with no_grad():
            out = model(Tensor(RNG.standard_normal((1, 3, 16, 16))))
        assert out.shape == (1, 4)

    def test_unknown_name_raises(self):
        for name in ("not_a_model", "vgg_tiny"):
            with pytest.raises(ConfigError, match=f"unknown model '{name}'"):
                build_model(name)

"""Shared fixtures: tiny datasets and a trained attack model.

Expensive artifacts (trained models) are session-scoped so that the many
tests that inspect them pay the training cost once.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import (
    SyntheticCifarConfig,
    SyntheticFacesConfig,
    make_synthetic_cifar,
    make_synthetic_faces,
    train_test_split,
)
from repro.models import resnet8_tiny


@pytest.fixture(scope="session")
def cifar_small():
    """180-image, 6-class, 16x16 RGB synthetic CIFAR dataset."""
    return make_synthetic_cifar(
        SyntheticCifarConfig(num_images=180, num_classes=6, image_size=16, seed=3)
    )


@pytest.fixture(scope="session")
def cifar_splits(cifar_small):
    return train_test_split(cifar_small, test_fraction=0.2, seed=0)


@pytest.fixture(scope="session")
def faces_small():
    return make_synthetic_faces(
        SyntheticFacesConfig(num_identities=8, images_per_identity=6, image_size=24, seed=5)
    )


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


@pytest.fixture(autouse=True)
def no_shm_leaks():
    """Fail any test that leaves a new ``/dev/shm/repro_*`` segment behind.

    Shared-memory segments survive the process that created them; a test
    that crashes a DDP worker or skips teardown would silently fill
    ``/dev/shm`` for every suite run after it.  Segments already present
    before the test (e.g. leaked by an unrelated process) are ignored.
    """
    from repro.parallel.arena import live_segments

    before = set(live_segments())
    yield
    leaked = sorted(set(live_segments()) - before)
    assert not leaked, f"test leaked shared-memory segments: {leaked}"


def tiny_model_builder(num_classes=6, seed=7):
    """A deterministic tiny ResNet builder used across tests."""
    return lambda: resnet8_tiny(
        num_classes=num_classes, in_channels=3, width=8,
        rng=np.random.default_rng(seed),
    )


@pytest.fixture(scope="session")
def trained_attack():
    """One trained layer-wise correlation attack, shared across tests.

    Returns the full AttackFlowResult (uncompressed; quantization done
    separately by the tests that need it) plus the datasets.
    """
    from repro.pipeline import AttackConfig, TrainingConfig, run_quantized_correlation_attack

    data = make_synthetic_cifar(
        SyntheticCifarConfig(num_images=180, num_classes=6, image_size=16, seed=3)
    )
    train, test = train_test_split(data, test_fraction=0.2, seed=0)
    result = run_quantized_correlation_attack(
        train, test, tiny_model_builder(),
        TrainingConfig(epochs=10, batch_size=32, lr=0.08, seed=0),
        AttackConfig(layer_ranges=((1, 3), (4, -1)), rates=(0.0, 20.0), std_window=8.0),
        quantization=None,
    )
    return {"result": result, "train": train, "test": test}


@pytest.fixture(scope="session")
def runs(tmp_path_factory):
    """The golden attack flow, run once per execution mode on first use
    (see :mod:`tests.contract.test_mode_contract`)."""
    from tests.contract.test_mode_contract import Runs

    return Runs(tmp_path_factory)

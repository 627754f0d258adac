"""Shared experiment cache for the paper's claims, one per mode.

Every claim test regenerates one of the paper's tables or figures at CPU
scale (see DESIGN.md's experiment index).  Training is the expensive
part, so trained models are memoized per configuration and per mode
(``tests/contract/modes.py``); quantization variants reload the cached
state dict.  The ``mode`` fixture picks the mode: ``fast/f32`` under
``tests/``, ``ref/f64`` and ``fast/f32/ddp2`` from
``benchmarks/test_paper_claims.py``.  The fixtures below are imported
into ``tests/paper/conftest.py`` and ``benchmarks/conftest.py``.

Scaled-down substrate: the paper trains ResNet-34 on CIFAR-10 with
lambda_c in {3, 5, 10}.  Here a narrow ResNet-8 trains on the synthetic
16x16 dataset, and because the correlated weight count l is ~1000x
smaller, the equivalent rate sweep is LAMBDA_SWEEP = (5, 20, 50) --
chosen so the uncompressed attack spans the same accuracy/quality
trade-off band as the paper's sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np
import pytest

from repro.attacks.layerwise import (
    LayerwiseCorrelationPenalty,
    assign_payload,
    group_by_layer_ranges,
)
from repro.attacks.secret import SecretPayload
from repro.datasets import (
    SyntheticCifarConfig,
    SyntheticFacesConfig,
    make_synthetic_cifar,
    make_synthetic_faces,
    to_grayscale,
    train_test_split,
)
from repro.datasets.transforms import images_to_batch, normalize_batch
from repro.models import face_net_mini, resnet8_tiny
from repro.parallel import ddp
from repro.pipeline import QuantizationConfig, TrainingConfig
from repro.pipeline.baselines import quantize_and_finetune, train_benign
from repro.pipeline.evaluation import AttackEvaluation, evaluate_attack
from repro.pipeline.trainer import Trainer
from repro.preprocessing import select_encoding_targets
from tests.contract.modes import MODES, use_mode

# The paper's lambda_c in {3, 5, 10} maps onto this sweep at our scale.
LAMBDA_SWEEP = (5.0, 20.0, 50.0)
PAPER_LAMBDAS = (3.0, 5.0, 10.0)
# The paper sweeps 8/6/4-bit on ResNet-34; the narrow CPU substrate has
# ~1000x fewer weights per layer, so quantization starts to bite one to
# two bits lower -- 4/3/2-bit spans the same qualitative regime.
BITS_SWEEP = (4, 3, 2)
PAPER_BITS = (8, 6, 4)
FACE_BITS = 3  # the paper's face experiment also uses 3-bit
EPOCHS = 15
GROUPS_RANGES = ((1, 2), (3, 4), (5, -1))  # three groups over 7 encodable layers


@dataclass
class TrainedAttack:
    """A trained attack model plus everything needed to evaluate it."""

    model: object
    groups: list
    payload: SecretPayload
    mean: np.ndarray
    std: np.ndarray
    penalty: LayerwiseCorrelationPenalty
    train_dataset: object
    test_dataset: object
    test_batch: np.ndarray
    base_state: Dict[str, np.ndarray]

    def restore(self) -> None:
        self.model.load_state_dict(self.base_state)

    def evaluate(self) -> AttackEvaluation:
        return evaluate_attack(
            self.model, self.test_batch, self.test_dataset.labels,
            groups=self.groups, mean=self.mean, std=self.std,
        )

    def quantize(self, bits: int, method: str, finetune_epochs: int = 2,
                 flip_override: Optional[bool] = None) -> AttackEvaluation:
        """Restore the trained weights, quantize, fine-tune, evaluate."""
        from repro.quantization.target_correlated import detect_flip
        self.restore()
        if flip_override is not None:
            flip = flip_override
        else:
            flip = False
            for group in self.groups:
                if group.payload is not None:
                    flip = detect_flip(group.weight_vector(), group.payload.secret_vector())
                    break
        encoding_names = [
            name for group in self.groups if group.payload is not None
            for name in group.param_names
        ]
        quantize_and_finetune(
            self.model,
            QuantizationConfig(bits=bits, method=method,
                               finetune_epochs=finetune_epochs, finetune_lr=0.02),
            self.train_dataset,
            TrainingConfig(epochs=1, batch_size=32, lr=0.08),
            self.mean, self.std,
            target_images=self.payload.images,
            penalty=self.penalty,
            flip=flip,
            encoding_names=encoding_names,
        )
        return self.evaluate()


class ExperimentCache:
    """Memoized trainings shared by every claim test of one mode."""

    def __init__(self) -> None:
        self._attacks: Dict[Tuple, TrainedAttack] = {}
        self._benign: Dict[str, object] = {}
        rgb = make_synthetic_cifar(
            SyntheticCifarConfig(num_images=240, num_classes=6, image_size=16, seed=3)
        )
        self.datasets = {"rgb": train_test_split(rgb, 0.2, seed=0),
                         "gray": train_test_split(to_grayscale(rgb), 0.2, seed=0)}

    # ---------------------------------------------------------------- util
    def _build_model(self, color: str):
        channels = 3 if color == "rgb" else 1
        return resnet8_tiny(num_classes=6, in_channels=channels, width=8,
                            rng=np.random.default_rng(7))

    def attack(self, color: str, rates: Tuple[float, float, float],
               preprocess: bool) -> TrainedAttack:
        """Train (or fetch) a layer-wise correlation attack model.

        ``preprocess=False`` uses the whole std spectrum (the original
        attack's random draw); ``preprocess=True`` applies Sec. IV-A.
        """
        key = (color, rates, preprocess)
        if key in self._attacks:
            self._attacks[key].restore()
            return self._attacks[key]

        train, test = self.datasets[color]
        train_batch = images_to_batch(train.images)
        train_batch, mean, std = normalize_batch(train_batch)
        test_batch = images_to_batch(test.images)
        test_batch, _, _ = normalize_batch(test_batch, mean, std)

        model = self._build_model(color)
        groups = group_by_layer_ranges(model, GROUPS_RANGES, rates)
        pixels = train.pixels_per_image
        capacity = sum(g.capacity(pixels) for g in groups if g.rate > 0.0)
        # Grayscale images are 3x smaller, so full capacity would encode
        # ~75 images and saturate this narrow model (the paper's models
        # are huge relative to their payloads); cap the payload instead.
        if color == "gray":
            capacity = max(1, capacity // 2)
        if preprocess:
            selection = select_encoding_targets(train, capacity, window=8.0, seed=0)
            indices = selection.target_indices
        else:
            rng = np.random.default_rng(0)
            count = min(capacity, len(train))
            indices = np.sort(rng.choice(len(train), size=count, replace=False))
        payload_all = SecretPayload.from_dataset(train, indices)
        assigned = assign_payload(groups, payload_all)
        payload = payload_all.take(assigned)
        penalty = LayerwiseCorrelationPenalty(groups)
        trainer = Trainer(model, train_batch, train.labels,
                          TrainingConfig(epochs=EPOCHS, batch_size=32, lr=0.08, seed=0),
                          penalty=penalty)
        trainer.train()
        trained = TrainedAttack(
            model=model, groups=groups, payload=payload, mean=mean, std=std,
            penalty=penalty, train_dataset=train, test_dataset=test,
            test_batch=test_batch, base_state=model.state_dict(),
        )
        self._attacks[key] = trained
        return trained

    def original_attack(self, color: str, rate: float) -> TrainedAttack:
        """Uniform rate over every group, no pre-processing (Song et al.)."""
        return self.attack(color, (rate, rate, rate), preprocess=False)

    def our_attack(self, color: str, rate: float) -> TrainedAttack:
        """The paper's flow: zero-rate early groups + std pre-processing."""
        return self.attack(color, (0.0, 0.0, rate), preprocess=True)

    def benign(self, color: str):
        if color not in self._benign:
            train, test = self.datasets[color]
            self._benign[color] = train_benign(
                train, test, lambda: self._build_model(color),
                TrainingConfig(epochs=EPOCHS, batch_size=32, lr=0.08, seed=0),
            )
        return self._benign[color]


@dataclass
class FaceExperiment:
    attack: TrainedAttack
    uncompressed: AttackEvaluation


def train_face_experiment() -> FaceExperiment:
    """Trained face-recognition attack (Table IV / Fig. 5 substrate)."""
    faces = make_synthetic_faces(
        SyntheticFacesConfig(num_identities=12, images_per_identity=8,
                             image_size=24, seed=5)
    )
    train, test = train_test_split(faces, test_fraction=0.25, seed=0)
    train_batch = images_to_batch(train.images)
    train_batch, mean, std = normalize_batch(train_batch)
    test_batch = images_to_batch(test.images)
    test_batch, _, _ = normalize_batch(test_batch, mean, std)

    model = face_net_mini(num_identities=12, width=8, rng=np.random.default_rng(3))
    groups = group_by_layer_ranges(model, ((1, 2), (3, 5), (6, -1)), (0.0, 0.0, 20.0))
    pixels = train.pixels_per_image
    capacity = sum(g.capacity(pixels) for g in groups if g.rate > 0.0)
    # Encode 60% of capacity: the paper's face model is huge relative to
    # its payload, so saturating this small model would cost evasiveness.
    capacity = max(1, int(capacity * 0.6))
    selection = select_encoding_targets(train, capacity, window=10.0, seed=0)
    payload_all = SecretPayload.from_dataset(train, selection.target_indices)
    assigned = assign_payload(groups, payload_all)
    payload = payload_all.take(assigned)
    penalty = LayerwiseCorrelationPenalty(groups)
    Trainer(model, train_batch, train.labels,
            TrainingConfig(epochs=25, batch_size=16, lr=0.05, seed=0),
            penalty=penalty).train()
    trained = TrainedAttack(
        model=model, groups=groups, payload=payload, mean=mean, std=std,
        penalty=penalty, train_dataset=train, test_dataset=test,
        test_batch=test_batch, base_state=model.state_dict(),
    )
    return FaceExperiment(attack=trained, uncompressed=trained.evaluate())


@pytest.fixture(scope="session")
def trained():
    """Per-mode memo of the trainings: ``{(kind, mode): experiment}``."""
    return {}


@pytest.fixture
def in_mode(mode):
    """Run the test body (training, quantization, evaluation) in ``mode``."""
    if MODES[mode].ddp_workers and not ddp.available():
        pytest.skip("fork start method unavailable")
    with use_mode(mode):
        yield mode


@pytest.fixture
def cache(in_mode, trained) -> ExperimentCache:
    if ("cifar", in_mode) not in trained:
        trained["cifar", in_mode] = ExperimentCache()
    return trained["cifar", in_mode]


@pytest.fixture
def face_experiment(in_mode, trained) -> FaceExperiment:
    if ("faces", in_mode) not in trained:
        trained["faces", in_mode] = train_face_experiment()
    return trained["faces", in_mode]

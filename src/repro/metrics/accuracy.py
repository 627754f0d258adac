"""Classification accuracy (attack evasiveness)."""

from __future__ import annotations

import numpy as np

from repro.autograd import no_grad
from repro.autograd.tensor import Tensor
from repro.nn.module import Module
from repro.precision import cast_to_model


def predict_classes(model: Module, inputs: np.ndarray, batch_size: int = 64) -> np.ndarray:
    """Argmax class predictions over an NCHW float batch, computed at the
    model's parameter dtype (a float32 model never runs float64 kernels)."""
    inputs = cast_to_model(model, inputs)
    was_training = model.training
    model.eval()
    predictions = []
    with no_grad():
        for start in range(0, len(inputs), batch_size):
            logits = model(Tensor(inputs[start:start + batch_size]))
            predictions.append(logits.data.argmax(axis=1))
    if was_training:
        model.train()
    return np.concatenate(predictions)


def evaluate_accuracy(
    model: Module, inputs: np.ndarray, labels: np.ndarray, batch_size: int = 64
) -> float:
    """Top-1 accuracy of a model on a labelled NCHW batch."""
    predictions = predict_classes(model, inputs, batch_size)
    return float((predictions == np.asarray(labels)).mean())

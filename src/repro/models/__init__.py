"""Model zoo used by the paper's experiments.

* :func:`resnet34_cifar` -- the paper's CIFAR-10 classifier (full depth).
* Narrow/shallow ResNet variants for CPU-scale benchmark runs.
* :class:`SimpleCNN`, :class:`MLP` -- auxiliary models for tests.
* :func:`face_net_mini` -- the face-recognition stand-in for
  Inception-ResNet-v1 (see DESIGN.md substitutions).
"""

from repro.models.resnet import ResNet, resnet8_tiny, resnet10, resnet18_cifar, resnet34_cifar
from repro.models.simple_cnn import SimpleCNN
from repro.models.mlp import MLP
from repro.models.face_net import FaceNetMini, face_net_mini
from repro.models.registry import available_models, build_model
from repro.models.introspect import encodable_parameters, parameter_vector, set_parameter_vector

__all__ = [
    "ResNet", "resnet8_tiny", "resnet10", "resnet18_cifar", "resnet34_cifar",
    "SimpleCNN", "MLP", "FaceNetMini", "face_net_mini",
    "available_models", "build_model",
    "encodable_parameters", "parameter_vector", "set_parameter_vector",
]

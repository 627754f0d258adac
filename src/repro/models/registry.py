"""Name → builder registry so configs can reference models by string."""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.errors import ConfigError
from repro.models import face_net, mlp, resnet, simple_cnn
from repro.nn.module import Module

_REGISTRY: Dict[str, Callable[..., Module]] = {
    "resnet34_cifar": resnet.resnet34_cifar,
    "resnet18_cifar": resnet.resnet18_cifar,
    "resnet10": resnet.resnet10,
    "resnet8_tiny": resnet.resnet8_tiny,
    "simple_cnn": simple_cnn.SimpleCNN,
    "mlp": mlp.MLP,
    "face_net_mini": face_net.face_net_mini,
}


def build_model(name: str, **kwargs) -> Module:
    """Instantiate a registered model by name."""
    if name not in _REGISTRY:
        raise ConfigError(f"unknown model {name!r}; available: {sorted(_REGISTRY)}")
    return _REGISTRY[name](**kwargs)


def available_models() -> List[str]:
    return sorted(_REGISTRY)

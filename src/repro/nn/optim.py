"""The SGD optimizer (momentum, weight decay) and learning-rate schedules."""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

import numpy as np

from repro.errors import ConfigError
from repro.nn.module import Parameter
from repro.telemetry.trace import span


class SGD:
    """SGD with classical momentum and decoupled L2 weight decay."""

    def __init__(
        self,
        params: Sequence[Parameter],
        lr: float = 0.01,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        self.params: List[Parameter] = list(params)
        if not self.params:
            raise ConfigError("optimizer received an empty parameter list")
        if lr <= 0:
            raise ConfigError(f"learning rate must be positive, got {lr}")
        self.lr = float(lr)
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self._velocity: Dict[int, np.ndarray] = {}

    def zero_grad(self) -> None:
        for param in self.params:
            param.grad = None

    def step(self) -> None:
        from repro import backend as _backend
        K = _backend.active()
        with span("nn.optim.step"):
            for param in self.params:
                if param.grad is None:
                    continue
                param.data, velocity = K.sgd_update(
                    param.data, param.grad, self._velocity.get(id(param)),
                    self.lr, self.momentum, self.weight_decay,
                )
                if velocity is not None:
                    self._velocity[id(param)] = velocity


class StepSchedule:
    """Multiply the optimizer lr by ``gamma`` every ``step_size`` epochs."""

    def __init__(self, optimizer: SGD, step_size: int, gamma: float = 0.1) -> None:
        self.optimizer = optimizer
        self.step_size = int(step_size)
        self.gamma = float(gamma)
        self.base_lr = optimizer.lr
        self.epoch = 0

    def step(self) -> None:
        self.epoch += 1
        drops = self.epoch // self.step_size
        self.optimizer.lr = self.base_lr * (self.gamma ** drops)


class CosineSchedule:
    """Cosine-anneal the lr from base to ``min_lr`` over ``total_epochs``."""

    def __init__(self, optimizer: SGD, total_epochs: int, min_lr: float = 0.0) -> None:
        self.optimizer = optimizer
        self.total_epochs = int(total_epochs)
        self.min_lr = float(min_lr)
        self.base_lr = optimizer.lr
        self.epoch = 0

    def step(self) -> None:
        self.epoch = min(self.epoch + 1, self.total_epochs)
        progress = self.epoch / self.total_epochs
        cosine = 0.5 * (1 + math.cos(math.pi * progress))
        self.optimizer.lr = self.min_lr + (self.base_lr - self.min_lr) * cosine

"""Optimizers (SGD with momentum, Adam) and learning-rate schedules."""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

import numpy as np

from repro.errors import ConfigError
from repro.nn.module import Parameter
from repro.telemetry.trace import span


class Optimizer:
    """Base optimizer over an explicit parameter list."""

    def __init__(self, params: Sequence[Parameter], lr: float) -> None:
        self.params: List[Parameter] = list(params)
        if not self.params:
            raise ConfigError("optimizer received an empty parameter list")
        if lr <= 0:
            raise ConfigError(f"learning rate must be positive, got {lr}")
        self.lr = float(lr)

    def zero_grad(self) -> None:
        for param in self.params:
            param.grad = None

    def step(self) -> None:
        raise NotImplementedError


class SGD(Optimizer):
    """SGD with classical momentum and decoupled L2 weight decay."""

    def __init__(
        self,
        params: Sequence[Parameter],
        lr: float = 0.01,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(params, lr)
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self._velocity: Dict[int, np.ndarray] = {}

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


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015) with bias correction."""

    def __init__(
        self,
        params: Sequence[Parameter],
        lr: float = 1e-3,
        betas=(0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(params, lr)
        self.beta1, self.beta2 = float(betas[0]), float(betas[1])
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self._m: Dict[int, np.ndarray] = {}
        self._v: Dict[int, np.ndarray] = {}
        self._t = 0

    def step(self) -> None:
        self._t += 1
        for param in self.params:
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            m = self._m.get(id(param))
            v = self._v.get(id(param))
            if m is None:
                m = np.zeros_like(param.data)
                v = np.zeros_like(param.data)
            m = self.beta1 * m + (1 - self.beta1) * grad
            v = self.beta2 * v + (1 - self.beta2) * grad * grad
            self._m[id(param)], self._v[id(param)] = m, v
            m_hat = m / (1 - self.beta1 ** self._t)
            v_hat = v / (1 - self.beta2 ** self._t)
            param.data = param.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


class RMSProp(Optimizer):
    """RMSProp (Tieleman & Hinton): scale steps by a running RMS of grads."""

    def __init__(
        self,
        params: Sequence[Parameter],
        lr: float = 1e-3,
        alpha: float = 0.99,
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(params, lr)
        self.alpha = float(alpha)
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self._square_avg: Dict[int, np.ndarray] = {}

    def step(self) -> None:
        for param in self.params:
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            avg = self._square_avg.get(id(param))
            if avg is None:
                avg = np.zeros_like(param.data)
            avg = self.alpha * avg + (1 - self.alpha) * grad * grad
            self._square_avg[id(param)] = avg
            param.data = param.data - self.lr * grad / (np.sqrt(avg) + self.eps)


class StepSchedule:
    """Multiply the optimizer lr by ``gamma`` every ``step_size`` epochs."""

    def __init__(self, optimizer: Optimizer, step_size: int, gamma: float = 0.1) -> None:
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

    def __init__(self, optimizer: Optimizer, total_epochs: int, min_lr: float = 0.0) -> None:
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

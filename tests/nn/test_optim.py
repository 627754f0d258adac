"""Optimizers and schedules: update rules and convergence."""

import numpy as np
import pytest

from repro.autograd import Tensor, functional as F
from repro.errors import ConfigError
from repro.nn import SGD, CosineSchedule, StepSchedule
from repro.nn.module import Parameter


def quadratic_loss(param):
    # loss = sum((p - 3)^2), minimum at 3.
    diff = F.sub(param, Tensor(3.0))
    return F.sum(F.mul(diff, diff))


class TestSGD:
    def test_vanilla_step(self):
        p = Parameter(np.array([1.0]))
        p.grad = np.array([2.0])
        SGD([p], lr=0.1).step()
        assert np.allclose(p.data, [0.8])

    def test_momentum_accumulates(self):
        p = Parameter(np.array([0.0]))
        opt = SGD([p], lr=1.0, momentum=0.9)
        p.grad = np.array([1.0])
        opt.step()
        assert np.allclose(p.data, [-1.0])
        p.grad = np.array([1.0])
        opt.step()  # velocity = 0.9*1 + 1 = 1.9
        assert np.allclose(p.data, [-2.9])

    def test_weight_decay(self):
        p = Parameter(np.array([10.0]))
        p.grad = np.array([0.0])
        SGD([p], lr=0.1, weight_decay=0.1).step()
        assert np.allclose(p.data, [10.0 - 0.1 * 0.1 * 10.0])

    def test_skips_params_without_grad(self):
        p = Parameter(np.array([1.0]))
        SGD([p], lr=0.1).step()
        assert np.allclose(p.data, [1.0])

    def test_converges_on_quadratic(self):
        p = Parameter(np.array([0.0, 10.0]))
        opt = SGD([p], lr=0.1, momentum=0.5)
        for _ in range(100):
            loss = quadratic_loss(p)
            p.grad = None
            loss.backward()
            opt.step()
        assert np.allclose(p.data, 3.0, atol=1e-4)

    def test_zero_grad(self):
        p = Parameter(np.array([1.0]))
        p.grad = np.ones(1)
        opt = SGD([p], lr=0.1)
        opt.zero_grad()
        assert p.grad is None

    def test_empty_params_raises(self):
        with pytest.raises(ConfigError):
            SGD([], lr=0.1)

    def test_bad_lr_raises(self):
        with pytest.raises(ConfigError):
            SGD([Parameter(np.zeros(1))], lr=0.0)


class TestSchedules:
    def test_step_schedule(self):
        p = Parameter(np.zeros(1))
        opt = SGD([p], lr=1.0)
        sched = StepSchedule(opt, step_size=2, gamma=0.1)
        sched.step()
        assert np.isclose(opt.lr, 1.0)
        sched.step()
        assert np.isclose(opt.lr, 0.1)
        sched.step(); sched.step()
        assert np.isclose(opt.lr, 0.01)

    def test_cosine_schedule_endpoints(self):
        p = Parameter(np.zeros(1))
        opt = SGD([p], lr=1.0)
        sched = CosineSchedule(opt, total_epochs=10, min_lr=0.0)
        for _ in range(10):
            sched.step()
        assert np.isclose(opt.lr, 0.0, atol=1e-12)

    def test_cosine_schedule_monotone_decreasing(self):
        p = Parameter(np.zeros(1))
        opt = SGD([p], lr=1.0)
        sched = CosineSchedule(opt, total_epochs=5)
        values = []
        for _ in range(5):
            sched.step()
            values.append(opt.lr)
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_cosine_clamps_past_total(self):
        p = Parameter(np.zeros(1))
        opt = SGD([p], lr=1.0)
        sched = CosineSchedule(opt, total_epochs=3, min_lr=0.05)
        for _ in range(10):
            sched.step()
        assert np.isclose(opt.lr, 0.05)

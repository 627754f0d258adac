"""BatchNorm: normalization math, running stats, train/eval behaviour."""

import numpy as np

from repro.autograd import Tensor, functional as F
from repro.nn import BatchNorm2d

RNG = np.random.default_rng(5)


class TestBatchNorm2d:
    def test_training_output_is_normalized(self):
        bn = BatchNorm2d(3)
        x = RNG.standard_normal((8, 3, 4, 4)) * 5 + 2
        out = bn(Tensor(x)).data
        assert np.allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-7)
        assert np.allclose(out.std(axis=(0, 2, 3)), 1.0, atol=1e-3)

    def test_gamma_beta_applied(self):
        bn = BatchNorm2d(2)
        bn.gamma.data = np.array([2.0, 3.0])
        bn.beta.data = np.array([1.0, -1.0])
        x = RNG.standard_normal((4, 2, 3, 3))
        out = bn(Tensor(x)).data
        assert np.allclose(out.mean(axis=(0, 2, 3)), [1.0, -1.0], atol=1e-7)

    def test_running_stats_update(self):
        bn = BatchNorm2d(2, momentum=0.5)
        x = np.ones((4, 2, 2, 2)) * 10.0
        bn(Tensor(x))
        assert np.allclose(bn.running_mean, 5.0)  # 0.5*0 + 0.5*10

    def test_eval_uses_running_stats(self):
        bn = BatchNorm2d(1, momentum=1.0)
        x = RNG.standard_normal((16, 1, 4, 4)) * 3 + 7
        bn(Tensor(x))  # one train step with momentum 1 copies the batch stats
        bn.eval()
        out = bn(Tensor(x)).data
        assert np.allclose(out.mean(), 0.0, atol=1e-2)

    def test_eval_does_not_update_stats(self):
        bn = BatchNorm2d(1)
        bn.eval()
        before = bn.running_mean.copy()
        bn(Tensor(RNG.standard_normal((4, 1, 2, 2)) + 100))
        assert np.allclose(bn.running_mean, before)

    def test_gradients_flow_to_gamma_beta(self):
        bn = BatchNorm2d(2)
        out = F.sum(bn(Tensor(RNG.standard_normal((4, 2, 3, 3)))))
        out.backward()
        assert bn.gamma.grad is not None
        assert bn.beta.grad is not None

    def test_gradient_flows_to_input(self):
        bn = BatchNorm2d(2)
        x = Tensor(RNG.standard_normal((4, 2, 3, 3)), requires_grad=True)
        F.sum(F.mul(bn(x), bn(x))).backward()
        assert x.grad is not None
        assert x.grad.shape == x.shape


    def test_state_dict_contains_running_stats(self):
        bn = BatchNorm2d(4)
        state = bn.state_dict()
        assert "buffer:running_mean" in state
        assert "buffer:running_var" in state

    def test_state_roundtrip_preserves_stats(self):
        a = BatchNorm2d(2, momentum=1.0)
        a(Tensor(RNG.standard_normal((8, 2, 3, 3)) + 5))
        b = BatchNorm2d(2)
        b.load_state_dict(a.state_dict())
        assert np.allclose(a.running_mean, b.running_mean)
        assert np.allclose(a.running_var, b.running_var)

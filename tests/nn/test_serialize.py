"""npz save/load of model state."""

import numpy as np

from repro.autograd import Tensor
from repro.nn import BatchNorm2d, Conv2d, Flatten, Linear, Sequential, load_state, save_state


def make_model(seed=0):
    return Sequential(
        Conv2d(2, 4, 3, padding=1, rng=np.random.default_rng(seed)),
        BatchNorm2d(4),
        Flatten(),
        Linear(4 * 3 * 3, 2, rng=np.random.default_rng(seed + 1)),
    )


class TestSerialize:
    def test_roundtrip_parameters(self, tmp_path):
        model = make_model(seed=1)
        path = tmp_path / "model.npz"
        save_state(model, path)
        other = make_model(seed=2)
        load_state(other, path)
        for (_, a), (_, b) in zip(model.named_parameters(), other.named_parameters()):
            assert np.allclose(a.data, b.data)

    def test_roundtrip_buffers(self, tmp_path):
        model = make_model()
        model(Tensor(np.random.default_rng(0).standard_normal((16, 2, 3, 3))))  # move BN stats
        path = tmp_path / "model.npz"
        save_state(model, path)
        other = make_model()
        load_state(other, path)
        bn_a = model[1]
        bn_b = other[1]
        assert np.allclose(bn_a.running_mean, bn_b.running_mean)

    def test_same_predictions_after_load(self, tmp_path):
        model = make_model(seed=3)
        model.eval()
        x = np.random.default_rng(1).standard_normal((5, 2, 3, 3))
        expected = model(Tensor(x)).data
        path = tmp_path / "model.npz"
        save_state(model, path)
        other = make_model(seed=9)
        other.eval()
        load_state(other, path)
        assert np.allclose(other(Tensor(x)).data, expected)

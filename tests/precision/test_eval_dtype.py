"""No-grad evaluation computes at the model's parameter dtype.

``images_to_batch`` returns float64; a float32 model evaluated on it
must run float32 kernels, while a float64 model keeps its float64
forward byte for byte.
"""

import numpy as np
import pytest

from repro import backend as B
from repro import precision
from repro.autograd import Tensor, no_grad
from repro.datasets.transforms import images_to_batch
from repro.metrics.accuracy import predict_classes
from repro.models.mlp import MLP
from repro.models.resnet import resnet8_tiny
from repro.nn.layers import ReLU
from repro.precision import cast_to_model


def _batch(n=5, size=8, seed=0):
    images = np.random.default_rng(seed).integers(
        0, 256, (n, size, size, 3), dtype=np.uint8)
    return images_to_batch(images)


def _model(dtype):
    with precision.use_dtype(dtype):
        return resnet8_tiny(num_classes=4, width=4, rng=np.random.default_rng(3))


def _spy_operand_dtypes(monkeypatch, backend):
    """Record the dtype of every float ndarray operand each kernel of
    ``backend`` is called with."""
    seen = []
    for name in backend.kernels():
        impl = getattr(backend, name)

        def spy(*args, _impl=impl, _name=name, **kwargs):
            seen.extend((_name, a.dtype) for a in (*args, *kwargs.values())
                        if isinstance(a, np.ndarray) and a.dtype.kind == "f")
            return _impl(*args, **kwargs)

        monkeypatch.setattr(backend, name, spy)
    return seen


class TestFloat32Model:
    @pytest.mark.parametrize("backend", ["fast", "reference"])
    def test_every_kernel_sees_float32(self, monkeypatch, backend):
        model, batch = _model("float32"), _batch()
        assert batch.dtype == np.float64
        with B.use_backend(backend) as active:
            seen = _spy_operand_dtypes(monkeypatch, active)
            predicted = predict_classes(model, batch, batch_size=2)
        assert seen, "predict_classes reached no kernel"
        assert {dtype for _, dtype in seen} == {np.dtype(np.float32)}, sorted(
            {name for name, dtype in seen if dtype != np.float32})
        cast = predict_classes(model, batch.astype(np.float32), batch_size=2)
        np.testing.assert_array_equal(predicted, cast)


class TestFloat64Model:
    def test_predictions_byte_identical_with_and_without_the_cast(self):
        model, batch = _model("float64"), _batch()
        assert cast_to_model(model, batch) is batch  # no copy, no cast
        model.eval()
        with no_grad():
            plain = model(Tensor(batch)).data
        assert plain.dtype == np.float64
        np.testing.assert_array_equal(predict_classes(model, batch),
                                      plain.argmax(axis=1))

    def test_float32_batch_is_widened(self):
        model = _model("float64")
        cast = cast_to_model(model, _batch().astype(np.float32))
        assert cast.dtype == np.float64


class TestPassThrough:
    def test_model_without_parameters_method(self):
        class FlattenWrapper:
            """Duck-typed adapter: callable, no ``parameters()``."""
            def __init__(self, mlp):
                self.mlp = mlp
                self.training = False
            def eval(self):
                return self.mlp.eval()
            def train(self):
                return self.mlp.train()
            def __call__(self, x):
                return self.mlp(x)

        with precision.use_dtype("float32"):
            mlp = MLP([3 * 8 * 8, 4], rng=np.random.default_rng(0))
        wrapper, batch = FlattenWrapper(mlp), _batch()
        assert cast_to_model(wrapper, batch) is batch
        assert predict_classes(wrapper, batch).shape == (len(batch),)

    def test_module_without_parameters(self):
        batch = _batch()
        assert cast_to_model(ReLU(), batch) is batch

    def test_non_float_inputs(self):
        labels = np.arange(4)
        assert cast_to_model(_model("float32"), labels) is labels

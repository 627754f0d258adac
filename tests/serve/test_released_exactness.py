"""A released artifact decodes and serves exactly like the in-process model.

The attack's payoff happens after release: the adversary decodes the
weights the victim shipped, and clients query the served model.  Both
must see the in-process quantized model bit for bit -- an Eq. 2-encoded
model quantized to 3 bits with Algorithm 1 (TCQ), written with
:func:`save_artifact`, reloaded with :func:`load_artifact`, and served
by :class:`ModelServer` through serial and forked shards.
"""

import asyncio
import multiprocessing

import numpy as np
import pytest

from repro import backend as _backend
from repro.attacks.decoder import decode_images, extract_weight_vector
from repro.autograd import Tensor, no_grad
from repro.datasets.transforms import images_to_batch, normalize_batch
from repro.models import resnet8_tiny
from repro.pipeline import QuantizationConfig
from repro.pipeline.baselines import quantize_model_for_attack
from repro.quantization.base import apply_quantization
from repro.serve import ModelServer, ServeConfig, load_artifact, save_artifact

KW = dict(num_classes=6, in_channels=3, width=8)  # tests/conftest.py builder
SHAPE = (3, 16, 16)

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()


@pytest.fixture(scope="module")
def released(trained_attack, tmp_path_factory):
    """The session's attacked model, TCQ-quantized at 3 bits and saved."""
    result = trained_attack["result"]
    model = resnet8_tiny(**KW)
    model.load_state_dict({name: np.array(value, copy=True)
                           for name, value in result.model.state_dict().items()})
    model.eval()
    active = [group for group in result.groups if group.payload is not None]
    names = [name for group in active for name in group.param_names]
    quantization = quantize_model_for_attack(
        model, QuantizationConfig(bits=3, method="target_correlated",
                                  finetune_epochs=0),
        target_images=result.payload.images, encoding_names=names)
    apply_quantization(model, quantization)
    path = tmp_path_factory.mktemp("released") / "tcq3"
    save_artifact(model, path, "resnet8_tiny", model_kwargs=KW,
                  input_shape=SHAPE,
                  quantization={"bits": 3, "method": "target_correlated"},
                  seed=0)
    batch = images_to_batch(trained_attack["test"].images[:5])
    batch, _, _ = normalize_batch(batch, result.mean, result.std)
    inputs = np.ascontiguousarray(batch, dtype=np.float32)
    return str(path), model, active, inputs


def decode_all(model, groups):
    return [decode_images(extract_weight_vector(model, group.param_names),
                          group.payload)
            for group in groups]


def test_loaded_artifact_decodes_identically(released):
    path, model, groups, _ = released
    loaded, artifact = load_artifact(path)
    assert artifact.quantization == {"bits": 3, "method": "target_correlated"}
    in_process = decode_all(model, groups)
    from_artifact = decode_all(loaded, groups)
    assert len(in_process) == len(groups) > 0
    for want, got in zip(in_process, from_artifact):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("start_method", [
    "spawn",  # ShardPool degrades spawn to in-process (serial) shards
    pytest.param("fork", marks=pytest.mark.skipif(
        not HAVE_FORK, reason="fork start method unavailable")),
])
def test_served_outputs_equal_in_process_forward(released, start_method):
    path, model, _, inputs = released
    with _backend.use_backend("fast"), no_grad():
        direct = np.asarray(model(Tensor(inputs)).data)

    async def _go():
        config = ServeConfig(start_method=start_method, backend="fast")
        async with ModelServer({"released": path}, config=config) as server:
            whole = await server.infer(inputs=inputs)
            # awaited one at a time, so each runs as its own batch of one
            single = [await server.infer(inputs=inputs[i:i + 1])
                      for i in range(2)]
            return whole, single

    whole, single = asyncio.run(_go())
    assert whole.ok, whole.error
    assert whole.batch_size == 1
    np.testing.assert_array_equal(whole.outputs, direct)
    for i, response in enumerate(single):
        assert response.ok, response.error
        with _backend.use_backend("fast"), no_grad():
            row = np.asarray(model(Tensor(inputs[i:i + 1])).data)
        np.testing.assert_array_equal(response.outputs, row)

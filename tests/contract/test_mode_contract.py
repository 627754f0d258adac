"""One contract for the whole attack flow across execution modes.

The golden configuration -- 120-image synthetic CIFAR (seed 11),
resnet8_tiny width 8, 6 epochs at rates (0, 20), Algorithm 1 (TCQ) at
4 bits, 1 fine-tune epoch -- runs once per mode of
:mod:`tests.contract.modes` (the session cache ``runs`` of
``tests/conftest.py``).  ``RELATIONS`` is the whole contract: each row
compares one mode against another mode, the seed or the golden
numbers, under one relation:

* ``bitwise``  -- equal bit for bit: accuracies, reconstructions,
  weights and, where both runs have them, logits;
* ``allclose`` -- per-epoch task loss within ``rtol``;
* ``band``     -- every ``GOLDEN`` number within its band, at most 16
  levels per quantized layer, and a DDP run really ran data-parallel
  and cleaned up after itself.

The paper's ten claims are the fourth relation, ``paper-band``:
``tests/paper/`` asserts them at ``fast/f32``, and
``benchmarks/test_paper_claims.py`` runs the same tests at ``ref/f64``
and ``fast/f32/ddp2``.  ``tests/integration/test_golden_pipeline.py``
and ``tests/serve/test_released_exactness.py`` assert single parts of
the ``ref/f32`` band row and the ``served`` bitwise row under their own
names; every bound stays here.

Bands are wide enough to absorb BLAS/platform float drift and per-rank
batch-norm statistics (DDP without sync-BN), but far tighter than any
behavioural change: a broken encoder, decoder, quantizer or trainer
moves these numbers by multiples of the band.
"""

from __future__ import annotations

import asyncio
import hashlib
import multiprocessing
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np
import pytest

from repro.attacks.layerwise import group_by_layer_ranges
from repro.autograd import Tensor, no_grad
from repro.datasets import SyntheticCifarConfig, make_synthetic_cifar, train_test_split
from repro.datasets.transforms import images_to_batch, normalize_batch
from repro.metrics.psnr import batch_psnr
from repro.models import encodable_parameters, resnet8_tiny
from repro.nn.module import Module
from repro.parallel import ddp
from repro.pipeline import (
    AttackConfig,
    QuantizationConfig,
    TrainingConfig,
    run_quantized_correlation_attack,
)
from repro.pipeline.attack_flow import AttackFlowResult
from repro.pipeline.evaluation import AttackEvaluation, evaluate_attack
from repro.serve import ModelServer, ServeConfig, load_artifact, save_artifact
from repro.telemetry.metrics import default_registry
from tests.contract.modes import MODES, Mode, use_mode

MODEL_KWARGS = dict(num_classes=4, in_channels=3, width=8)
INPUT_SHAPE = (3, 16, 16)
LAYER_RANGES = ((1, 3), (4, -1))
RATES = (0.0, 20.0)
BITS = 4

# The golden numbers, each ``(expected, band)``.
GOLDEN = {
    "encoded_images": (23, 0),     # exact: pure capacity arithmetic
    "uncompressed_accuracy": (0.9167, 0.10),
    "quantized_accuracy": (0.9583, 0.10),
    "quantized_ssim": (0.1944, 0.05),
    "quantized_psnr": (14.40, 1.50),
    "quantized_mape": (39.43, 6.0),
    "recognized_count": (18, 5),
}
# sha256 over the sorted state_dict (each name, then its bytes) of the
# released ref/f64 model, unchanged since the seed commit.
SEED_DIGEST = "9c704f3d5e8664e0"

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()
# ShardPool degrades spawn to in-process (serial) shards
START_METHODS = ("spawn", "fork") if HAVE_FORK else ("spawn",)


@dataclass(frozen=True)
class Relation:
    mode: str
    against: str            # a mode, "seed" or "golden"
    kind: str               # "bitwise" | "allclose" | "band"
    rtol: float = 0.0

    def __str__(self) -> str:
        rtol = f"({self.rtol:g})" if self.kind == "allclose" else ""
        return f"{self.mode}~{self.against}:{self.kind}{rtol}"


RELATIONS = (
    Relation("ref/f64", "seed", "bitwise"),
    Relation("fast/f32/ddp1", "fast/f32", "bitwise"),
    Relation("fast/f32/ddp2", "fast/f32/ddp2", "bitwise"),   # a rerun
    Relation("fast/f32/served", "fast/f32", "bitwise"),
    Relation("fast/f32", "ref/f32", "allclose", rtol=1e-4),
    Relation("ref/f32", "ref/f64", "allclose", rtol=1e-3),
    *(Relation(name, "golden", "band") for name in MODES),
)


@dataclass
class Run:
    """What one mode's golden run leaves to compare."""

    model: Module                       # the released model
    uncompressed: AttackEvaluation
    quantized: AttackEvaluation
    task_loss: list
    logits: Dict[str, np.ndarray]       # probe inputs -> logits
    ddp: Dict[str, float] = field(default_factory=dict)
    result: Optional[AttackFlowResult] = None   # in-process runs only


def golden_data():
    data = make_synthetic_cifar(
        SyntheticCifarConfig(num_images=120, num_classes=4, image_size=16, seed=11)
    )
    return train_test_split(data, test_fraction=0.2, seed=0)


def golden_attack(mode: Mode):
    train, test = golden_data()
    return run_quantized_correlation_attack(
        train, test,
        lambda: resnet8_tiny(**MODEL_KWARGS, rng=np.random.default_rng(7)),
        TrainingConfig(epochs=6, batch_size=32, lr=0.08, seed=0),
        AttackConfig(layer_ranges=LAYER_RANGES, rates=RATES, std_window=8.0),
        QuantizationConfig(bits=BITS, method="target_correlated",
                           finetune_epochs=1),
        backend=mode.backend, dtype=mode.dtype, ddp_workers=mode.ddp_workers,
    )


def probe_inputs(result) -> np.ndarray:
    _, test = golden_data()
    batch, _, _ = normalize_batch(images_to_batch(test.images[:5]),
                                  result.mean, result.std)
    return np.ascontiguousarray(batch, dtype=np.float32)


def forward_logits(model, inputs) -> Dict[str, np.ndarray]:
    """The no-grad forward of the whole probe batch and of rows 0 and 1
    alone (the shapes the server sees in ``served_logits``)."""
    with no_grad():
        return {key: np.asarray(model(Tensor(x)).data) for key, x in
                (("whole", inputs), ("row0", inputs[0:1]),
                 ("row1", inputs[1:2]))}


def served_logits(path, inputs, start_method) -> Dict[str, np.ndarray]:
    async def _go():
        config = ServeConfig(start_method=start_method, backend="fast")
        async with ModelServer({"released": path}, config=config) as server:
            whole = await server.infer(inputs=inputs)
            # awaited one at a time, so each runs as its own batch of one
            single = [await server.infer(inputs=inputs[i:i + 1])
                      for i in range(2)]
            return whole, single

    whole, single = asyncio.run(_go())
    for response in (whole, *single):
        assert response.ok, response.error
    assert whole.batch_size == 1
    return {"whole": whole.outputs, "row0": single[0].outputs,
            "row1": single[1].outputs}


DDP_COUNTERS = ("ddp.worker_steps", "ddp.steps", "ddp.bytes_moved")
DDP_HISTOGRAMS = ("ddp.allreduce_s", "ddp.barrier_wait_s")
DDP_GAUGES = ("ddp.workers", "ddp.shm_segments", "ddp.tape_saved_bytes",
              "ddp.tape_peak_live_bytes")


def ddp_readings() -> Dict[str, float]:
    """Counters and histogram counts (to difference), gauges as read."""
    registry = default_registry()
    readings = {name: registry.counter(name).value for name in DDP_COUNTERS}
    readings.update({name: registry.histogram(name).count
                     for name in DDP_HISTOGRAMS})
    readings.update({name: registry.gauge(name).value for name in DDP_GAUGES})
    return readings


class Runs:
    """Each mode's golden run, computed on first use."""

    def __init__(self, tmp_path_factory) -> None:
        self._tmp = tmp_path_factory
        self._runs: Dict[str, Run] = {}

    def __getitem__(self, name: str) -> Run:
        if name not in self._runs:
            self._runs[name] = self.run(MODES[name])
        return self._runs[name]

    def run(self, mode: Mode) -> Run:
        if mode.served:
            return self._served(mode)
        if mode.ddp_workers and mode.ddp_workers > 1 and not ddp.available():
            pytest.skip("fork start method unavailable")
        before = ddp_readings()
        result = golden_attack(mode)
        after = ddp_readings()
        readings = {name: after[name] - before[name]
                    for name in DDP_COUNTERS + DDP_HISTOGRAMS}
        readings.update({name: after[name] for name in DDP_GAUGES})
        with use_mode(mode.name):
            logits = forward_logits(result.model, probe_inputs(result))
        return Run(model=result.model, uncompressed=result.uncompressed,
                   quantized=result.quantized,
                   task_loss=list(result.history.task_loss),
                   logits=logits, ddp=readings, result=result)

    def _served(self, mode: Mode) -> Run:
        """Release the base mode's model, reload it, evaluate and serve it."""
        base = self[mode.base]
        result = base.result
        path = self._tmp.mktemp("released") / "golden"
        save_artifact(result.model, path, "resnet8_tiny",
                      model_kwargs=MODEL_KWARGS, input_shape=INPUT_SHAPE,
                      quantization={"bits": BITS, "method": "target_correlated"},
                      seed=0)
        loaded, artifact = load_artifact(path)
        assert artifact.quantization == {"bits": BITS,
                                         "method": "target_correlated"}
        loaded.eval()
        # the same groups and payloads, over the loaded weights
        groups = group_by_layer_ranges(loaded, LAYER_RANGES, RATES)
        for group, source in zip(groups, result.groups):
            group.payload = source.payload
        _, test = golden_data()
        test_batch, _, _ = normalize_batch(images_to_batch(test.images),
                                           result.mean, result.std)
        inputs = probe_inputs(result)
        with use_mode(mode.base):
            quantized = evaluate_attack(loaded, test_batch, test.labels,
                                        groups=groups, mean=result.mean,
                                        std=result.std)
            logits = {f"{start}:{key}": value
                      for start in START_METHODS
                      for key, value in served_logits(str(path), inputs,
                                                      start).items()}
        return Run(model=loaded, uncompressed=base.uncompressed,
                   quantized=quantized, task_loss=base.task_loss,
                   logits=logits)


def weights_digest(model) -> str:
    state = model.state_dict()
    digest = hashlib.sha256()
    for name in sorted(state):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(state[name]).tobytes())
    return digest.hexdigest()


def assert_same_evaluation(run: Run, other: Run) -> None:
    assert run.uncompressed.accuracy == other.uncompressed.accuracy
    assert run.quantized.accuracy == other.quantized.accuracy
    np.testing.assert_array_equal(run.quantized.reconstructions,
                                  other.quantized.reconstructions)
    np.testing.assert_array_equal(run.quantized.recognizable,
                                  other.quantized.recognizable)


def assert_same_weights(run: Run, other: Run) -> None:
    state, other_state = run.model.state_dict(), other.model.state_dict()
    assert sorted(state) == sorted(other_state)
    for name in state:
        np.testing.assert_array_equal(state[name], other_state[name],
                                      err_msg=name)


def assert_same_logits(run: Run, other: Run, start_method: str = "") -> None:
    """A served run's logits are keyed ``start_method:probe``; pass
    ``start_method`` to compare only that shard kind's."""
    prefix = f"{start_method}:" if start_method else ""
    keys = [key for key in run.logits if key.startswith(prefix)]
    assert keys or not run.logits, start_method
    for key in keys:
        np.testing.assert_array_equal(
            run.logits[key], other.logits[key.rsplit(":", 1)[-1]], err_msg=key)


def assert_bitwise(run: Run, other: Run) -> None:
    assert_same_evaluation(run, other)
    assert_same_weights(run, other)
    assert_same_logits(run, other)


def within(value, name: str) -> bool:
    expected, band = GOLDEN[name]
    return abs(value - expected) <= band


def assert_capacity(run: Run) -> None:
    assert within(run.quantized.encoded_images, "encoded_images")


def assert_accuracy(run: Run) -> None:
    assert within(run.uncompressed.accuracy, "uncompressed_accuracy")
    assert within(run.quantized.accuracy, "quantized_accuracy")


def assert_reconstruction(run: Run) -> None:
    quant = run.quantized
    assert within(quant.mean_ssim, "quantized_ssim")
    assert within(quant.mean_mape, "quantized_mape")
    psnr = batch_psnr(quant.originals, quant.reconstructions)
    assert np.isfinite(psnr).all()
    assert within(float(psnr.mean()), "quantized_psnr")


def assert_recognizability(run: Run) -> None:
    assert within(run.quantized.recognized_count, "recognized_count")


def assert_levels(run: Run) -> None:
    for name, param in encodable_parameters(run.model):
        assert len(np.unique(param.data)) <= 2 ** BITS, name


BAND_PARTS = (assert_capacity, assert_accuracy, assert_reconstruction,
              assert_recognizability, assert_levels)


def assert_in_band(run: Run, mode: Mode) -> None:
    for part in BAND_PARTS:
        part(run)
    if mode.ddp_workers and mode.ddp_workers > 1:
        # the run really was data-parallel, and it cleaned up after itself
        assert run.ddp["ddp.workers"] == float(mode.ddp_workers)
        assert run.ddp["ddp.shm_segments"] == 0.0
        for name in DDP_COUNTERS + DDP_HISTOGRAMS:
            assert run.ddp[name] > 0, name
        assert run.ddp["ddp.tape_saved_bytes"] > 0
        assert run.ddp["ddp.tape_peak_live_bytes"] > 0


def check(relation: Relation, runs: Runs) -> None:
    run = runs[relation.mode]
    if relation.kind == "band":
        assert_in_band(run, MODES[relation.mode])
    elif relation.against == "seed":
        digest = weights_digest(run.model)
        assert digest.startswith(SEED_DIGEST), digest
    elif relation.kind == "bitwise":
        other = (runs.run(MODES[relation.against])
                 if relation.against == relation.mode else runs[relation.against])
        assert_bitwise(run, other)
    else:
        np.testing.assert_allclose(run.task_loss,
                                   runs[relation.against].task_loss,
                                   rtol=relation.rtol)


def _is_slow(relation: Relation) -> bool:
    """Rows that need a reference or multi-rank run: tier-1 runs them,
    the ``-m "not slow"`` split does not."""
    modes = [MODES[name] for name in (relation.mode, relation.against)
             if name in MODES]
    return any(mode.backend == "reference" or (mode.ddp_workers or 0) > 1
               for mode in modes)


@pytest.mark.parametrize("relation", [
    pytest.param(relation, id=str(relation),
                 marks=[pytest.mark.slow] if _is_slow(relation) else [])
    for relation in RELATIONS
])
def test_contract(relation, runs):
    check(relation, runs)

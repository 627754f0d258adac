"""The three benchmark workloads, each driven through a user entry point.

* ``attack_flow`` -- :func:`run_quantized_correlation_attack`, the whole
  Fig. 1 flow with DDP training (the DDP runtime);
* ``release_grid`` -- :meth:`Sweep.run` over quantizer x bit width on one
  attacked model (the WorkerPool runtime);
* ``serve`` -- :meth:`ModelServer.infer` over a released 3-bit artifact
  (the ShardPool runtime).

Each workload has one life cycle: ``setup()`` (repeatable; returns the
seconds of each set-up part), ``measure(seconds)`` for the untraced
end-to-end metrics, ``trace(clock)`` to install its layer wrappers and
``traced(seconds)`` for the per-layer metrics, then ``close()``.
Training and evaluation pass the ``fast`` backend and float32
explicitly; serving runs ``ServeConfig`` defaults.

Every workload reports the same metric names (``BENCHMARK.json``), each
measured on the workload's own unit of work -- a flow, a whole grid, a
request:

* ``latency_ms`` -- median wall time of one flow / one grid / one
  ``low``-phase request (p50, from its due time);
* ``throughput_per_s`` -- flows per second / grid points per second /
  ``burst`` requests per second;
* ``kernel.{conv,batchnorm,other}_s``, ``kernel.calls``,
  ``kernel.bytes`` -- backend kernels per unit;
* ``compute_s`` -- the main compute stage per unit: rank-0 training
  epochs / pool busy time (the sum of task durations) / shard handler;
* ``parallel.overhead_s`` -- what the fork runtime adds per unit: the
  DDP all-reduce with its barrier waits / pool idle time
  (``parallel x wall - busy``) / shard IPC (round trip minus handler).

Each workload's own figures (``flow_s``, ``q_ssim``, ``grid_s``,
``low.latency_p99_ms``, the per-layer rows, ...) go into ``detail``.
"""

from __future__ import annotations

import asyncio
import shutil
import statistics
import tempfile
import time
import weakref
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import backend as _backend
from repro import precision as _precision
from repro.attacks.layerwise import group_by_layer_ranges
from repro.autograd import Tensor, no_grad
from repro.datasets.splits import train_test_split
from repro.datasets.synthetic_cifar import SyntheticCifarConfig, make_synthetic_cifar
from repro.datasets.transforms import images_to_batch, normalize_batch
from repro.models import resnet8_tiny
from repro.parallel.shards import ShardPool
from repro.pipeline import attack_flow as _attack_flow
from repro.pipeline import baselines as _baselines
from repro.pipeline import evaluation as _evaluation
from repro.pipeline import trainer as _trainer
from repro.pipeline.config import AttackConfig, QuantizationConfig, TrainingConfig
from repro.pipeline.sweep import ERROR_KEY, Sweep
from repro.quantization import base as _qbase
from repro.quantization.target_correlated import detect_flip
from repro.serve import (LoadGenConfig, ModelServer, ServeConfig, generate_trace,
                         save_artifact)
from repro.telemetry.metrics import default_registry

from layers import LayerClock, counters, delta, render_table, split
from openloop import Phase, drive

BACKEND = "fast"
DTYPE = "float32"
MODEL_KWARGS = {"num_classes": 10, "in_channels": 3, "width": 8}
ATTACK = AttackConfig(layer_ranges=((1, 2), (3, 4), (5, -1)),
                      rates=(0.0, 0.0, 20.0), std_window=8.0)
IMAGES = 600          # synthetic CIFAR geometry: 32x32x3, 10 classes
EPOCHS = 3
BATCH = 32
LR = 0.08
DDP_WORKERS = 2

#: attack_flow runs cycle over this many sub-seeds of the run seed; the
#: q_* metrics average one cycle and later flows must repeat it bitwise.
FLOW_SUBSEEDS = 5
#: Bands every released model must fall in, for any seed.
FLOW_BANDS = {"q_ssim": (0.40, 1.0), "q_accuracy": (0.60, 1.0)}
#: The run-level q_* metrics recorded at the default seed, with room for
#: float32 numerics to drift a little between versions of the program.
DEFAULT_SEED = 0
DEFAULT_SEED_BANDS = {"q_ssim": (0.7001 - 0.03, 0.7001 + 0.03),
                      "q_accuracy": (0.9500 - 0.03, 0.9500 + 0.03)}

GRID_METHODS = ("weighted_entropy", "target_correlated", "uniform", "kmeans")
GRID_BITS = (2, 3, 4)
GRID_PARALLEL = 2

LOW_RATE = 100.0      # req/s, about 8% of capacity
LOW_SHARE = 0.7       # share of the measured seconds spent in the low phase
BURST = 480           # requests all due at once; fits queue_capacity 512
CHECK_IMAGES = 32

TRAIN_KERNELS = ("conv2d_forward", "conv2d_backward", "im2col", "matmul",
                 "batchnorm_stats", "batchnorm_train_forward",
                 "batchnorm_train_backward", "relu", "add", "mul", "sgd_update")
INFER_KERNELS = ("conv2d_infer", "batchnorm_infer")


def subseed(seed: int, index: int) -> int:
    """Independent 32-bit seed number ``index`` derived from ``seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def cifar_split(seed: int):
    data = make_synthetic_cifar(SyntheticCifarConfig(num_images=IMAGES, seed=seed))
    return train_test_split(data, test_fraction=0.2, seed=seed)


def make_model(seed: int):
    return lambda: resnet8_tiny(rng=np.random.default_rng(seed), **MODEL_KWARGS)


def training(seed: int) -> TrainingConfig:
    return TrainingConfig(epochs=EPOCHS, batch_size=BATCH, lr=LR, seed=seed)


def since(start: float) -> float:
    return time.perf_counter() - start


def quantize_name(model, config, *args, **kwargs) -> str:
    return f"quantization.{config.method}.quantize"


@dataclass
class Measured:
    """What one measurement produced."""

    metrics: Dict[str, float] = field(default_factory=dict)   # BENCHMARK.json's
    detail: Dict[str, float] = field(default_factory=dict)    # the workload's own
    unit_times: List[float] = field(default_factory=list)  # flows/grids/bursts
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    tables: List[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)

    def check(self, ok: bool, message: str) -> bool:
        """Count one output check; a failed one is a failed operation."""
        self.attempted += 1
        if not ok:
            self.fail(message)
        return ok


def kernel_metrics(kernels: Dict[str, Dict[str, float]], per: float,
                   names: Sequence[str]) -> Dict[str, float]:
    """``backend.<k>.{s,calls,bytes}`` per unit, plus ``backend.other.s``."""
    out: Dict[str, float] = {}
    for kernel in names:
        stat = kernels.get(kernel, {})
        for fld in ("s", "calls", "bytes"):
            out[f"backend.{kernel}.{fld}"] = stat.get(fld, 0.0) / per
    out["backend.other.s"] = sum(
        stat.get("s", 0.0) for kernel, stat in kernels.items()
        if kernel not in names) / per
    return out


def kernel_groups(kernels: Dict[str, Dict[str, float]],
                  per: float) -> Dict[str, float]:
    """The shared ``kernel.*`` per-layer metrics, per unit of work."""
    out = {"kernel.conv_s": 0.0, "kernel.batchnorm_s": 0.0,
           "kernel.other_s": 0.0, "kernel.calls": 0.0, "kernel.bytes": 0.0}
    for kernel, stat in kernels.items():
        if kernel.startswith("conv2d") or kernel in ("im2col", "col2im"):
            group = "conv"
        elif kernel.startswith("batchnorm"):
            group = "batchnorm"
        else:
            group = "other"
        out[f"kernel.{group}_s"] += stat.get("s", 0.0) / per
        out["kernel.calls"] += stat.get("calls", 0.0) / per
        out["kernel.bytes"] += stat.get("bytes", 0.0) / per
    return out


def layer_rows(layers: Dict[str, Dict[str, float]],
               kernels: Dict[str, Dict[str, float]],
               per: float) -> List[Tuple[str, float]]:
    rows = [(f"backend.{k}", v.get("s", 0.0) / per) for k, v in kernels.items()]
    return rows + [(name, v.get("s", 0.0) / per) for name, v in layers.items()]


def layer_s(layers: Dict[str, Dict[str, float]], name: str, per: float) -> float:
    return layers.get(name, {}).get("s", 0.0) / per


def finish_tables(got: Measured, tables) -> None:
    """Render ``(title, rows, total, weight)`` tables and record the
    weighted share of their totals that no row covers."""
    unattributed = whole = 0.0
    for title, rows, total, weight in tables:
        got.tables.append(render_table(title, rows, total))
        unattributed += weight * (total - sum(v for _, v in rows))
        whole += weight * total
    got.metrics["unattributed_frac"] = unattributed / whole


# --------------------------------------------------------------------------
# attack_flow
# --------------------------------------------------------------------------


class AttackFlow:
    """The full Fig. 1 flow: Eq. 2 training at DDP world 2, Algorithm 1 at
    3 bits, one fine-tune epoch and both evaluations."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.splits: List[Any] = []
        self.quantization = QuantizationConfig(
            bits=3, method="target_correlated", finetune_epochs=1)
        self._first: Dict[int, Dict[str, float]] = {}
        # every Trainer the flows build, so close() can stop its workers
        self._trainers: "weakref.WeakSet" = weakref.WeakSet()
        self._trainer_init = _trainer.Trainer.__dict__["__init__"]
        original, trainers = self._trainer_init, self._trainers

        def init(trainer, *args, **kwargs):
            original(trainer, *args, **kwargs)
            trainers.add(trainer)

        _trainer.Trainer.__init__ = init

    def setup(self) -> Dict[str, float]:
        start = time.perf_counter()
        self.splits = [cifar_split(subseed(self.seed, j))
                       for j in range(FLOW_SUBSEEDS)]
        data_s = since(start)
        start = time.perf_counter()
        self._warm_up()
        return {"setup.data_s": data_s, "setup.warmup_s": since(start)}

    def _warm_up(self) -> None:
        """One short serial epoch fills the fast backend's index caches."""
        train, _ = self.splits[0]
        batch, _, _ = normalize_batch(images_to_batch(train.images[:2 * BATCH]))
        with _backend.use_backend(BACKEND), _precision.use_dtype(DTYPE):
            trainer = _trainer.Trainer(
                make_model(0)(), batch, train.labels[:2 * BATCH],
                TrainingConfig(epochs=1, batch_size=BATCH, lr=LR),
                ddp_workers=1)
            trainer.train()

    def _flow(self, index: int) -> Dict[str, float]:
        j = index % FLOW_SUBSEEDS
        train, test = self.splits[j]
        seed = subseed(self.seed, j)
        workers = default_registry().gauge("ddp.workers")
        workers.set(0.0)
        start = time.perf_counter()
        result = _attack_flow.run_quantized_correlation_attack(
            train, test, make_model(seed), training(seed), ATTACK,
            self.quantization, backend=BACKEND, dtype=DTYPE,
            ddp_workers=DDP_WORKERS)
        return {"flow_s": since(start), "q_ssim": result.quantized.mean_ssim,
                "q_accuracy": result.quantized.accuracy,
                "ddp_workers": workers.snapshot()}

    def _check(self, index: int, out: Dict[str, float], got: Measured) -> None:
        if not got.check(out["ddp_workers"] == DDP_WORKERS,
                         f"flow {index}: ddp.workers gauge read "
                         f"{out['ddp_workers']}, not {DDP_WORKERS}"):
            return
        for metric, (lo, hi) in FLOW_BANDS.items():
            got.check(lo <= out[metric] <= hi,
                      f"flow {index}: {metric}={out[metric]:.4f} outside "
                      f"[{lo}, {hi}]")
        first = self._first.setdefault(index % FLOW_SUBSEEDS, out)
        got.check(all(first[m] == out[m] for m in FLOW_BANDS),
                  f"flow {index}: quality differs from an earlier flow on "
                  f"the same sub-seed")

    def _run(self, seconds: float, minimum: int) -> Tuple[Measured, List[dict]]:
        got, outs = Measured(), []
        start = time.perf_counter()
        while len(outs) < minimum or since(start) < seconds:
            out = self._flow(len(outs))
            self._check(len(outs), out, got)
            outs.append(out)
            got.unit_times.append(out["flow_s"])
        return got, outs

    def timed(self, seconds: float) -> Measured:
        return self._run(seconds, 1)[0]

    def measure(self, seconds: float) -> Measured:
        got, outs = self._run(seconds, FLOW_SUBSEEDS)
        flow_s = statistics.median(got.unit_times)
        got.metrics = {"latency_ms": flow_s * 1e3, "throughput_per_s": 1.0 / flow_s}
        got.detail["flow_s"] = flow_s
        for metric in FLOW_BANDS:
            got.detail[metric] = float(np.mean(
                [o[metric] for o in outs[:FLOW_SUBSEEDS]]))
        if self.seed == DEFAULT_SEED:
            for metric, (lo, hi) in DEFAULT_SEED_BANDS.items():
                got.check(lo <= got.detail[metric] <= hi,
                          f"{metric}={got.detail[metric]:.4f} outside the "
                          f"default-seed band [{lo:.4f}, {hi:.4f}]")
        return got

    def trace(self, clock: LayerClock) -> None:
        from repro.attacks.layerwise import LayerwiseCorrelationPenalty
        from repro.autograd.tensor import Tensor as _Tensor
        from repro.nn.dataloader import DataLoader, ShardedDataLoader
        from repro.nn.optim import SGD
        from repro.parallel.ddp import DDPContext

        clock.hook_kernels()
        clock.patch(_trainer.StepRunner, "forward_backward", "autograd.forward")
        clock.patch(_Tensor, "backward", "autograd.backward")
        clock.patch(LayerwiseCorrelationPenalty, "__call__", "attacks.penalty")
        clock.patch(SGD, "step", "nn.optim.step")
        clock.patch(DataLoader, "__iter__", "nn.dataloader.wait", iterator=True)
        clock.patch(ShardedDataLoader, "iter_meta", "nn.dataloader.wait",
                    iterator=True)
        clock.patch(_attack_flow, "finetune_quantized", "quantization.finetune")
        clock.patch(_attack_flow, "evaluate_attack", "pipeline.evaluate")
        clock.patch(_attack_flow, "apply_quantization", "quantization.apply")
        clock.patch(_baselines, "quantize_model_for_attack", quantize_name)

        registry = default_registry()
        end_epoch = DDPContext.__dict__["end_epoch"]

        def end_epoch_totals(ctx):
            summary = end_epoch(ctx)
            for key in ("allreduce_s", "barrier_s", "bytes_moved"):
                registry.counter(f"perfbench.ddp.{key}").inc(float(summary[key]))
            return summary

        started: "weakref.WeakSet" = weakref.WeakSet()

        def begin_name(ctx, *args, **kwargs) -> str:
            if ctx in started:
                return "parallel.ddp.begin_epoch"
            started.add(ctx)
            return "parallel.ddp.fork"   # the first epoch forks the ranks

        clock.replace(DDPContext, "end_epoch", end_epoch_totals)
        clock.patch(DDPContext, "end_epoch", "parallel.ddp.end_epoch")
        clock.patch(DDPContext, "begin_epoch", begin_name)
        clock.patch(DDPContext, "finish_step", "parallel.ddp.finish_step")
        clock.patch(DDPContext, "shutdown", "parallel.ddp.shutdown")

    def traced(self, seconds: float) -> Measured:
        from repro.autograd.planner import last_tape_stats

        epoch_timer = default_registry().timer("trainer.epoch_s")
        before, train_before = counters(), epoch_timer.total
        got, _ = self._run(seconds, 1)
        moved = delta(before)
        train_s = epoch_timer.total - train_before
        layers, kernels = split(moved)
        flows = float(len(got.unit_times))
        m = kernel_metrics(kernels, flows, TRAIN_KERNELS + INFER_KERNELS)
        m["autograd.backward_self_s"] = layer_s(layers, "autograd.backward", flows)
        for name in ("attacks.penalty", "nn.optim.step", "nn.dataloader.wait",
                     "quantization.finetune", "pipeline.evaluate"):
            m[f"{name}_s"] = layer_s(layers, name, flows)
        m["quantization.target_correlated.quantize_s"] = layer_s(
            layers, "quantization.target_correlated.quantize", flows)
        tape = last_tape_stats()
        m["autograd.planner.peak_saved_bytes"] = float(
            tape.peak_live_bytes if tape is not None else 0)
        m["pipeline.trainer.images_per_s"] = moved.get("trainer.images", 0.0) / train_s
        for key, name in (("allreduce_s", "allreduce_s"),
                          ("barrier_s", "barrier_wait_s"),
                          ("bytes_moved", "bytes_moved")):
            m[f"parallel.ddp.{name}"] = moved.get(f"perfbench.ddp.{key}", 0.0) / flows
        m["parallel.ddp.fork_s"] = layer_s(layers, "parallel.ddp.fork", flows)
        got.detail = m
        got.metrics = kernel_groups(kernels, flows)
        got.metrics["compute_s"] = train_s / flows
        got.metrics["parallel.overhead_s"] = m["parallel.ddp.allreduce_s"]
        # the all-reduce runs inside rank0_step, which no wrapper encloses
        rows = layer_rows(layers, kernels, flows)
        rows.append(("parallel.ddp.allreduce", m["parallel.ddp.allreduce_s"]))
        finish_tables(got, [(f"attack_flow: self time per flow, mean of "
                             f"{int(flows)} traced flows",
                             rows, float(np.mean(got.unit_times)), 1.0)])
        return got

    def close(self) -> None:
        for trainer in list(self._trainers):
            trainer.close()
        _trainer.Trainer.__init__ = self._trainer_init


# --------------------------------------------------------------------------
# release_grid
# --------------------------------------------------------------------------


@dataclass
class Released:
    """One attacked model, trained in set-up, and what its grid needs."""

    model: Any
    state: Dict[str, np.ndarray]
    groups: List[Any]
    payload: Any
    mean: np.ndarray
    std: np.ndarray
    test_batch: np.ndarray
    test_labels: np.ndarray
    names: List[str]
    flip: bool


class ReleaseGrid:
    """Every quantizer x bit width released from an attacked model, with no
    fine-tune, through ``Sweep.run(parallel=2)``.

    Each set-up repetition trains one attacked model on its own sub-seed
    (so repeating set-up is not wasted); timed grids cycle over them and
    ``q_ssim_tcq`` averages every model, which steadies it across seeds.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.released: List[Released] = []
        self.current: Optional[Released] = None
        self._first: Dict[int, Dict[Tuple[str, int], Dict[str, float]]] = {}

    def setup(self) -> Dict[str, float]:
        seed = subseed(self.seed, len(self.released))
        start = time.perf_counter()
        train, test = cifar_split(seed)
        data_s = since(start)
        start = time.perf_counter()
        result = _attack_flow.run_quantized_correlation_attack(
            train, test, make_model(seed), training(seed), ATTACK,
            None, backend=BACKEND, dtype=DTYPE, ddp_workers=1)
        train_s = since(start)
        start = time.perf_counter()
        names: List[str] = []
        flip = False
        for group in result.groups:
            if group.payload is not None:
                if not names:
                    flip = detect_flip(group.weight_vector(),
                                       group.payload.secret_vector())
                names.extend(group.param_names)
        test_batch, _, _ = normalize_batch(images_to_batch(test.images),
                                           result.mean, result.std)
        self.current = Released(
            model=result.model,
            state={k: v.copy() for k, v in result.model.state_dict().items()},
            groups=result.groups, payload=result.payload, mean=result.mean,
            std=result.std, test_batch=test_batch, test_labels=test.labels,
            names=names, flip=flip)
        self.released.append(self.current)
        self.point("target_correlated", 3)   # warm the parent before forking
        return {"setup.data_s": data_s, "setup.train_s": train_s,
                "setup.warmup_s": since(start)}

    def point(self, method: str, bits: int) -> Dict[str, float]:
        """One grid point on the current model: restore, quantize, apply,
        evaluate."""
        config = QuantizationConfig(bits=bits, method=method, finetune_epochs=0)
        r = self.current
        with _backend.use_backend(BACKEND), _precision.use_dtype(DTYPE):
            r.model.load_state_dict(r.state)
            result = _baselines.quantize_model_for_attack(
                r.model, config, target_images=r.payload.images,
                flip=r.flip, encoding_names=r.names)
            _qbase.apply_quantization(r.model, result)
            evaluation = _evaluation.evaluate_attack(
                r.model, r.test_batch, r.test_labels, groups=r.groups,
                polarity=ATTACK.polarity, mean=r.mean, std=r.std)
        return {"ssim": evaluation.mean_ssim, "accuracy": evaluation.accuracy,
                "mape": evaluation.mean_mape}

    def _grid(self, index: int, got: Measured, telemetry: bool = False):
        which = index % len(self.released)
        self.current = self.released[which]   # forked workers inherit it
        sweep = Sweep({"method": list(GRID_METHODS), "bits": list(GRID_BITS)},
                      self.point, telemetry=telemetry)
        start = time.perf_counter()
        result = sweep.run(parallel=GRID_PARALLEL, backend=BACKEND)
        got.unit_times.append(since(start))
        points = {}
        for record in result.records:
            got.attempted += 1
            if ERROR_KEY in record:
                got.fail(f"{record['method']}@{record['bits']}: "
                         f"{record['error_kind']}: {record[ERROR_KEY]}")
            else:
                points[(record["method"], record["bits"])] = record
        first = self._first.setdefault(which, points)
        if first is points:
            for bits in (2, 3):   # Table I/III: Algorithm 1 beats WEQ
                tcq = points.get(("target_correlated", bits), {}).get("ssim", -1.0)
                weq = points.get(("weighted_entropy", bits), {}).get("ssim", 2.0)
                got.check(tcq >= weq, f"model {which}: {bits}-bit TCQ SSIM "
                                      f"{tcq:.4f} < WEQ SSIM {weq:.4f}")
        got.check(all(points.get(key, {}).get(m) == record[m]
                      for key, record in first.items()
                      for m in ("ssim", "accuracy", "mape")),
                  f"model {which}: grid records differ from its first grid's")
        return result

    def _run(self, seconds: float, minimum: int = 1, telemetry: bool = False):
        got, results = Measured(), []
        start = time.perf_counter()
        while len(results) < minimum or since(start) < seconds:
            results.append(self._grid(len(results), got, telemetry))
        return got, results

    def timed(self, seconds: float) -> Measured:
        return self._run(seconds)[0]

    def measure(self, seconds: float) -> Measured:
        got, _ = self._run(seconds, minimum=len(self.released))
        grid_s = statistics.median(got.unit_times)
        got.metrics = {"latency_ms": grid_s * 1e3,
                       "throughput_per_s": len(GRID_METHODS) * len(GRID_BITS) / grid_s}
        got.detail["grid_s"] = grid_s
        got.detail["q_ssim_tcq"] = float(np.mean(
            [self._first[which][("target_correlated", bits)]["ssim"]
             for which in range(len(self.released)) for bits in GRID_BITS]))
        return got

    def trace(self, clock: LayerClock) -> None:
        clock.hook_kernels()
        clock.patch(_baselines, "quantize_model_for_attack", quantize_name)
        clock.patch(_qbase, "apply_quantization", "quantization.apply")
        from repro.nn.module import Module
        clock.patch(Module, "load_state_dict", "nn.module.load_state")
        for attr, name in (("evaluate_accuracy", "metrics.accuracy"),
                           ("decode_groups", "attacks.decode"),
                           ("batch_ssim", "metrics.ssim"),
                           ("batch_mape", "metrics.mape"),
                           ("recognizable_mask", "metrics.recognizable")):
            clock.patch(_evaluation, attr, name)

    def traced(self, seconds: float) -> Measured:
        before = counters()
        got, results = self._run(seconds, telemetry=True)
        moved = delta(before)
        layers, kernels = split(moved)
        grids = float(len(results))
        busy = sum(r.get("duration_s", 0.0) for res in results
                   for r in res.records) / grids
        wall = float(np.mean(got.unit_times))
        m = kernel_metrics(kernels, grids, INFER_KERNELS)
        for method in GRID_METHODS:
            m[f"quantization.{method}.quantize_s"] = layer_s(
                layers, f"quantization.{method}.quantize", grids)
        for name in ("metrics.accuracy", "attacks.decode", "metrics.ssim",
                     "metrics.mape", "metrics.recognizable"):
            m[f"{name}_s"] = layer_s(layers, name, grids)
        m["parallel.pool.wall_s"] = wall
        m["parallel.pool.busy_s"] = busy
        m["parallel.pool.idle_frac"] = 1.0 - busy / (wall * GRID_PARALLEL)
        m["parallel.pool.retries"] = (moved.get("pool.worker_crashs", 0.0)
                                      + moved.get("pool.worker_timeouts", 0.0))
        got.detail = m
        got.metrics = kernel_groups(kernels, grids)
        got.metrics["compute_s"] = busy
        got.metrics["parallel.overhead_s"] = wall * GRID_PARALLEL - busy
        finish_tables(got, [(f"release_grid: self time per grid summed over "
                             f"workers (tiles pool busy time), mean of "
                             f"{int(grids)} traced grids",
                             layer_rows(layers, kernels, grids), busy, 1.0)])
        return got

    def close(self) -> None:
        self.released.clear()
        self.current = None


# --------------------------------------------------------------------------
# serve
# --------------------------------------------------------------------------


class Serve:
    """A released 3-bit TCQ artifact behind ``ModelServer`` defaults, driven
    open loop: a ``low`` phase at 100 req/s, then ``burst`` blocks."""

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.loop = asyncio.new_event_loop()
        self.server: Optional[ModelServer] = None
        self.config = ServeConfig()
        self._setups = 0

    def setup(self) -> Dict[str, float]:
        return self.loop.run_until_complete(self._setup())

    async def _setup(self) -> Dict[str, float]:
        await self._stop()
        start = time.perf_counter()
        data = make_synthetic_cifar(SyntheticCifarConfig(num_images=120,
                                                         seed=self.seed))
        targets = data.images[:8]
        batch, _, _ = normalize_batch(images_to_batch(data.images[8:8 + CHECK_IMAGES]))
        self.check_inputs = np.ascontiguousarray(batch, dtype=np.float32)
        data_s = since(start)
        start = time.perf_counter()
        self._setups += 1
        self.path = tempfile.mkdtemp(prefix=f"artifact{self._setups}-",
                                     dir=self.workdir)
        with _backend.use_backend(BACKEND), _precision.use_dtype(DTYPE):
            self.model = resnet8_tiny(rng=np.random.default_rng(self.seed),
                                      **MODEL_KWARGS)
            self.model.eval()
            groups = group_by_layer_ranges(self.model, ATTACK.layer_ranges,
                                           ATTACK.rates)
            names = [n for g in groups if g.rate > 0 for n in g.param_names]
            result = _baselines.quantize_model_for_attack(
                self.model, QuantizationConfig(bits=3, finetune_epochs=0),
                target_images=targets, encoding_names=names)
            _qbase.apply_quantization(self.model, result)
        save_artifact(self.model, self.path, "resnet8_tiny",
                      model_kwargs=MODEL_KWARGS, input_shape=(3, 32, 32),
                      quantization={"bits": 3, "method": "target_correlated"},
                      seed=self.seed)
        artifact_s = since(start)
        return {"setup.data_s": data_s, "setup.artifact_s": artifact_s,
                **(await self._start())}

    async def _start(self) -> Dict[str, float]:
        """Start the server and send one batch of every size 1..max_batch,
        so each batch shape is captured before timing."""
        start = time.perf_counter()
        self.server = ModelServer({"released": self.path}, self.config)
        await self.server.start()
        pool_start_s = since(start)
        start = time.perf_counter()
        for size in range(1, self.config.max_batch + 1):
            responses = await asyncio.gather(*[
                self.server.infer(input_seed=i) for i in range(size)])
            if not all(r.ok for r in responses):
                raise RuntimeError(f"warm-up request failed: {responses[0].error}")
        return {"setup.pool_start_s": pool_start_s,
                "setup.warmup_s": since(start)}

    async def _stop(self) -> None:
        if self.server is not None:
            server, self.server = self.server, None
            await server.close()

    def _phases(self, seconds: float, got: Measured):
        """Run both phases; returns them with the counters after each."""
        return self.loop.run_until_complete(self._drive(seconds, got))

    def check_served(self, got: Measured) -> None:
        self.loop.run_until_complete(self._check_served(got))

    async def _drive(self, seconds: float, got: Measured
                     ) -> Tuple[List[Phase], List[Dict[str, float]]]:
        start = time.perf_counter()
        marks = [counters()]
        n_low = max(1, int(round(LOW_RATE * LOW_SHARE * seconds)))
        trace = generate_trace(LoadGenConfig(seed=self.seed, n_requests=n_low,
                                             rate_rps=LOW_RATE))
        phases = [await drive(self.server, "low",
                              [e.arrival_s for e in trace],
                              [e.input_seed for e in trace])]
        marks.append(counters())
        rng = np.random.default_rng([self.seed, 1])
        while len(phases) < 2 or since(start) < seconds:
            phases.append(await drive(self.server, "burst", [0.0] * BURST,
                                      rng.integers(0, 2**31 - 1, size=BURST)))
            marks.append(counters())
        for phase in phases:
            got.attempted += phase.attempted
            got.failed += phase.failed
            kinds = sorted({getattr(r.response, "error_kind", "none")
                            for r in phase.requests if not r.ok})
            if kinds:
                got.problems.append(f"{phase.failed} {phase.name} requests "
                                    f"failed: {', '.join(kinds)}")
        got.unit_times = [1.0 / p.throughput() for p in phases[1:]]
        return phases, marks

    async def _check_served(self, got: Measured) -> None:
        """Served logits on real test images equal the in-process model's."""
        response = await self.server.infer(inputs=self.check_inputs)
        with _backend.use_backend(BACKEND), _precision.use_dtype(DTYPE), no_grad():
            expected = np.asarray(self.model(Tensor(self.check_inputs)).data)
        served = None if not response.ok else np.asarray(response.outputs)
        got.check(served is not None and served.shape == expected.shape
                  and np.array_equal(served.argmax(1), expected.argmax(1))
                  and np.allclose(served, expected, rtol=1e-4, atol=1e-5),
                  "served logits differ from the in-process quantized model")

    def _end_to_end(self, phases: List[Phase]) -> Dict[str, float]:
        low = [r.latency_ms for r in phases[0].ok()]
        return {
            "low.latency_p50_ms": float(np.percentile(low, 50)),
            "low.latency_p99_ms": float(np.percentile(low, 99)),
            "burst.throughput_per_s": statistics.median(
                [p.throughput() for p in phases[1:]]),
        }

    def timed(self, seconds: float) -> Measured:
        got = Measured()
        self._phases(seconds, got)
        return got

    def measure(self, seconds: float) -> Measured:
        got = Measured()
        phases, _ = self._phases(seconds, got)
        got.detail = self._end_to_end(phases)
        got.metrics = {"latency_ms": got.detail["low.latency_p50_ms"],
                       "throughput_per_s": got.detail["burst.throughput_per_s"]}
        self.check_served(got)
        return got

    def trace(self, clock: LayerClock) -> None:
        """Hook kernels, time shard round trips, and restart the server so
        its shard forks with the hook installed."""
        clock.hook_kernels()
        registry = default_registry()
        request = ShardPool.__dict__["request"]

        def timed_request(pool, payload, *args, **kwargs):
            start = time.perf_counter()
            result = request(pool, payload, *args, **kwargs)
            rows = float(len(payload["inputs"])) if isinstance(payload, dict) else 1.0
            registry.counter("perfbench.shards.rows").inc(rows)
            registry.counter("perfbench.shards.roundtrip_s").inc(
                rows * (time.perf_counter() - start))
            registry.counter("perfbench.shards.handler_s").inc(
                rows * result.duration_s)
            return result

        clock.replace(ShardPool, "request", timed_request)

        async def restart() -> None:
            await self._stop()
            await self._start()

        self.loop.run_until_complete(restart())

    def traced(self, seconds: float) -> Measured:
        got = Measured()
        phases, marks = self._phases(seconds, got)
        self.check_served(got)
        moved = delta(marks[0], marks[-1])
        layers, kernels = split(moved)
        requests = float(sum(p.attempted for p in phases))
        low = phases[0]
        m = kernel_metrics(kernels, requests, INFER_KERNELS)
        queue = [r.response.queue_ms for r in low.ok()]
        m["serve.low.queue_ms.p50"] = float(np.percentile(queue, 50))
        m["serve.low.queue_ms.p99"] = float(np.percentile(queue, 99))
        tables = []
        for label, group, after in (("low", phases[:1], marks[1]),
                                    ("burst", phases[1:], marks[-1])):
            done = [r for p in group for r in p.ok()]
            shard = delta(marks[0] if label == "low" else marks[1], after)
            rows = shard.get("perfbench.shards.rows", 0.0)
            handler = shard.get("perfbench.shards.handler_s", 0.0) / rows
            roundtrip = shard.get("perfbench.shards.roundtrip_s", 0.0) / rows
            infer = float(np.mean([r.response.infer_ms for r in done])) / 1e3
            m[f"serve.{label}.batch_size.mean"] = len(done) / sum(
                1.0 / r.response.batch_size for r in done)
            m[f"serve.{label}.infer_ms.p50"] = float(np.percentile(
                [r.response.infer_ms for r in done], 50))
            tables.append((
                f"serve {label}: one request's latency from its due time, "
                f"mean of {len(done)} traced requests",
                [("loadgen.lateness",
                  float(np.mean([r.lateness_ms for r in done])) / 1e3),
                 ("serve.queue",
                  float(np.mean([r.response.queue_ms for r in done])) / 1e3),
                 ("parallel.shards.handler", handler),
                 ("parallel.shards.ipc", roundtrip - handler),
                 ("serve.executor_wait", infer - roundtrip)],
                float(np.mean([r.latency_ms for r in done])) / 1e3,
                float(len(done))))
        rows = moved.get("perfbench.shards.rows", 0.0)
        handler_ms = moved.get("perfbench.shards.handler_s", 0.0) / rows * 1e3
        m["parallel.shards.handler_ms"] = handler_ms
        m["parallel.shards.ipc_ms"] = (moved.get("perfbench.shards.roundtrip_s", 0.0)
                                       / rows * 1e3 - handler_ms)
        m["serve.infer_replays"] = moved.get("serve.infer_replays", 0.0)
        m["serve.infer_captures"] = moved.get("serve.infer_captures", 0.0)
        hits = moved.get("serve.cache_hits", 0.0)
        m["serve.cache_hit_rate"] = hits / max(
            1.0, hits + moved.get("serve.cache_misses", 0.0))
        lateness = [r.lateness_ms for r in low.requests]
        m["loadgen.lateness_ms.p50"] = float(np.percentile(lateness, 50))
        m["loadgen.lateness_ms.max"] = float(np.max(lateness))
        m["serve.low.slo_misses"] = float(low.slo_misses(self.config.slo_ms))
        got.detail = m
        got.metrics = kernel_groups(kernels, requests)
        got.metrics["compute_s"] = handler_ms / 1e3
        got.metrics["parallel.overhead_s"] = m["parallel.shards.ipc_ms"] / 1e3
        finish_tables(got, tables)
        return got

    def close(self) -> None:
        try:
            self.loop.run_until_complete(self._stop())
        finally:
            self.loop.close()
            shutil.rmtree(self.workdir, ignore_errors=True)

"""Training loop with optional malicious-penalty hooks.

From the data holder's point of view this is a stock training loop:
loss = cross-entropy (+ "regularization").  The penalty callable is how
the encoding attacks hide inside it.

The actual forward/backward/step machinery lives in :class:`StepRunner`
so the same engine drives both the serial :class:`Trainer` loop and
every rank of the data-parallel runtime (:mod:`repro.parallel.ddp`):
forked DDP workers inherit a private copy of the trainer's runner and
execute the identical step on their shard of each batch.
"""

from __future__ import annotations

import time
import weakref
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from repro import backend as _backend
from repro import precision as _precision
from repro.autograd import functional as F
from repro.autograd.tensor import Tensor
from repro.nn.dataloader import DataLoader
from repro.nn.losses import CrossEntropyLoss
from repro.nn.module import Module
from repro.nn.optim import SGD
from repro.pipeline.config import TrainingConfig
from repro.telemetry.metrics import default_registry
from repro.telemetry.trace import span


@dataclass
class TrainHistory:
    """Per-epoch task loss / penalty / validation traces."""

    task_loss: List[float] = field(default_factory=list)
    penalty: List[float] = field(default_factory=list)
    val_accuracy: List[float] = field(default_factory=list)

    @property
    def epochs(self) -> int:
        return len(self.task_loss)

    @property
    def best_val_accuracy(self) -> float:
        return max(self.val_accuracy) if self.val_accuracy else float("nan")


class StepRunner:
    """One eager training step over a fixed model.

    Owns everything a single step needs -- model, loss, penalty and the
    parameter list -- and nothing an epoch needs (loader, optimizer,
    schedule, monitor all stay on the :class:`Trainer`).  That split is
    what lets a forked DDP rank run steps without dragging the epoch
    machinery across the fork.
    """

    def __init__(
        self,
        model: Module,
        loss_fn,
        params: List,
        penalty: Optional[Callable[[], Tensor]] = None,
    ) -> None:
        self.model = model
        self.loss_fn = loss_fn
        self.params = params
        self.penalty = penalty

    def forward_backward(self, x: Tensor, labels: np.ndarray) -> dict:
        """Forward + loss (+ penalty) + backward."""
        with span("autograd.forward"):
            logits = self.model(x)
            task_loss = self.loss_fn(logits, labels)
        result = {"task_loss": task_loss}
        loss = task_loss
        if self.penalty is not None:
            penalty_term = self.penalty()
            result["penalty"] = penalty_term
            loss = F.add(loss, penalty_term)
        result["loss"] = loss
        loss.backward()
        return result

    def zero_grads(self) -> None:
        for param in self.params:
            param.grad = None

    def eager_step(self, inputs: np.ndarray, labels: np.ndarray):
        """Run one step eagerly; returns (task_loss, penalty) floats."""
        self.zero_grads()
        result = self.forward_backward(Tensor(inputs), labels)
        penalty = result["penalty"].item() if "penalty" in result else 0.0
        return result["task_loss"].item(), penalty

    step = eager_step


def _shutdown_ddp(ctx) -> None:
    """weakref.finalize target: reap workers + unlink the arena even when
    a Trainer is dropped without :meth:`Trainer.close`."""
    try:
        ctx.shutdown()
    except Exception:
        pass


class Trainer:
    """SGD trainer over in-memory NCHW float inputs and int labels."""

    def __init__(
        self,
        model: Module,
        inputs: np.ndarray,
        labels: np.ndarray,
        config: TrainingConfig,
        penalty: Optional[Callable[[], Tensor]] = None,
        augment: bool = False,
        validation: Optional[tuple] = None,
        grad_clip: Optional[float] = None,
        schedule: Optional[str] = None,
        backend: Optional[str] = None,
        probes: Optional[object] = None,
        dtype: Optional[str] = None,
        ddp_workers: Optional[int] = None,
    ) -> None:
        """Args:
            augment: apply random horizontal flips per batch -- a stock
                augmentation a real training pipeline would include.  It
                only touches the task inputs; the encoding penalty's
                secret vector is untouched, which is exactly why the
                attack survives standard augmentation.
            validation: optional ``(inputs, labels)`` evaluated after
                every epoch into ``history.val_accuracy``.
            grad_clip: optional global-norm gradient clipping threshold.
            schedule: ``None``, ``"cosine"`` or ``"step"`` learning-rate
                schedule over the configured epochs.
            backend: kernel backend name (``"reference"``/``"fast"``)
                scoped around every epoch; ``None`` keeps the process
                default (see :mod:`repro.backend`).
            dtype: compute dtype (``"float32"``/``"float64"``) scoped
                around every epoch like ``backend``; ``None`` keeps the
                process policy (see :mod:`repro.precision`).  Batches
                are materialized at this dtype by the loader.  Note the
                model's parameters keep whatever dtype they were built
                with -- construct the model under the same policy for a
                uniform-precision graph.
            probes: a :class:`repro.monitor.Monitor` or a sequence of
                :class:`repro.monitor.Probe` instances observed after
                every epoch (and every N batches when the monitor has a
                batch interval).  Probe exceptions never interrupt
                training; they are recorded as ``monitor.probe_error``
                events.
            ddp_workers: train data-parallel across this many ranks
                (:mod:`repro.parallel.ddp`): the batch is sharded, each
                rank runs forward/backward on its slice, and a
                deterministic tree all-reduce over shared memory
                reassembles the serial batch gradient before the
                optimizer runs.  ``None`` follows the process default
                (:func:`repro.parallel.ddp.default_ddp_workers`, the
                CLI's ``--ddp-workers`` flag); ``1`` forces serial.
                Workers are forked lazily at the first epoch and
                persist until :meth:`close` (``train()`` closes them
                automatically when it finishes).
        """
        config.validate()
        self.model = model
        self.config = config
        self.backend = backend
        self.dtype = dtype
        if probes is not None:
            from repro.monitor import as_monitor
            self.monitor = as_monitor(probes)
        else:
            self.monitor = None
        self.penalty = penalty
        self.augment = bool(augment)
        self.validation = validation
        self.grad_clip = float(grad_clip) if grad_clip is not None else None
        self._augment_rng = np.random.default_rng(config.seed + 1000)
        self.loader = DataLoader(
            inputs, labels, batch_size=config.batch_size, shuffle=True,
            seed=config.seed, dtype=dtype,
        )
        self.optimizer = SGD(
            model.parameters(), lr=config.lr, momentum=config.momentum,
            weight_decay=config.weight_decay,
        )
        if schedule is None:
            self.schedule = None
        elif schedule == "cosine":
            from repro.nn.optim import CosineSchedule
            self.schedule = CosineSchedule(self.optimizer, config.epochs)
        elif schedule == "step":
            from repro.nn.optim import StepSchedule
            self.schedule = StepSchedule(self.optimizer, max(1, config.epochs // 3))
        else:
            from repro.errors import ConfigError
            raise ConfigError(f"unknown schedule {schedule!r}")
        self.loss_fn = CrossEntropyLoss()
        # Parameter objects are stable for the model's lifetime (the
        # optimizer swaps .data, never the Parameters), so walking the
        # module tree once here replaces a per-step model.zero_grad()
        # traversal.
        self._params = model.parameters()
        self.history = TrainHistory()
        self._runner = StepRunner(
            model, self.loss_fn, self._params, penalty=penalty,
        )
        if ddp_workers is None:
            from repro.parallel.ddp import default_ddp_workers
            ddp_workers = default_ddp_workers()
        self.ddp_workers = max(1, int(ddp_workers)) if ddp_workers else 1
        self._ddp = None
        self._ddp_finalizer = None

    # ------------------------------------------------------------------
    # Data-parallel lifecycle
    # ------------------------------------------------------------------

    def _ensure_ddp(self):
        """The live DDP context, or ``None`` for serial training.

        Construction is lazy so a trainer that never trains never forks;
        the context itself forks its workers on the first epoch, which
        guarantees every rank's copy of the loader/augment RNG state is
        taken before any epoch is consumed.
        """
        if self.ddp_workers <= 1:
            return None
        if self._ddp is None:
            from repro.parallel import ddp as _ddp
            if not _ddp.available():
                from repro.telemetry.events import get_logger
                get_logger().warning(
                    "ddp.unavailable", requested_workers=self.ddp_workers,
                    reason="fork start method not supported; training serially",
                )
                self.ddp_workers = 1
                return None
            self._ddp = _ddp.DDPContext(
                model=self.model, params=self._params, runner=self._runner,
                loader=self.loader, world_size=self.ddp_workers,
                augment=self.augment, augment_rng=self._augment_rng,
                backend=self.backend, dtype=self.dtype,
            )
            self._ddp_finalizer = weakref.finalize(
                self, _shutdown_ddp, self._ddp
            )
        return self._ddp

    def close(self) -> None:
        """Stop DDP workers and return the model to private memory.

        Idempotent; serial trainers are unaffected.  After ``close`` the
        trainer can train again -- a fresh worker group is forked on the
        next epoch, inheriting the loader exactly where it stopped.
        """
        if self._ddp is not None:
            ctx, self._ddp = self._ddp, None
            ctx.shutdown()
        if self._ddp_finalizer is not None:
            self._ddp_finalizer.detach()
            self._ddp_finalizer = None

    def __enter__(self) -> "Trainer":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # The epoch loop
    # ------------------------------------------------------------------

    def _clip_gradients(self) -> None:
        """Scale all gradients so their global L2 norm is <= grad_clip."""
        total = 0.0
        for param in self._params:
            if param.grad is not None:
                total += float((param.grad ** 2).sum())
        norm = total ** 0.5
        if norm > self.grad_clip and norm > 0:
            scale = self.grad_clip / norm
            for param in self._params:
                if param.grad is not None:
                    param.grad = param.grad * scale

    def train_epoch(self) -> float:
        """One epoch; returns mean task loss."""
        self.model.train()
        registry = default_registry()
        batch_times = registry.histogram("trainer.batch_s")
        ddp = self._ensure_ddp()
        total_task, total_penalty, count, batches = 0.0, 0.0, 0, 0
        epoch_start = time.perf_counter()
        with _backend.use_backend(self.backend), \
                _precision.use_dtype(self.dtype), \
                span("trainer.epoch", epoch=self.history.epochs,
                     ddp_workers=self.ddp_workers):
            if ddp is not None:
                iterator = ddp.begin_epoch(self.history.epochs)
            else:
                iterator = self.loader
            for item in iterator:
                batch_start = time.perf_counter()
                with span("trainer.batch"):
                    if ddp is not None:
                        task_loss_value, penalty_value, batch = \
                            ddp.rank0_step(item)
                        if self.grad_clip is not None:
                            self._clip_gradients()
                        self.optimizer.step()
                        ddp.finish_step()
                    else:
                        inputs, labels = item
                        if self.augment:
                            from repro.datasets.transforms import (
                                random_flip_horizontal,
                            )
                            inputs = random_flip_horizontal(
                                inputs, self._augment_rng
                            )
                        task_loss_value, penalty_value = self._runner.step(
                            inputs, labels
                        )
                        if self.grad_clip is not None:
                            self._clip_gradients()
                        self.optimizer.step()
                        batch = len(labels)
                total_task += task_loss_value * batch
                total_penalty += penalty_value * batch
                count += batch
                if self.monitor is not None:
                    self.monitor.on_batch(self.model, self.history.epochs,
                                          batches, history=self.history,
                                          optimizer=self.optimizer)
                batches += 1
                batch_times.observe(time.perf_counter() - batch_start)
            if ddp is not None:
                ddp.end_epoch()
        elapsed = time.perf_counter() - epoch_start
        registry.histogram("trainer.epoch_s").observe(elapsed)
        registry.counter("trainer.batches").inc(batches)
        registry.counter("trainer.images").inc(count)
        registry.gauge("trainer.epoch").set(float(self.history.epochs))
        registry.gauge("trainer.last_epoch_s").set(elapsed)
        if elapsed > 0:
            registry.gauge("trainer.images_per_s").set(count / elapsed)
        mean_task = total_task / count
        registry.gauge("trainer.task_loss").set(mean_task)
        registry.gauge("trainer.penalty").set(total_penalty / count)
        if not np.isfinite(mean_task):
            from repro.errors import GradientError
            raise GradientError(
                "training diverged: task loss is not finite "
                f"(epoch {self.history.epochs}, lr {self.optimizer.lr})"
            )
        self.history.task_loss.append(mean_task)
        self.history.penalty.append(total_penalty / count)
        if self.validation is not None:
            from repro.metrics.accuracy import evaluate_accuracy
            val_inputs, val_labels = self.validation
            self.history.val_accuracy.append(
                evaluate_accuracy(self.model, val_inputs, val_labels)
            )
            self.model.train()
        if self.schedule is not None:
            self.schedule.step()
        if self.monitor is not None:
            with span("monitor.epoch_probes"):
                self.monitor.on_epoch(self.model, self.history.epochs - 1,
                                      history=self.history,
                                      optimizer=self.optimizer)
        return mean_task

    def train(
        self, epochs: Optional[int] = None,
        progress: Optional[Callable[[int, float], None]] = None,
    ) -> TrainHistory:
        """Run the configured number of epochs.

        When data-parallel training is active the worker group is shut
        down (and the model detached from shared memory) before
        returning, so downstream consumers -- quantization, release,
        serving -- always see a plain in-process model.
        """
        epochs = epochs if epochs is not None else self.config.epochs
        from repro.telemetry.events import get_logger
        logger = get_logger()
        logger.debug("trainer.start", epochs=epochs, lr=self.config.lr,
                     batch_size=self.config.batch_size, seed=self.config.seed,
                     ddp_workers=self.ddp_workers)
        try:
            with span("trainer.train", epochs=epochs):
                for epoch in range(epochs):
                    mean_loss = self.train_epoch()
                    logger.debug("trainer.epoch", epoch=epoch,
                                 task_loss=mean_loss,
                                 penalty=self.history.penalty[-1])
                    if progress is not None:
                        progress(epoch, mean_loss)
        finally:
            self.close()
        logger.debug("trainer.done", epochs=epochs,
                     final_task_loss=self.history.task_loss[-1] if epochs else None)
        self.model.eval()
        return self.history

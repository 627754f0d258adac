"""Data-parallel training: persistent fork workers + deterministic all-reduce.

One training step under ``world`` ranks:

1. every rank runs forward/backward on its :meth:`DataLoader.shard`
   slice of the global batch and writes its *scaled* mean gradient
   (``slice_size / batch_size``) into its own gradient slab inside a
   :class:`~repro.parallel.arena.SharedTensorArena` -- the scaling makes
   the sum over ranks equal the serial mean-over-batch gradient, with
   the weight-only penalty term contributed exactly once in total;
2. a barrier, then a **tree-structured, fixed-reduction-order**
   all-reduce: at level ``k`` rank ``r`` (``r % 2^(k+1) == 0``) adds
   slab ``r + 2^k`` into slab ``r``, with a barrier between levels.
   The reduction pairs depend only on ``world`` (:func:`reduce_plan`),
   never on scheduling, so repeated runs reduce in the same order and
   produce bit-identical gradients;
3. rank 0 -- the *parent process itself*, not a worker -- points each
   ``param.grad`` at its reduced slab view, runs clipping/optimizer as
   in serial training, publishes the updated parameters back into the
   arena, and a final barrier releases the ranks into the next batch.

Parameters and gradients only ever cross process boundaries through the
shared-memory arena: the per-rank control pipes of the fork core
(:mod:`repro.parallel.worker`) carry one tiny epoch :class:`Unit` down
and one summary :class:`Envelope` up per epoch, and
:func:`set_message_audit` lets the test suite assert that nothing else
-- no weights, no batches -- is ever pickled on the steady-state path.

Workers are forked lazily on the first epoch (so they inherit the
arena mapping, the model, the loader, and the step runner) and persist
across epochs.
Batch-norm running statistics stay rank-local during an epoch and are
averaged across ranks through the arena at every epoch end, which keeps
eval-time behaviour close to the serial run (the EMA update is linear,
so averaging commutes with it).

A watchdog thread in the parent blocks in the core's liveness wait on
the ranks' process sentinels and aborts the shared barrier the moment
a worker dies, converting what would be a hang into a :class:`DDPError`;
arena segments are unlinked on every teardown path (including crashes,
via the arena's ``atexit`` hook and the stale-segment sweep).
"""

from __future__ import annotations

import dataclasses
import functools
import multiprocessing as mp
import os
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import backend as _backend
from repro import precision as _precision
from repro.errors import DDPError
from repro.parallel.arena import (
    SharedTensorArena,
    cleanup_stale_segments,
    live_segments,
)
from repro.parallel.worker import (Unit, Worker, absorb, fork, reap,
                                   set_message_audit, wait)
from repro.telemetry.metrics import default_registry
from repro.telemetry.trace import current_trace_context, span

__all__ = [
    "DDPContext", "available", "shm_available", "reduce_plan",
    "default_ddp_workers", "set_default_ddp_workers", "ddp_config",
    "set_message_audit",
]

#: Backstop timeout for every barrier crossing; the watchdog usually
#: breaks the barrier long before this fires.
DEFAULT_BARRIER_TIMEOUT_S = 120.0


# ---------------------------------------------------------------------------
# Process-wide default (the CLI's --ddp-workers flag)
# ---------------------------------------------------------------------------

_default_workers: Optional[int] = None


def default_ddp_workers() -> Optional[int]:
    """The process-wide worker count (``None`` = serial training)."""
    return _default_workers


def set_default_ddp_workers(workers: Optional[int]) -> Optional[int]:
    """Set the process default; returns the previous value."""
    global _default_workers
    previous = _default_workers
    if workers is not None:
        workers = int(workers)
        if workers < 1:
            raise DDPError(f"ddp workers must be >= 1, got {workers}")
    _default_workers = workers
    return previous


def available() -> bool:
    """Whether this platform can run the fork-based DDP runtime."""
    return "fork" in mp.get_all_start_methods()


def shm_available() -> bool:
    """Whether ``multiprocessing.shared_memory`` actually works here."""
    try:
        from multiprocessing import shared_memory
        probe = shared_memory.SharedMemory(create=True, size=16)
    except Exception:
        return False
    try:
        probe.unlink()
    finally:
        probe.close()
    return True


def ddp_config() -> Dict[str, Any]:
    """Environment/config summary rows for ``repro info``."""
    return {
        "cpus": os.cpu_count() or 1,
        "fork_available": available(),
        "shm_available": shm_available(),
        "default_workers": default_ddp_workers(),
        "live_segments": len(live_segments()),
    }


# ---------------------------------------------------------------------------
# The fixed reduction schedule
# ---------------------------------------------------------------------------

def reduce_plan(world: int) -> List[List[Tuple[int, int]]]:
    """Binary-tree reduction levels for ``world`` ranks.

    Level ``k`` holds ``(dst, src)`` pairs ``(r, r + 2^k)`` for every
    ``r`` divisible by ``2^(k+1)`` -- after the last level, rank 0's
    slab holds the total.  The schedule is a pure function of ``world``,
    which is what makes the reduction order (and therefore the floating
    point rounding) reproducible run-to-run.

    >>> reduce_plan(4)
    [[(0, 1), (2, 3)], [(0, 2)]]
    """
    if world < 1:
        raise DDPError(f"world size must be >= 1, got {world}")
    plan: List[List[Tuple[int, int]]] = []
    step = 1
    while step < world:
        plan.append([(dst, dst + step)
                     for dst in range(0, world - step, 2 * step)])
        step *= 2
    return plan


# ---------------------------------------------------------------------------
# Per-rank execution state (built pre-fork; children inherit it)
# ---------------------------------------------------------------------------

@dataclass
class _RankState:
    """Everything one rank needs to run its side of the step protocol."""

    rank: int
    world: int
    barrier: Any
    barrier_timeout: float
    model: Any
    params: List[Any]
    runner: Any
    loader: Any
    augment: bool
    augment_rng: np.random.Generator
    backend: Optional[str]
    dtype: Optional[str]
    plan: List[List[Tuple[int, int]]]
    #: grad_views[rank][i] -- rank's scaled-gradient slab for param i.
    grad_views: List[List[np.ndarray]]
    #: (world, 3) float64: per-rank (task_loss, penalty, slice size).
    scalars: np.ndarray
    #: (module, buffer name) pairs for every float buffer, model order.
    buffer_refs: List[Tuple[Any, str]]
    #: buf_views[rank][j] -- rank's epoch-end buffer snapshot slots
    #: (rank 0's row doubles as the broadcast slot for the average).
    buf_views: List[List[np.ndarray]]
    stats: Dict[str, float] = field(default_factory=dict)

    def reset_stats(self) -> None:
        self.stats = {"steps": 0, "allreduce_s": 0.0, "barrier_s": 0.0}


def _barrier_wait(state: _RankState) -> None:
    start = time.perf_counter()
    try:
        state.barrier.wait(timeout=state.barrier_timeout)
    except threading.BrokenBarrierError:
        raise DDPError(
            f"ddp barrier broken at rank {state.rank} "
            "(a worker died or a barrier wait timed out)"
        )
    finally:
        state.stats["barrier_s"] += time.perf_counter() - start


def _compute_and_write(state: _RankState, item) -> Tuple[float, float]:
    """Forward/backward on this rank's slice; write the scaled slab.

    Returns this rank's (task_loss, penalty) floats.  The augmentation
    mask is always drawn for the *full* batch so the per-rank RNG stays
    in lockstep with the serial run even when this rank's slice is
    empty (ragged final batch smaller than the world size).
    """
    inputs, labels = item.inputs, item.labels
    n = len(labels)
    if state.augment:
        from repro.datasets.transforms import apply_flip_mask, flip_mask
        mask = flip_mask(state.augment_rng, item.global_size)
        if n:
            inputs = apply_flip_mask(inputs, mask[item.offset:item.offset + n])
    slabs = state.grad_views[state.rank]
    if n:
        task_loss, penalty = state.runner.step(inputs, labels)
        scale = n / item.global_size
        for param, slab in zip(state.params, slabs):
            if param.grad is None:
                slab[...] = 0
            else:
                np.multiply(param.grad, scale, out=slab)
    else:
        task_loss, penalty = 0.0, 0.0
        for slab in slabs:
            slab[...] = 0
    state.scalars[state.rank, 0] = task_loss
    state.scalars[state.rank, 1] = penalty
    state.scalars[state.rank, 2] = n
    return task_loss, penalty


def _allreduce(state: _RankState) -> None:
    """Fixed-order tree reduction into rank 0's slabs (all ranks call)."""
    start = time.perf_counter()
    with span("ddp.allreduce", rank=state.rank):
        _barrier_wait(state)  # every rank's slab write is complete
        for level in state.plan:
            for dst, src in level:
                if dst == state.rank:
                    for acc, inc in zip(state.grad_views[dst],
                                        state.grad_views[src]):
                        acc += inc
            _barrier_wait(state)
    state.stats["allreduce_s"] += time.perf_counter() - start


def _sync_buffers(state: _RankState) -> None:
    """Epoch-end cross-rank averaging of float buffers (BN statistics).

    Non-zero ranks snapshot their buffers into their arena row and wait;
    rank 0 averages its own live buffers with the rows, loads the mean
    into its model, and leaves it in row 0 for everyone else to load.
    """
    if not state.buffer_refs:
        _barrier_wait(state)
        _barrier_wait(state)
        return
    rank, world = state.rank, state.world
    if rank != 0:
        for (module, name), slot in zip(state.buffer_refs, state.buf_views[rank]):
            np.copyto(slot, module._buffers[name], casting="unsafe")
    _barrier_wait(state)
    if rank == 0:
        for j, (module, name) in enumerate(state.buffer_refs):
            mean = state.buf_views[0][j]
            np.copyto(mean, module._buffers[name], casting="unsafe")
            for r in range(1, world):
                mean += state.buf_views[r][j]
            mean /= world
            module.update_buffer(name, np.array(mean, copy=True))
    _barrier_wait(state)
    if rank != 0:
        for (module, name), mean in zip(state.buffer_refs, state.buf_views[0]):
            module.update_buffer(
                name, np.array(mean, dtype=module._buffers[name].dtype)
            )


def _run_rank_epoch(state: _RankState, epoch: int) -> None:
    """One full epoch of the worker side of the step protocol."""
    state.model.train()
    shard = state.loader.shard(state.rank, state.world)
    with span("ddp.rank_epoch", rank=state.rank, epoch=epoch):
        for item in shard.iter_meta():
            with span("ddp.rank_step", rank=state.rank):
                _compute_and_write(state, item)
                _allreduce(state)
                # rank 0 is running clip + optimizer + publish
                _barrier_wait(state)
            state.stats["steps"] += 1
        _sync_buffers(state)


def _rank_handler(state: _RankState) -> Callable[[Unit], Dict[str, Any]]:
    """Build one forked rank's epoch handler (runs in the child)."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)

    def run_epoch(unit: Unit) -> Dict[str, Any]:
        state.reset_stats()
        try:
            with _backend.use_backend(state.backend), \
                    _precision.use_dtype(state.dtype):
                _run_rank_epoch(state, unit.work)
        except BaseException:
            # crash honestly: the parent's liveness wait turns this into
            # a DDPError at the next barrier instead of a silent hang
            os._exit(1)
        from repro.autograd.planner import last_tape_stats
        tape = last_tape_stats()
        return dict(state.stats, rank=state.rank,
                    tape=dataclasses.asdict(tape) if tape is not None else None)

    return run_epoch


# ---------------------------------------------------------------------------
# The parent-side context
# ---------------------------------------------------------------------------

class DDPContext:
    """Parent-side handle on one data-parallel training group.

    The parent process *is* rank 0: it computes its own shard, runs the
    optimizer on the reduced gradients, and publishes updated weights --
    so ``world_size`` workers means ``world_size - 1`` forked children.
    Construction is cheap; the arena is built and the children are
    forked lazily on the first :meth:`begin_epoch`, which must happen
    before anything else consumes an epoch from the shared loader.
    """

    def __init__(
        self,
        model,
        params: List[Any],
        runner,
        loader,
        world_size: int,
        augment: bool = False,
        augment_rng: Optional[np.random.Generator] = None,
        backend: Optional[str] = None,
        dtype: Optional[str] = None,
        barrier_timeout: float = DEFAULT_BARRIER_TIMEOUT_S,
    ) -> None:
        if world_size < 2:
            raise DDPError(
                f"DDPContext needs world_size >= 2, got {world_size} "
                "(serial training needs no context)"
            )
        if not available():
            raise DDPError("ddp requires the fork start method")
        self.model = model
        self.params = list(params)
        self.runner = runner
        self.loader = loader
        self.world = int(world_size)
        self.augment = bool(augment)
        self.augment_rng = augment_rng or np.random.default_rng(0)
        self.backend = backend
        self.dtype = dtype
        self.barrier_timeout = float(barrier_timeout)
        self.plan = reduce_plan(self.world)
        self.arena: Optional[SharedTensorArena] = None
        self._state: Optional[_RankState] = None
        self._param_views: List[np.ndarray] = []
        self._procs: Dict[int, mp.Process] = {}
        self._workers: Dict[int, Worker] = {}
        self._started = False
        self._broken = False
        self._shutting_down = False
        self._dead_rank: Optional[int] = None
        self._watchdog: Optional[threading.Thread] = None
        self._epoch_open = False
        self.last_epoch: Dict[str, Any] = {}

    # ------------------------------------------------------------ lifecycle
    def _build_arena(self) -> None:
        layout: Dict[str, Tuple[Tuple[int, ...], Any]] = {}
        for i, param in enumerate(self.params):
            layout[f"param/{i}"] = (param.data.shape, param.data.dtype)
        for rank in range(self.world):
            for i, param in enumerate(self.params):
                layout[f"grad/{rank}/{i}"] = (param.data.shape, param.data.dtype)
        layout["scalars"] = ((self.world, 3), np.float64)
        buffer_refs: List[Tuple[Any, str]] = []
        for _, module in self.model.named_modules():
            for name, buf in module._buffers.items():
                if buf.dtype.kind == "f":
                    buffer_refs.append((module, name))
        for rank in range(self.world):
            for j, (module, name) in enumerate(buffer_refs):
                buf = module._buffers[name]
                layout[f"buf/{rank}/{j}"] = (buf.shape, np.float64)
        self.arena = SharedTensorArena.create(layout)
        self._buffer_refs = buffer_refs
        # move parameters into the arena: children forked after this
        # point see every optimizer update without any copying
        self._param_views = []
        for i, param in enumerate(self.params):
            view = self.arena.view(f"param/{i}")
            np.copyto(view, param.data)
            param.data = view
            self._param_views.append(view)

    def _start(self) -> None:
        cleanup_stale_segments()
        self._build_arena()
        ctx = mp.get_context("fork")
        barrier = ctx.Barrier(self.world)
        grad_views = [
            [self.arena.view(f"grad/{rank}/{i}")
             for i in range(len(self.params))]
            for rank in range(self.world)
        ]
        buf_views = [
            [self.arena.view(f"buf/{rank}/{j}")
             for j in range(len(self._buffer_refs))]
            for rank in range(self.world)
        ]
        scalars = self.arena.view("scalars")

        def rank_state(rank: int) -> _RankState:
            state = _RankState(
                rank=rank, world=self.world, barrier=barrier,
                barrier_timeout=self.barrier_timeout,
                model=self.model, params=self.params, runner=self.runner,
                loader=self.loader, augment=self.augment,
                augment_rng=self.augment_rng, backend=self.backend,
                dtype=self.dtype, plan=self.plan, grad_views=grad_views,
                scalars=scalars, buffer_refs=self._buffer_refs,
                buf_views=buf_views,
            )
            state.reset_stats()
            return state

        self._state = rank_state(0)
        for rank in range(1, self.world):
            # spans only: perfbench's attack_flow table tiles rank 0's wall
            # time, so merging rank-1 layer counters would double its rows
            worker = fork(functools.partial(_rank_handler, rank_state(rank)),
                          telemetry=False)
            self._workers[rank] = worker
            self._procs[rank] = worker.process
        self._watchdog = threading.Thread(
            target=self._watch, name="repro-ddp-watchdog", daemon=True
        )
        self._watchdog.start()
        self._started = True
        registry = default_registry()
        registry.gauge("ddp.workers").set(float(self.world))
        registry.gauge("ddp.shm_segments").set(float(len(live_segments())))
        from repro.telemetry.events import get_logger
        get_logger().debug(
            "ddp.start", world=self.world,
            segment=self.arena.segment_name,
            arena_bytes=self.arena.nbytes,
            pids=[p.pid for p in self._procs.values()],
        )

    def _watch(self) -> None:
        """Break the barrier as soon as any rank dies outside shutdown."""
        ranks = {worker: rank for rank, worker in self._workers.items()}
        dead = wait(list(ranks), messages=False)
        if dead and not self._shutting_down:
            self._dead_rank = ranks[dead[0]]
            self._broken = True
            try:
                self._state.barrier.abort()
            except Exception:
                pass

    # ------------------------------------------------------------ one epoch
    def begin_epoch(self, epoch: int):
        """Fork (first call), command every worker into the epoch, and
        return the parent's shard iterator."""
        if not self._started:
            self._start()
        self._raise_if_broken()
        trace_ctx = current_trace_context()
        for rank, worker in self._workers.items():
            try:
                worker.send(Unit(rank, epoch, trace_ctx))
            except OSError:
                self._broken = True
                self._dead_rank = rank
                raise DDPError(f"ddp worker rank {rank} is gone")
        self._state.reset_stats()
        self._epoch_open = True
        return self.loader.shard(0, self.world).iter_meta()

    def rank0_step(self, item) -> Tuple[float, float, int]:
        """The parent's half of one global step, up to the reduced
        gradients: returns ``(task_loss, penalty, batch_size)`` for the
        *global* batch, with ``param.grad`` pointing at the reduced
        slabs ready for clipping and the optimizer."""
        state = self._state
        try:
            _compute_and_write(state, item)
            _allreduce(state)
        except DDPError:
            self._broken = True
            raise self._death_error()
        for param, slab in zip(self.params, state.grad_views[0]):
            param.grad = slab
        scalars = state.scalars
        counts = scalars[:, 2]
        total = float(counts.sum())
        task_loss = float((scalars[:, 0] * counts).sum() / total)
        nonzero = np.nonzero(counts)[0]
        penalty = float(scalars[nonzero[0], 1]) if len(nonzero) else 0.0
        return task_loss, penalty, int(total)

    def finish_step(self) -> None:
        """Publish the optimizer's update into the arena and release
        every rank into the next batch."""
        state = self._state
        with span("ddp.publish"):
            for param, view in zip(self.params, self._param_views):
                if param.data is not view:
                    np.copyto(view, param.data)
                    param.data = view
        state.stats["steps"] += 1
        try:
            _barrier_wait(state)
        except DDPError:
            self._broken = True
            raise self._death_error()

    def end_epoch(self) -> Dict[str, Any]:
        """Buffer sync + collect per-rank summaries; returns the merged
        epoch summary (also kept as :attr:`last_epoch`)."""
        state = self._state
        try:
            _sync_buffers(state)
        except DDPError:
            self._broken = True
            raise self._death_error()
        self._epoch_open = False
        summaries: Dict[int, Dict[str, Any]] = {}
        for rank, worker in self._workers.items():
            try:
                envelope = worker.recv()
            except (EOFError, OSError):
                self._broken = True
                self._dead_rank = rank
                raise self._death_error()
            if envelope.status != "ok" or envelope.key != rank:
                self._broken = True
                raise DDPError(
                    f"ddp protocol error: expected rank {rank}'s epoch "
                    f"summary, got {envelope.status!r} from {envelope.key}"
                )
            absorb(envelope, label=f"ddp rank={rank}")
            summaries[rank] = envelope.value
        return self._publish_epoch_metrics(summaries)

    def _publish_epoch_metrics(
        self, summaries: Dict[int, Dict[str, Any]]
    ) -> Dict[str, Any]:
        from repro.autograd.planner import last_tape_stats

        state = self._state
        registry = default_registry()
        steps = int(state.stats["steps"])
        param_bytes = sum(int(p.data.nbytes) for p in self.params)
        # per step: every rank writes its slab, then (world - 1) slab
        # additions, then one parameter publish by rank 0
        step_bytes = param_bytes * (2 * self.world - 1) + param_bytes
        tapes = []
        own_tape = last_tape_stats()
        if own_tape is not None:
            tapes.append(dataclasses.asdict(own_tape))
        worker_steps = 0
        allreduce_s = float(state.stats["allreduce_s"])
        barrier_s = float(state.stats["barrier_s"])
        for payload in summaries.values():
            worker_steps += int(payload.get("steps", 0))
            if payload.get("tape"):
                tapes.append(payload["tape"])
        registry.counter("ddp.steps").inc(steps)
        registry.counter("ddp.worker_steps").inc(worker_steps)
        registry.counter("ddp.bytes_moved").inc(steps * step_bytes)
        if steps:
            registry.histogram("ddp.allreduce_s").observe(allreduce_s / steps)
            registry.histogram("ddp.barrier_wait_s").observe(barrier_s / steps)
        registry.gauge("ddp.workers").set(float(self.world))
        registry.gauge("ddp.shm_segments").set(float(len(live_segments())))
        if tapes:
            registry.gauge("ddp.tape_saved_bytes").set(
                float(sum(t["total_saved_bytes"] for t in tapes))
            )
            registry.gauge("ddp.tape_peak_live_bytes").set(
                float(max(t["peak_live_bytes"] for t in tapes))
            )
        self.last_epoch = {
            "steps": steps,
            "worker_steps": worker_steps,
            "allreduce_s": allreduce_s,
            "barrier_s": barrier_s,
            "bytes_moved": steps * step_bytes,
            "tapes": tapes,
        }
        return self.last_epoch

    # ------------------------------------------------------------- teardown
    def _death_error(self) -> DDPError:
        if self._dead_rank is not None:
            return DDPError(
                f"ddp worker rank {self._dead_rank} (pid "
                f"{self._procs[self._dead_rank].pid}) died mid-epoch"
            )
        return DDPError("ddp barrier broken (worker death or timeout)")

    def _raise_if_broken(self) -> None:
        if self._broken:
            raise DDPError(
                "ddp context is broken (a worker died); build a new Trainer"
            )

    @property
    def broken(self) -> bool:
        return self._broken

    def shutdown(self) -> None:
        """Stop the workers, detach the parameters, unlink the arena.

        Safe to call multiple times and from any teardown path; after it
        returns the model owns private parameter arrays again and no
        ``/dev/shm`` segment of this context remains.
        """
        if self._started and not self._shutting_down:
            self._shutting_down = True
            reap(self._workers.values())
            # the reaped ranks' sentinels wake the watchdog, which sees
            # the shutdown and exits
            if self._watchdog is not None:
                self._watchdog.join(timeout=1.0)
            self._procs.clear()
            self._workers.clear()
        # detach the model from the arena before the mapping goes away
        if self._param_views:
            grad_slabs = (set(id(s) for s in self._state.grad_views[0])
                          if self._state is not None else set())
            for param in self.params:
                param.data = np.array(param.data, copy=True)
                if param.grad is not None and id(param.grad) in grad_slabs:
                    param.grad = None
            self._param_views = []
        self._state = None
        if self.arena is not None:
            self.arena.close()
            self.arena = None
        cleanup_stale_segments()
        default_registry().gauge("ddp.shm_segments").set(
            float(len(live_segments()))
        )

    def __enter__(self) -> "DDPContext":
        return self

    def __exit__(self, *exc: object) -> None:
        self.shutdown()

"""Multi-process execution with deterministic seeding.

Six pieces:

* :mod:`repro.parallel.worker` -- the one fork core every runtime below
  runs on: fork a worker, answer units of work with one typed
  :class:`~repro.parallel.worker.Envelope` each, merge the shipped
  telemetry, one liveness wait on pipes and process sentinels, and one
  reap (stop sentinel, join, terminate, join, kill).
* :mod:`repro.parallel.pool` -- :class:`WorkerPool`: multi-process
  task scheduling (workers forked once per run, handed one task index
  at a time) with per-task timeouts, bounded retry
  of crashed workers, structured :class:`TaskOutcome` failure records
  (never pool-wide aborts), per-task telemetry ship-back, and a
  transparent in-process serial fallback.
* :mod:`repro.parallel.shards` -- :class:`ShardPool`: *persistent*
  worker processes holding expensive state (loaded model artifacts)
  and answering a request stream, with shard respawn + bounded retry
  of in-flight requests on crash.  The serving layer's execution
  substrate.
* :mod:`repro.parallel.seeding` -- ``SeedSequence``-based per-task seed
  derivation so parallel and serial runs produce identical records.
* :mod:`repro.parallel.arena` -- :class:`SharedTensorArena`: named
  tensors inside one ``multiprocessing.shared_memory`` segment with a
  picklable registry/attach protocol and crash-safe unlink sweeps.
* :mod:`repro.parallel.ddp` -- :class:`DDPContext`: persistent
  fork-based data-parallel training ranks sharing parameters and
  gradient slabs through an arena, with a deterministic tree-structured
  all-reduce (``Trainer(ddp_workers=N)``, the CLI's ``--ddp-workers``).

Consumers: ``pipeline.sweep`` (``Sweep.run(parallel=N)``, the one
:class:`WorkerPool` user, behind ``repro sweep`` and multi-bit
``repro attack`` with the CLI's global ``--workers`` flag),
``repro.serve`` (:class:`~repro.serve.server.ModelServer` dispatch on a
:class:`ShardPool`) and ``pipeline.trainer`` (``Trainer(ddp_workers=N)``).
"""

from repro.parallel.arena import ArenaSpec, SharedTensorArena, cleanup_stale_segments
from repro.parallel.ddp import (
    DDPContext,
    ddp_config,
    default_ddp_workers,
    reduce_plan,
    set_default_ddp_workers,
)
from repro.parallel.pool import Task, TaskOutcome, WorkerPool, cpu_workers
from repro.parallel.seeding import (
    rng_for_index,
    sequence_for_index,
    spawn_sequences,
)
from repro.parallel.shards import ShardPool, ShardResult

__all__ = [
    "Task", "TaskOutcome", "WorkerPool", "cpu_workers",
    "ShardPool", "ShardResult",
    "ArenaSpec", "SharedTensorArena", "cleanup_stale_segments",
    "DDPContext", "ddp_config", "default_ddp_workers",
    "set_default_ddp_workers", "reduce_plan",
    "rng_for_index", "sequence_for_index", "spawn_sequences",
]

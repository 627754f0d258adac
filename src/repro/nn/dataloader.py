"""Minimal dataset/loader abstractions for numpy array data."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

import numpy as np

from repro import precision
from repro.errors import DatasetError
from repro.telemetry.trace import span


@dataclass
class ShardBatch:
    """One rank's slice of a global batch, with enough metadata to keep
    data-parallel training equivalent to the serial run: ``global_size``
    scales this rank's mean-gradient contribution and ``offset`` indexes
    into per-batch randomness drawn for the full batch (augmentation
    masks)."""

    inputs: np.ndarray
    labels: np.ndarray
    #: Size of the full (un-sharded) batch this slice came from.
    global_size: int
    #: Index of this slice's first element within the full batch.
    offset: int


class DataLoader:
    """Iterate (inputs, labels) minibatches over in-memory arrays.

    Shuffling uses a dedicated Generator, so epoch order is reproducible
    given the seed and independent of global numpy state.

    Float input batches are materialized at the compute dtype --
    ``dtype`` if given, else the active :mod:`repro.precision` policy at
    iteration time -- so a float64 dataset feeds float32 training
    without each batch upcasting the model's activations.  Labels are
    never cast.
    """

    def __init__(
        self,
        inputs: np.ndarray,
        labels: np.ndarray,
        batch_size: int = 32,
        shuffle: bool = True,
        seed: Optional[int] = None,
        drop_last: bool = False,
        dtype: Optional[np.dtype] = None,
    ) -> None:
        inputs = np.asarray(inputs)
        labels = np.asarray(labels)
        if len(inputs) != len(labels):
            raise DatasetError(
                f"inputs ({len(inputs)}) and labels ({len(labels)}) differ in length"
            )
        if len(inputs) == 0:
            raise DatasetError("cannot build a DataLoader over an empty dataset")
        if batch_size <= 0:
            raise DatasetError(f"batch size must be positive, got {batch_size}")
        self.inputs = inputs
        self.labels = labels
        self.batch_size = int(batch_size)
        self.shuffle = bool(shuffle)
        self.drop_last = bool(drop_last)
        self.dtype = precision.normalize_dtype(dtype) if dtype is not None else None
        self._rng = np.random.default_rng(seed)

    def __len__(self) -> int:
        full, rem = divmod(len(self.inputs), self.batch_size)
        return full if self.drop_last or rem == 0 else full + 1

    def _epoch_order(self) -> np.ndarray:
        """Draw this epoch's index order, advancing the loader RNG once.

        Every consumer of one epoch -- the serial ``__iter__`` or each
        rank of a sharded iteration -- must go through this so identical
        seeds keep identical epoch order across processes.
        """
        order = np.arange(len(self.inputs))
        if self.shuffle:
            self._rng.shuffle(order)
        return order

    def _compute_dtype(self) -> np.dtype:
        return self.dtype if self.dtype is not None else precision.default_dtype()

    def _materialize(self, index: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        batch = self.inputs[index]
        want = self._compute_dtype()
        if batch.dtype.kind == "f" and batch.dtype != want:
            batch = batch.astype(want)
        return batch, self.labels[index]

    def _batch_indices(self, order: np.ndarray) -> Iterator[np.ndarray]:
        for start in range(0, len(order), self.batch_size):
            index = order[start:start + self.batch_size]
            if self.drop_last and len(index) < self.batch_size:
                return
            yield index

    def __iter__(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        for index in self._batch_indices(self._epoch_order()):
            with span("nn.dataloader.wait"):
                batch = self._materialize(index)
            yield batch

    def shard(self, rank: int, world_size: int) -> "ShardedDataLoader":
        """A view of this loader yielding rank ``rank``'s slice of every
        batch.

        Each global batch is split into ``world_size`` contiguous,
        near-equal slices (rank ``r`` gets ``[r*n//W, (r+1)*n//W)`` of
        the batch's index array), so the union of all ranks' slices over
        one epoch is an exact, disjoint partition of the serial epoch --
        same seed, same global batch boundaries, no duplicated or
        dropped examples.  Slices may be empty when a ragged final batch
        is smaller than ``world_size``.

        Every shard view advances the *shared* loader RNG once per
        epoch, so all ranks (and a serial iteration) must consume epochs
        in lockstep -- the DDP runtime forks workers holding copies of
        the same loader and iterates one shard per process.
        """
        if world_size <= 0:
            raise DatasetError(f"world_size must be positive, got {world_size}")
        if not 0 <= rank < world_size:
            raise DatasetError(
                f"rank must be in [0, {world_size}), got {rank}"
            )
        return ShardedDataLoader(self, rank, world_size)


class ShardedDataLoader:
    """One rank's deterministic view of a :class:`DataLoader` epoch."""

    def __init__(self, loader: DataLoader, rank: int, world_size: int) -> None:
        self.loader = loader
        self.rank = int(rank)
        self.world_size = int(world_size)

    def __len__(self) -> int:
        return len(self.loader)

    def iter_meta(self) -> Iterator[ShardBatch]:
        """Yield :class:`ShardBatch` slices (the DDP runtime's format)."""
        loader = self.loader
        for index in loader._batch_indices(loader._epoch_order()):
            n = len(index)
            lo = self.rank * n // self.world_size
            hi = (self.rank + 1) * n // self.world_size
            with span("nn.dataloader.wait"):
                inputs, labels = loader._materialize(index[lo:hi])
            yield ShardBatch(inputs=inputs, labels=labels,
                             global_size=n, offset=lo)

    def __iter__(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        for batch in self.iter_meta():
            yield batch.inputs, batch.labels

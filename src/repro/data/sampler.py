"""Index samplers: sequential, shuffled, and batching — plus the
dispatch order book the scheduling layer (DESIGN.md §12) draws from."""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterator, List, Optional, Sequence, Sized, Tuple

import numpy as np

from repro.errors import DataLoaderError
from repro.utils.rng import derive_rng


class SequentialSampler:
    """Yields ``0..len(dataset)-1`` in order."""

    def __init__(self, data_source: Sized) -> None:
        self.data_source = data_source

    def __iter__(self) -> Iterator[int]:
        return iter(range(len(self.data_source)))

    def __len__(self) -> int:
        return len(self.data_source)


class RandomSampler:
    """Yields a seeded permutation of indices (fresh draw per epoch)."""

    def __init__(self, data_source: Sized, seed: Optional[int] = None) -> None:
        self.data_source = data_source
        self._rng = derive_rng(seed, "RandomSampler")

    def __iter__(self) -> Iterator[int]:
        order = self._rng.permutation(len(self.data_source))
        return iter(int(i) for i in order)

    def __len__(self) -> int:
        return len(self.data_source)


class InfiniteBatchSampler:
    """Endless dummy index batches, for iterable datasets.

    Iterable datasets produce data by streaming, not indexing, so batch
    tasks carry only the requested *count*. The epoch ends when every
    worker's stream signals exhaustion — not when a sampler runs dry —
    hence an unbounded task supply (PyTorch structures this the same
    way).
    """

    def __init__(self, batch_size: int) -> None:
        if batch_size <= 0:
            raise DataLoaderError(f"batch_size must be positive, got {batch_size}")
        self.batch_size = batch_size

    def __iter__(self) -> Iterator[List[int]]:
        while True:
            yield [0] * self.batch_size


class BatchSampler:
    """Groups a sampler's indices into lists of ``batch_size``."""

    def __init__(self, sampler, batch_size: int, drop_last: bool = False) -> None:
        if batch_size <= 0:
            raise DataLoaderError(f"batch_size must be positive, got {batch_size}")
        self.sampler = sampler
        self.batch_size = batch_size
        self.drop_last = drop_last

    def __iter__(self) -> Iterator[List[int]]:
        batch: List[int] = []
        for index in self.sampler:
            batch.append(index)
            if len(batch) == self.batch_size:
                yield batch
                batch = []
        if batch and not self.drop_last:
            yield batch

    def __len__(self) -> int:
        n = len(self.sampler)
        if self.drop_last:
            return n // self.batch_size
        return (n + self.batch_size - 1) // self.batch_size


class DispatchOrderBook:
    """The main process's view of undispatched and in-flight batches.

    Fronts one epoch's batch-sampler iterator with the bookkeeping every
    scheduler mode needs (DESIGN.md §12):

    * :meth:`draw` hands out the *oldest* ready batch — a supervisor
      requeue (a dead worker's swept claims) before a fresh sampler
      draw — stamped with a monotonically increasing batch id on first
      draw; requeued batches keep their original id and indices, which
      is what makes restart replay deterministic.
    * :meth:`peek_id` shows the id :meth:`draw` would hand out next, so
      placement can pick a worker before the batch leaves the book.
    * :meth:`complete` retires a yielded batch.

    The book is pure main-process state: workers only ever see
    ``(batch_id, indices)`` tasks on their private claim queues, so a
    worker kill can never strand a lock inside the shared structure.
    """

    def __init__(self, batch_iter) -> None:
        self._batches = iter(batch_iter)
        self._next_id = 0
        self._exhausted = False
        self._inflight: Dict[int, List[int]] = {}
        self._requeued: Deque[int] = deque()
        # A fresh sampler draw already pulled by peek_id (not yet issued).
        self._peeked: Optional[List[int]] = None

    @property
    def exhausted(self) -> bool:
        """True once the sampler ran dry (requeues may still exist)."""
        return self._exhausted

    def inflight_count(self) -> int:
        return len(self._inflight)

    def has_ready(self) -> bool:
        """Whether :meth:`draw` could currently return a batch."""
        return bool(self._requeued) or not self._exhausted

    def has_requeued(self) -> bool:
        """Whether swept claims are waiting for re-dispatch. Requeued
        batches already sit inside the ``[rcvd, send)`` in-flight window,
        so schedulers must dispatch them even at the aggregate cap."""
        return bool(self._requeued)

    def peek_id(self) -> Optional[int]:
        """Id the next :meth:`draw` returns, or None if nothing is ready."""
        if self._requeued:
            return self._requeued[0]
        if self._peeked is None and not self._exhausted:
            try:
                self._peeked = next(self._batches)
            except StopIteration:
                self._exhausted = True
        return None if self._peeked is None else self._next_id

    def draw(self) -> Optional[Tuple[int, List[int]]]:
        """Oldest ready batch as ``(batch_id, indices)``, or None.

        Requeued batches win over fresh draws — they are older by
        construction (their ids were assigned earlier).
        """
        batch_id = self.peek_id()
        if batch_id is None:
            return None
        if self._requeued:
            self._requeued.popleft()
            return batch_id, self._inflight[batch_id]
        indices, self._peeked = self._peeked, None
        self._next_id += 1
        self._inflight[batch_id] = indices
        return batch_id, indices

    def requeue(self, batch_ids: Sequence[int]) -> None:
        """Return swept claims to the ready front, oldest first."""
        for batch_id in sorted(batch_ids):
            if batch_id not in self._inflight:
                raise DataLoaderError(
                    f"cannot requeue unknown batch {batch_id}"
                )
            self._requeued.append(batch_id)

    def complete(self, batch_id: int) -> List[int]:
        """Retire a yielded batch, returning its indices (or ``[]`` for
        ids the book never issued — iterable-backend sentinel flows)."""
        return self._inflight.pop(batch_id, [])

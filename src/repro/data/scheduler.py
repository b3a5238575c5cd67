"""Batch-dispatch placement rules for the DataLoader (DESIGN.md §12).

Map-style datasets dispatch through one pump in the main process
(``_MultiWorkerIter._pump``): it hands the oldest undispatched batch of
the order book (:class:`~repro.data.sampler.DispatchOrderBook`) to a
worker until placement refuses, the in-flight window is full, or the
book runs dry. ``DataLoader(scheduler=...)`` picks the placement and
trigger rules:

* ``"static"`` — the PyTorch-shaped § II-B policy every figure
  instruments. Batch ``b`` always goes to its home worker ``b % N``, the
  window is ``N * prefetch_factor``, and the pump fires only at startup,
  after a yield, and after a restart. That reproduces round-robin
  startup prefetch plus replenish-to-producer exactly, so static stays
  the bit-exact parity oracle.
* ``"stealing"`` — the batch goes to the least-loaded worker with a
  free claim slot (``prefetch_factor`` per worker), the window widens to
  :func:`scheduler_inflight_cap`, and the pump also fires at every
  payload receipt, so a straggler batch no longer starves the other
  workers of work.

Iterable datasets are per-worker streams: their placement decides the
stream order, so they keep the static round-robin path and accept only
``"static"``.

Why the shared ready-deque lives in the main process: a literal shared
``mp.Queue`` that workers pull from would hold its internal lock while a
worker blocks in ``get()``, so killing that worker (the §8 chaos tests
do exactly this) leaves the queue poisoned for every sibling. Dispatch
through the existing per-worker index queues keeps worker kill/restart
semantics identical in both modes: the supervisor sweeps a dead
worker's claims back into the order book and the pump replays them,
which is safe because batch→RNG keying makes results independent of the
executing worker (asserted by the parity tests, not assumed).
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.lotustrace.records import SCHED_STATIC, SCHED_STEALING
from repro.errors import DataLoaderError

#: Valid ``DataLoader(scheduler=...)`` values.
SCHEDULER_CHOICES = (SCHED_STATIC, SCHED_STEALING)


def validate_scheduler(
    scheduler: str, num_workers: int, is_iterable: bool
) -> str:
    """Validate a scheduler mode against the loader configuration.

    Stealing needs a main-process order book over a map-style sampler —
    iterable datasets are per-worker streams with no batch to steal, and
    a single-process loader has nobody to steal from — so it requires
    ``num_workers > 0`` and a map-style dataset. Raises
    :class:`DataLoaderError`; returns the mode.
    """
    if scheduler not in SCHEDULER_CHOICES:
        raise DataLoaderError(
            f"unknown scheduler {scheduler!r}; choose from {SCHEDULER_CHOICES}"
        )
    if scheduler == SCHED_STEALING:
        if num_workers == 0:
            raise DataLoaderError(
                f"scheduler={scheduler!r} requires num_workers > 0 "
                "(a single-process loader has no dispatch to schedule)"
            )
        if is_iterable:
            raise DataLoaderError(
                f"scheduler={scheduler!r} requires a map-style dataset: "
                "iterable datasets are per-worker streams, so batches "
                "cannot be re-routed between workers"
            )
    return scheduler


def scheduler_inflight_cap(num_workers: int, prefetch_factor: int) -> int:
    """Aggregate dispatched-but-unconsumed bound for stealing dispatch.

    ``num_workers * (prefetch_factor + 2)``: two batches of headroom per
    worker over static's ``num_workers * prefetch_factor`` window, which
    is what lets non-straggler workers keep executing while one slow
    batch blocks the yield cursor.
    """
    return num_workers * (prefetch_factor + 2)


def scheduler_buffer_depth(num_workers: int, prefetch_factor: int) -> int:
    """Per-worker batch-buffer/slab-ring depth for stealing dispatch.

    Under stealing, a single worker can in the worst case have produced
    *every* in-flight batch (all arrived, all blocked behind a straggler
    from another worker), and slot acks run one yield late — so the
    ring must cover the aggregate cap plus the ack lag. Slab slots are
    created lazily on first acquire, so the widened universe costs
    memory only for concurrency that actually happens.
    """
    return scheduler_inflight_cap(num_workers, prefetch_factor) + 2


class StealingScheduler:
    """Placement and window rules of the dispatch pump, per mode.

    Pure policy state — the iterator owns the queues and the order
    book. ``select_worker`` returns the home worker ``batch_id %
    num_workers`` under static and, under stealing, the least-loaded
    worker with a free claim slot (ties to the lowest id, which makes
    the startup fill reproduce static's round-robin order).
    ``on_dispatch`` counts a *steal* whenever a batch lands off its home
    worker, including supervisor replays after a restart — that is what
    lets the per-yield ``sched`` records reconcile steals across worker
    generations. Static never steals.
    """

    def __init__(
        self,
        num_workers: int,
        prefetch_factor: int,
        mode: str = SCHED_STEALING,
    ) -> None:
        self.num_workers = num_workers
        self.prefetch_factor = prefetch_factor
        #: Static: home placement, and the pump fires only at yield
        #: (plus startup and restart), never at payload receipt.
        self.static = mode == SCHED_STATIC
        self.max_inflight = (
            num_workers * prefetch_factor
            if self.static
            else scheduler_inflight_cap(num_workers, prefetch_factor)
        )
        self._outstanding: List[int] = [0] * num_workers
        self.steals = 0
        self._steal_delta = 0

    def outstanding(self, worker_id: int) -> int:
        return self._outstanding[worker_id]

    def select_worker(self, batch_id: int) -> Optional[int]:
        """Where ``batch_id`` goes next, or None when no slot is free."""
        if self.static:
            return batch_id % self.num_workers
        best = None
        best_load = self.prefetch_factor
        for worker_id, load in enumerate(self._outstanding):
            if load < best_load:
                best, best_load = worker_id, load
        return best

    def on_dispatch(self, worker_id: int, batch_id: int) -> None:
        self._outstanding[worker_id] += 1
        if worker_id != batch_id % self.num_workers:
            self.steals += 1
            self._steal_delta += 1

    def on_receipt(self, worker_id: int) -> None:
        if self._outstanding[worker_id] > 0:
            self._outstanding[worker_id] -= 1

    def on_worker_reset(self, worker_id: int) -> None:
        """A worker was replaced; its claim slots are all free again."""
        self._outstanding[worker_id] = 0

    def take_steal_delta(self) -> int:
        """Steals since the last call (consumed by the sched record)."""
        delta = self._steal_delta
        self._steal_delta = 0
        return delta

"""The DataLoader: asynchronous batch production with worker processes.

Replicates the structure the paper instruments (§ II-B):

* the main process coordinates; each worker owns an *index queue* (main →
  worker) and sends results on a *data queue* (worker → main): thread
  workers share one, process workers each have their own, so a worker
  that dies mid-send cannot stall its siblings;
* batches can arrive on the data queues out of order; the main
  process pins them to CPU memory, caches them, and keeps polling until
  the *desired* batch id is at hand — the source of the wait/delay
  pathologies of § V-C2.

Map-style datasets dispatch through one pump fed by a main-process
order book; ``scheduler=`` (DESIGN.md §12) picks its placement and
trigger rules. The default ``"static"`` mode is the policy the paper
instruments and every parity test pins down: batch ``b`` goes to worker
``b % num_workers`` and the pump fires only at yield, which reproduces
round-robin startup prefetch of ``prefetch_factor`` batches per worker
plus one new index batch per consumed batch. ``"stealing"`` places the
oldest undispatched batch on whichever worker frees a claim slot first,
fires at every payload receipt, and widens the aggregate in-flight cap,
so a straggler batch no longer starves the other workers. Both modes
produce bit-identical batches (batch-keyed RNG; asserted by the parity
suite) — ``static`` stays the bit-exact oracle.

LotusTrace's [T2] hook wraps ``_next_data``: a ``batch_wait`` record per
batch, with the 1 us out-of-order marker for batches already cached when
requested; a ``batch_consumed`` record marks when the main process takes
the batch, followed by a per-yield ``sched`` record carrying queue
depth, steal delta, and per-worker prefetch depth.
"""

from __future__ import annotations

import itertools
import logging
import os
import queue as queue_module
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.core.lotustrace.context import batch_scope, current_pid
from repro.core.lotustrace.logfile import PathLike, TraceSink, open_trace_log
from repro.core.lotustrace.records import (
    CACHE_PRIVATE,
    CACHE_SHARED,
    COLLATION_OP_NAME,
    KIND_BATCH_CONSUMED,
    KIND_BATCH_PREPROCESSED,
    KIND_BATCH_WAIT,
    KIND_CACHE_STATS,
    KIND_SCHED,
    KIND_WORKER_RESTART,
    MAIN_PROCESS_WORKER_ID,
    OOO_MARKER_DURATION_NS,
    SCHED_STATIC,
    TraceRecord,
    format_counter_name,
)
from repro.core.lotustrace.logfile import (
    InMemoryTraceLog,
    LotusLogWriter,
    flush_all_writers,
)
from repro.core.lotustrace.records import TRANSPORT_SHM
from repro.data.backends import THREAD_BACKEND, create_backend
from repro.data.cache import CachingLoader
from repro.data.dataset import IterableDataset
from repro.data.shared_cache import (
    DEFAULT_CACHE_CAPACITY_BYTES,
    SharedSampleCache,
)
from repro.data.transport import (
    TRANSPORT_AUTO,
    ShmBatchRef,
    ShmMainTransport,
    TransportSpec,
    next_pool_nonce,
    resolve_transport,
    unlink_worker_generation,
    validate_transport,
)
from repro.data.fetcher import create_fetcher
from repro.data.resilience import FailurePolicy, FaultStats, fetch_with_policy
from repro.data.sampler import (
    BatchSampler,
    DispatchOrderBook,
    InfiniteBatchSampler,
    RandomSampler,
    SequentialSampler,
)
from repro.data.scheduler import (
    StealingScheduler,
    scheduler_buffer_depth,
    validate_scheduler,
)
from repro.data.worker import (
    CLAIM_BATCH_ID,
    HEARTBEAT_BATCH_ID,
    SHUTDOWN_SENTINEL,
    IterableStreamEnd,
    PartialBatch,
    StampedBatch,
    WorkerClaim,
    WorkerFailure,
    WorkerHeartbeat,
    worker_loop,
)
from repro.errors import DataLoaderError, WorkerCrashError, WorkerHungError
from repro.tensor.collate import default_collate, iter_tensors
from repro.tensor.tensor import Tensor

logger = logging.getLogger(__name__)

DEFAULT_WORKER_JOIN_TIMEOUT_S = 5.0

#: Bounded join used when replacing a crashed/hung worker; a thread that
#: stays hung past this is logged as leaked and left to die with the
#: process (it is daemonic and its output is deduplicated away).
RESTART_JOIN_TIMEOUT_S = 1.0


class _InstrumentedCollate:
    """Wraps a collate function with a [T3]-style op record per batch.

    Collation is the per-batch merge step (Table II reports it as C(k));
    it runs inside the worker's ``fetch``, so the record lands on the
    worker's track like any transform.
    """

    def __init__(self, collate_fn: Callable, sink: "TraceSink") -> None:
        self._collate_fn = collate_fn
        self._sink = sink

    def __call__(self, samples):
        import time as _time

        from repro.core.lotustrace.context import (
            current_batch_id,
            current_pid,
            current_worker_id,
        )
        from repro.core.lotustrace.records import KIND_OP

        start = _time.time_ns()
        batch = self._collate_fn(samples)
        duration = _time.time_ns() - start
        self._sink.write(
            TraceRecord(
                kind=KIND_OP,
                name=COLLATION_OP_NAME,
                # The fetch is scoped with batch_scope, so the real batch
                # id is known here; -1 only if called outside a fetch.
                batch_id=current_batch_id(),
                worker_id=current_worker_id(),
                pid=current_pid(),
                start_ns=start,
                duration_ns=duration,
            )
        )
        return batch


def _pin_structure(data: Any) -> Any:
    """Recursively pin tensors in a collated batch.

    Subtrees with no Tensor leaves are returned by reference instead of
    being rebuilt: pinning a tensor-free container can change nothing,
    and the rebuild used to copy every label list / metadata dict on the
    [T2] hot path for no effect.
    """
    if isinstance(data, Tensor):
        return data.pin_memory()
    if isinstance(data, (tuple, list, dict)):
        if next(iter_tensors(data), None) is None:
            return data
        if isinstance(data, tuple):
            return tuple(_pin_structure(item) for item in data)
        if isinstance(data, list):
            return [_pin_structure(item) for item in data]
        return {key: _pin_structure(value) for key, value in data.items()}
    return data


class DataLoader:
    """Batched, optionally multi-worker, optionally traced data loading.

    Args:
        dataset: map-style dataset (``__getitem__``/``__len__``).
        batch_size: samples per batch.
        shuffle: draw a fresh seeded permutation each epoch.
        num_workers: 0 = load synchronously in the calling thread;
            otherwise this many worker threads run :func:`worker_loop`.
        collate_fn: merges a list of samples into a batch.
        pin_memory: pin produced batches to (simulated) page-locked
            memory in the main process.
        drop_last: drop a trailing partial batch.
        prefetch_factor: index batches queued per worker at startup.
        log_file: LotusTrace log target (path or sink). Enables [T1]
            (worker side) and [T2] (main side) records.
        seed: shuffling seed.
        worker_timeout_s: how long ``_next_data`` waits on the data queue
            before checking worker liveness.
        batched_execution: True forces the batched preprocessing engine,
            False forces the per-sample oracle, None (default) defers to
            the ambient ``batch_engine()`` selection (batched wherever
            the transform chain supports it).
        reuse_batch_buffers: reuse the fetcher's preallocated batch
            output arrays across batches. None (default) enables reuse
            only when it is alias-safe without consumer cooperation
            (``num_workers == 0 and pin_memory``, where pinning copies
            the batch out of the arena before the consumer sees it).
            Explicit True opts in elsewhere — consumers must then not
            hold a produced batch across ``next()`` (DESIGN.md §7);
            worker arenas cycle ``prefetch_factor + 2`` buffer
            generations so in-flight batches are never overwritten.
        failure_policy: what workers do when a sample read raises — a
            :class:`~repro.data.resilience.FailurePolicy`, a policy name
            (``"raise"`` | ``"skip_sample"`` | ``"retry"``), or None for
            today's behavior (``raise``). Requires a map-style dataset
            when active. See DESIGN.md §8.
        max_worker_restarts: total dead/hung workers the supervisor may
            replace per epoch before escalating (0 = never restart,
            surface :class:`WorkerCrashError` / :class:`WorkerHungError`
            as before). Replacement workers inherit the worker id and
            seed stream, and in-flight index batches are re-dispatched,
            so replayed batches stay bit-identical.
        hang_timeout_s: with workers supervised, a worker holding
            in-flight work with no activity (payload or heartbeat) for
            this long is declared hung and handled like a crash. Must
            comfortably exceed the worst-case single fetch. None
            disables hang detection.
        heartbeat_interval_s: how often idle workers ship liveness
            beacons (and ``heartbeat`` trace records). Defaults to
            ``hang_timeout_s / 4`` when hang detection is on, else off —
            the fault-free hot path keeps today's untimed blocking wait.
        transport: how workers hand finished batches to the main
            process (DESIGN.md §10). ``"auto"`` (default) picks
            shared-memory slabs (``"shm"``) on the process backend and
            the by-reference inline hand-off on the thread backend;
            ``"pickle"`` keeps the classic mp-queue serialization as a
            parity oracle. Explicit values require the process backend.
            With ``"shm"``, yielded batches are zero-copy views into
            worker-owned slabs recycled ``prefetch_factor + 2`` batches
            deep — safe to hold across one ``next()`` (the current
            batch is never recycled under the consumer), but consumers
            retaining many batches should pick ``"pickle"``.
        cache: decoded-sample caching mode (DESIGN.md §11). ``None``
            (default) decodes every access as before. ``"private"``
            wraps ``dataset.loader`` in a per-process
            :class:`CachingLoader` — with the process backend every
            worker decodes (and stores) its own copy of each image.
            ``"shared"`` places decoded pixels in one fixed-capacity
            shared-memory arena attached by every worker: each image is
            decoded exactly once per machine per epoch set, hits are
            zero-copy read-only views, and eviction is
            CLOCK/second-chance gated by per-entry pin counts. Requires
            a map-style dataset with a callable ``loader`` attribute
            (which is wrapped in place); each batch emits a
            ``cache_stats`` trace record when tracing is on.
        cache_capacity_bytes: shared-arena size for ``cache="shared"``
            (default 256 MiB; ignored otherwise).
        scheduler: batch-dispatch policy (DESIGN.md §12), ``"static"``
            or ``"stealing"``. ``"static"`` (default) keeps the paper's
            round-robin prefetch + replenish-on-consume dispatch: batch
            ``b`` always runs on worker ``b % num_workers``, bit-exact
            with every earlier release — it is the parity oracle.
            ``"stealing"`` dispatches the oldest undispatched batch to
            the least-loaded worker with a free claim slot at payload
            receipt, widening the aggregate in-flight cap to
            ``num_workers * (prefetch_factor + 2)`` so stragglers stop
            starving replenishment. Stealing requires
            ``num_workers > 0`` and a map-style dataset; both modes
            yield bit-identical batches.
    """

    def __init__(
        self,
        dataset: Any,
        batch_size: int = 1,
        shuffle: bool = False,
        num_workers: int = 0,
        collate_fn: Callable = default_collate,
        pin_memory: bool = False,
        drop_last: bool = False,
        prefetch_factor: int = 2,
        log_file: Union[PathLike, TraceSink, None] = None,
        seed: Optional[int] = None,
        worker_timeout_s: float = 60.0,
        worker_backend: str = THREAD_BACKEND,
        persistent_workers: bool = False,
        batched_execution: Optional[bool] = None,
        reuse_batch_buffers: Optional[bool] = None,
        failure_policy: Union[FailurePolicy, str, None] = None,
        max_worker_restarts: int = 0,
        hang_timeout_s: Optional[float] = None,
        heartbeat_interval_s: Optional[float] = None,
        transport: str = TRANSPORT_AUTO,
        cache: Optional[str] = None,
        cache_capacity_bytes: int = DEFAULT_CACHE_CAPACITY_BYTES,
        scheduler: str = SCHED_STATIC,
    ) -> None:
        if num_workers < 0:
            raise DataLoaderError(f"num_workers must be >= 0, got {num_workers}")
        if prefetch_factor < 1:
            raise DataLoaderError(
                f"prefetch_factor must be >= 1, got {prefetch_factor}"
            )
        if persistent_workers:
            if num_workers == 0:
                raise DataLoaderError(
                    "persistent_workers requires num_workers > 0"
                )
            if isinstance(dataset, IterableDataset):
                raise DataLoaderError(
                    "persistent_workers is not supported for iterable "
                    "datasets (each worker's stream is consumed once)"
                )
        self.failure_policy = FailurePolicy.resolve(failure_policy)
        if max_worker_restarts < 0:
            raise DataLoaderError(
                f"max_worker_restarts must be >= 0, got {max_worker_restarts}"
            )
        if hang_timeout_s is not None and hang_timeout_s <= 0:
            raise DataLoaderError(
                f"hang_timeout_s must be > 0, got {hang_timeout_s}"
            )
        if heartbeat_interval_s is not None and heartbeat_interval_s <= 0:
            raise DataLoaderError(
                f"heartbeat_interval_s must be > 0, got {heartbeat_interval_s}"
            )
        if isinstance(dataset, IterableDataset):
            if self.failure_policy.active:
                raise DataLoaderError(
                    "failure policies require a map-style dataset (the "
                    "per-sample skip/retry path reads dataset[index])"
                )
            if max_worker_restarts > 0:
                raise DataLoaderError(
                    "max_worker_restarts is not supported for iterable "
                    "datasets (a replacement worker cannot replay a "
                    "consumed stream position)"
                )
        self.scheduler = validate_scheduler(
            scheduler, num_workers, isinstance(dataset, IterableDataset)
        )
        self.max_worker_restarts = max_worker_restarts
        self.hang_timeout_s = hang_timeout_s
        if heartbeat_interval_s is None and hang_timeout_s is not None:
            # Idle workers must beacon well inside the hang window or an
            # empty index queue would read as a hang.
            heartbeat_interval_s = hang_timeout_s / 4.0
        self.heartbeat_interval_s = heartbeat_interval_s
        #: Per-epoch fault accounting; reset by each ``__iter__``.
        self.fault_stats = FaultStats()
        self.persistent_workers = persistent_workers
        self._pool: Optional["_WorkerPool"] = None
        self.worker_backend = worker_backend
        backend = create_backend(worker_backend)  # validate the name eagerly
        validate_transport(transport, num_workers, backend.is_process)
        self.transport = transport
        # Decoded-sample cache (DESIGN.md §11): wrap dataset.loader in a
        # CachingLoader before any worker exists, so forked workers
        # inherit the wrapper (and, in shared mode, the arena mappings
        # and fork-shared locks inside it).
        self.cache = cache
        self._shared_cache: Optional[SharedSampleCache] = None
        self._cache_loader: Optional[CachingLoader] = None
        if cache is not None:
            if cache not in (CACHE_PRIVATE, CACHE_SHARED):
                raise DataLoaderError(
                    f"cache must be None, {CACHE_PRIVATE!r}, or "
                    f"{CACHE_SHARED!r}, got {cache!r}"
                )
            if isinstance(dataset, IterableDataset):
                raise DataLoaderError(
                    "cache= needs a map-style dataset with a loader "
                    "attribute (iterable streams have no keyed sources)"
                )
            base_loader = getattr(dataset, "loader", None)
            if not callable(base_loader):
                raise DataLoaderError(
                    "cache= needs a dataset with a callable .loader "
                    "attribute to wrap (e.g. BlobImageDataset)"
                )
            if isinstance(base_loader, CachingLoader):
                raise DataLoaderError(
                    "dataset.loader is already a CachingLoader; pass "
                    "cache=None and manage it yourself, or hand the "
                    "DataLoader the unwrapped loader"
                )
            if cache == CACHE_SHARED:
                # Same discipline as the shm transport: the resource
                # tracker must exist before workers fork, or a child's
                # private tracker would unlink segments the main process
                # still owns.
                from multiprocessing import resource_tracker

                resource_tracker.ensure_running()
                self._shared_cache = SharedSampleCache(
                    capacity_bytes=cache_capacity_bytes,
                    max_readers=num_workers + 1,
                    nonce=next_pool_nonce(),
                )
                self._cache_loader = CachingLoader(
                    base_loader, shared=self._shared_cache
                )
            else:
                self._cache_loader = CachingLoader(base_loader)
            dataset.loader = self._cache_loader
        self.dataset = dataset
        self.batch_size = batch_size
        self.num_workers = num_workers
        self._log_target = log_file
        self._sink: Optional[TraceSink] = open_trace_log(log_file)
        if self._sink is not None:
            collate_fn = _InstrumentedCollate(collate_fn, self._sink)
        self.collate_fn = collate_fn
        self.pin_memory = pin_memory
        self.drop_last = drop_last
        self.prefetch_factor = prefetch_factor
        self.batched_execution = batched_execution
        if reuse_batch_buffers is None:
            # Auto-reuse only where aliasing cannot bite without consumer
            # cooperation: synchronous loading with pin_memory copies the
            # batch out of the arena before the consumer sees it.
            reuse_batch_buffers = num_workers == 0 and pin_memory
        self.reuse_batch_buffers = reuse_batch_buffers
        # Worker arenas must survive the data queue plus OOO caching.
        # Static dispatch bounds each worker's in-flight batches by
        # prefetch_factor, so prefetch_factor + 2 generations suffice;
        # under stealing a single worker can transiently own every
        # in-flight batch, so the ring widens to the aggregate cap
        # (slab slots are created lazily, so the wider universe costs
        # memory only for concurrency that actually happens).
        if num_workers == 0:
            self.batch_buffer_depth = 1
        elif self.scheduler == SCHED_STATIC:
            self.batch_buffer_depth = prefetch_factor + 2
        else:
            self.batch_buffer_depth = scheduler_buffer_depth(
                num_workers, prefetch_factor
            )
        self.seed = seed
        self.worker_timeout_s = worker_timeout_s
        if isinstance(dataset, IterableDataset):
            # Streams have no indices: tasks carry only a count, and the
            # epoch ends on stream exhaustion, not sampler exhaustion.
            if shuffle:
                raise DataLoaderError(
                    "shuffle is not supported for iterable datasets; "
                    "shuffle inside the stream instead"
                )
            self.batch_sampler: Any = InfiniteBatchSampler(batch_size)
        else:
            sampler = (
                RandomSampler(dataset, seed=seed)
                if shuffle
                else SequentialSampler(dataset)
            )
            self.batch_sampler = BatchSampler(sampler, batch_size, drop_last)

    def __len__(self) -> int:
        if isinstance(self.batch_sampler, InfiniteBatchSampler):
            raise TypeError(
                "DataLoader over an iterable dataset has no length"
            )
        return len(self.batch_sampler)

    def __iter__(self) -> Iterator[Any]:
        self.fault_stats = FaultStats()
        if self._shared_cache is not None and self._shared_cache.unlinked:
            raise DataLoaderError(
                "this DataLoader's shared cache arena was unlinked by "
                "close(); create a new DataLoader to iterate again"
            )
        if self.num_workers == 0:
            return _SingleProcessIter(self)
        if not self.persistent_workers:
            return _MultiWorkerIter(self)
        if self._pool is None or self._pool.dirty or self._pool.closed:
            self._pool = _WorkerPool(self)
        return _MultiWorkerIter(self, pool=self._pool)

    def close(self) -> None:
        """Shut down a persistent worker pool and retire the shared cache.

        The main process is the shared arena's single unlink owner
        (DESIGN.md §11): segments are unlinked here, after the pool (and
        with it every worker holding pins) has quiesced. The loader
        cannot be iterated again once the arena is gone.
        """
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
        if self._cache_loader is not None:
            self._cache_loader.release_pins()
        if self._shared_cache is not None:
            self._shared_cache.unlink()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass

    @property
    def log_sink(self) -> Optional[TraceSink]:
        return self._sink


class _SingleProcessIter:
    """num_workers=0: fetch inline in the consuming thread."""

    def __init__(self, loader: DataLoader) -> None:
        self._loader = loader
        self._fetcher = create_fetcher(
            loader.dataset,
            loader.collate_fn,
            batched=loader.batched_execution,
            reuse_buffers=loader.reuse_batch_buffers,
            buffer_depth=loader.batch_buffer_depth,
        )
        self._batches = iter(loader.batch_sampler)
        self._batch_id = 0
        self._pid = current_pid()
        # Cache hooks (DESIGN.md §11), duck-typed off dataset.loader like
        # the worker loop's — the main process is shared-cache reader 0
        # (the CachingLoader default, so no bind is needed here).
        cache_loader = getattr(loader.dataset, "loader", None)
        self._consume_cache_stats = getattr(
            cache_loader, "consume_batch_stats", None
        )
        self._advance_cache_batch = getattr(cache_loader, "advance_batch", None)
        self._release_cache_pins = getattr(cache_loader, "release_pins", None)

    def __iter__(self) -> "_SingleProcessIter":
        return self

    def __next__(self) -> Any:
        loader = self._loader
        policy = loader.failure_policy
        stats = loader.fault_stats
        while True:
            try:
                indices = next(self._batches)
            except StopIteration:
                # Epoch over: release this iterator's shared-cache pins
                # (entries stay cached for the next epoch, now evictable)
                # and spill any buffered trace lines so readers see a
                # complete log without waiting for writer close.
                if self._release_cache_pins is not None:
                    self._release_cache_pins()
                flush_all_writers()
                raise
            start = time.time_ns()
            skipped: Tuple[int, ...] = ()
            retried = 0
            with batch_scope(self._batch_id):
                if policy.active:
                    # The policy path bypasses the fetcher (and its
                    # cache-pin scope rotation): rotate here.
                    if self._advance_cache_batch is not None:
                        self._advance_cache_batch()
                    data, skipped_list, retried = fetch_with_policy(
                        loader.dataset,
                        indices,
                        loader.collate_fn,
                        policy,
                        loader._sink,
                    )
                    skipped = tuple(skipped_list)
                else:
                    data = self._fetcher.fetch(indices)
            duration = time.time_ns() - start
            if loader._sink is not None:
                loader._sink.write(
                    TraceRecord(
                        kind=KIND_BATCH_PREPROCESSED,
                        name="fetch",
                        batch_id=self._batch_id,
                        worker_id=MAIN_PROCESS_WORKER_ID,
                        pid=self._pid,
                        start_ns=start,
                        duration_ns=duration,
                    )
                )
                if self._consume_cache_stats is not None:
                    loader._sink.write(
                        TraceRecord(
                            kind=KIND_CACHE_STATS,
                            name=format_counter_name(
                                KIND_CACHE_STATS, *self._consume_cache_stats()
                            ),
                            batch_id=self._batch_id,
                            worker_id=MAIN_PROCESS_WORKER_ID,
                            pid=self._pid,
                            start_ns=start + duration,
                            duration_ns=0,
                        )
                    )
            stats.delivered_samples += len(indices) - len(skipped)
            stats.skipped_samples += len(skipped)
            stats.skipped_indices.extend(skipped)
            stats.retried_samples += retried
            if data is None:
                # Every sample skipped: nothing to yield or consume —
                # move straight to the next index batch.
                self._batch_id += 1
                continue
            break
        if loader.pin_memory:
            data = _pin_structure(data)
        if loader._sink is not None:
            consumed_at = time.time_ns()
            loader._sink.write(
                TraceRecord(
                    kind=KIND_BATCH_CONSUMED,
                    name="consume",
                    batch_id=self._batch_id,
                    worker_id=MAIN_PROCESS_WORKER_ID,
                    pid=self._pid,
                    start_ns=consumed_at,
                    duration_ns=max(0, consumed_at - start - duration),
                )
            )
        self._batch_id += 1
        return data



class _WorkerPool:
    """Backend, queues, and worker handles, reusable across epochs.

    With ``persistent_workers`` the DataLoader keeps one pool alive and
    hands it to each epoch's iterator, avoiding per-epoch worker startup
    (PyTorch's option of the same name). A pool abandoned mid-epoch is
    marked dirty and replaced, since its queues may hold stale payloads.
    """

    def __init__(self, loader: "DataLoader") -> None:
        self._loader = loader
        self.backend = create_backend(loader.worker_backend)
        self.num_workers = loader.num_workers
        self.index_queues = [
            self.backend.make_queue() for _ in range(loader.num_workers)
        ]
        # One channel per process worker, one shared queue for threads
        # (backends.py): a hard death poisons only its own channel.
        self.data_channels = self.backend.make_data_channels(
            loader.num_workers
        )
        self.dirty = False
        self._closed = False
        #: Slab descriptor of the batch the consumer holds, acked on the
        #: next yield (shm transport). It lives on the pool, not the
        #: iterator, so a persistent pool's next epoch acks the previous
        #: epoch's last batch instead of losing its slot token.
        self.held_ref: Optional[ShmBatchRef] = None
        #: Restart generation per worker id; bumped by :meth:`respawn` so
        #: stale payloads/failures from replaced incarnations can be
        #: recognized and dropped.
        self.generations = [0] * loader.num_workers
        # Batch transport (DESIGN.md §10): resolve the knob against the
        # backend; the shm carrier additionally needs a per-worker ack
        # ring (slot reclamation) and the main-side attachment cache.
        self.transport_mode = resolve_transport(
            loader.transport, self.backend.is_process
        )
        self.main_pid = os.getpid()
        self.nonce = next_pool_nonce()
        if self.transport_mode == TRANSPORT_SHM:
            # Spawn the resource tracker *before* forking: children must
            # inherit the parent's tracker or each would lazily start its
            # own, and a private tracker outliving its worker unlinks
            # (and warns about) segments the main process still owns.
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
            self.ack_queues: Optional[List[Any]] = [
                self.backend.make_queue() for _ in range(loader.num_workers)
            ]
            self.main_transport: Optional[ShmMainTransport] = ShmMainTransport()
        else:
            self.ack_queues = None
            self.main_transport = None
        # Spill buffered trace lines before spawning: a forked worker must
        # not inherit (and later re-write) the parent's pending lines.
        flush_all_writers()
        self._worker_log = self._worker_log_target(loader)
        self.workers = [
            self._start(worker_id) for worker_id in range(loader.num_workers)
        ]

    def _transport_spec(self, worker_id: int) -> TransportSpec:
        if self.transport_mode == TRANSPORT_SHM:
            return TransportSpec(
                mode=TRANSPORT_SHM,
                main_pid=self.main_pid,
                nonce=self.nonce,
                depth=self._loader.batch_buffer_depth,
                ack_queue=self.ack_queues[worker_id],
            )
        return TransportSpec(mode=self.transport_mode)

    def _start(self, worker_id: int):
        """Start (or restart) the worker for ``worker_id`` on its
        current index queue and generation."""
        loader = self._loader
        return self.backend.start_worker(
            worker_loop,
            args=(
                worker_id,
                loader.dataset,
                self.index_queues[worker_id],
                self.data_channels.for_worker(worker_id),
                loader.collate_fn,
            ),
            kwargs={
                "log_target": self._worker_log,
                "is_process_worker": self.backend.is_process,
                "num_workers": loader.num_workers,
                "batched_execution": loader.batched_execution,
                "reuse_batch_buffers": loader.reuse_batch_buffers,
                "batch_buffer_depth": loader.batch_buffer_depth,
                "failure_policy": loader.failure_policy,
                "heartbeat_interval_s": loader.heartbeat_interval_s,
                "restart_generation": self.generations[worker_id],
                "transport_spec": self._transport_spec(worker_id),
                "emit_claims": loader.scheduler != SCHED_STATIC,
            },
            name=f"repro-dataloader-worker-{worker_id}",
        )

    def respawn(self, worker_id: int) -> int:
        """Replace a dead/hung worker with a fresh incarnation.

        The replacement keeps the worker id (and therefore the RNG seed
        stream) but gets a *new* index queue — the old queue may hold
        tasks a hung worker will eventually drain — a new data channel
        on the process backend (the dead worker may have died holding
        its old channel's write lock, or mid-message), and a bumped
        generation. The dead generation's shm slabs are unlinked here
        (the supervisor is the single unlink owner; already-resolved
        views stay valid through the main process's mappings) and the
        replacement gets a fresh ack ring, since slot tokens of the old
        incarnation mean nothing to the new one. Returns the new
        generation.
        """
        dead_generation = self.generations[worker_id]
        self.generations[worker_id] += 1
        self.index_queues[worker_id] = self.backend.make_queue()
        self.data_channels.replace(worker_id)
        if self._loader._shared_cache is not None:
            # Sweep the dead incarnation out of the shared cache before
            # its replacement (same reader id, bumped generation) starts:
            # release its pins and revoke its in-flight claims so entries
            # it was reading stay evictable and keys it was decoding can
            # be re-claimed (DESIGN.md §11).
            self._loader._shared_cache.release_reader(worker_id + 1)
        if self.transport_mode == TRANSPORT_SHM:
            unlink_worker_generation(
                self.main_pid,
                self.nonce,
                worker_id,
                dead_generation,
                self._loader.batch_buffer_depth,
            )
            self.backend.close_queue(self.ack_queues[worker_id])
            self.ack_queues[worker_id] = self.backend.make_queue()
        flush_all_writers()
        self.workers[worker_id] = self._start(worker_id)
        return self.generations[worker_id]

    def _worker_log_target(self, loader: "DataLoader"):
        """What workers log to: the shared sink for threads, the file
        *path* for processes (each child reopens it in append mode --
        in-memory sinks cannot cross the fork)."""
        sink = loader._sink
        if sink is None:
            return None
        if not self.backend.is_process:
            return sink
        if isinstance(sink, LotusLogWriter):
            return sink.path
        raise DataLoaderError(
            "process-backed workers need a file-based LotusTrace log; "
            "in-memory sinks are invisible across the fork"
        )

    def shutdown(self) -> None:
        """Send sentinels, drain-and-join every worker, escalate only to
        stragglers, then release queues and shared-memory (idempotent).

        Live workers' data channels are drained *between* join
        attempts: a worker blocked in ``data_queue.put`` (queue full,
        epoch abandoned) can then complete the put, reach its sentinel,
        and exit cleanly — previously it ate the hard ``terminate()``
        fallback every time.
        Afterwards the mp queues are released with ``cancel_join_thread``
        + ``close`` so no feeder thread blocks interpreter exit, and
        every worker's current slab generation is unlinked.
        """
        if self._closed:
            return
        self._closed = True
        for index_queue in self.index_queues:
            index_queue.put(SHUTDOWN_SENTINEL)
        for worker_id, handle in enumerate(self.workers):
            deadline = time.monotonic() + DEFAULT_WORKER_JOIN_TIMEOUT_S
            while True:
                self.data_channels.drain(self.is_alive)
                self.backend.join(handle, timeout=0.2)
                if not self.backend.is_alive(handle):
                    break
                if time.monotonic() >= deadline:
                    break
            if self.backend.is_alive(handle):
                self.backend.terminate(handle)
                self.backend.join(handle, timeout=RESTART_JOIN_TIMEOUT_S)
            if self.backend.is_alive(handle):
                logger.warning(
                    "dataloader worker %d leaked at shutdown (still alive "
                    "after sentinel + terminate; daemonic, will die with "
                    "the process)",
                    worker_id,
                )
        self._release_transport()

    def _release_transport(self) -> None:
        """Close queues and reclaim shm after the workers have quiesced."""
        queues: List[Any] = list(self.index_queues)
        if self.ack_queues is not None:
            queues.extend(self.ack_queues)
        for q in queues:
            self.backend.drain_queue(q)
            self.backend.close_queue(q)
        self.data_channels.drain(self.is_alive)
        self.data_channels.close()
        if self.transport_mode == TRANSPORT_SHM:
            for worker_id in range(self.num_workers):
                unlink_worker_generation(
                    self.main_pid,
                    self.nonce,
                    worker_id,
                    self.generations[worker_id],
                    self._loader.batch_buffer_depth,
                )
            if self.main_transport is not None:
                self.main_transport.close()

    def is_alive(self, worker_id: int) -> bool:
        return self.backend.is_alive(self.workers[worker_id])

    @property
    def closed(self) -> bool:
        return self._closed


class _MultiWorkerIter:
    """Multi-worker iterator with index/data queues and OOO caching."""

    def __init__(
        self, loader: DataLoader, pool: Optional[_WorkerPool] = None
    ) -> None:
        self._loader = loader
        self._pid = current_pid()
        self._sink = loader._sink
        self._owns_pool = pool is None
        self._pool = pool if pool is not None else _WorkerPool(loader)
        self._backend = self._pool.backend
        self._index_queues = self._pool.index_queues
        self._data_channels = self._pool.data_channels
        self._workers = self._pool.workers
        # The order book fronts the batch sampler: it stamps batch ids,
        # retains dispatched indices until yield (restart replay /
        # partial-batch accounting), and holds supervisor-requeued
        # batches at the ready front (DESIGN.md §12).
        self._book = DispatchOrderBook(loader.batch_sampler)
        self._send_idx = 0  # next batch id to dispatch
        self._rcvd_idx = 0  # next batch id to yield
        # batch_id -> (worker_id,) while outstanding, (worker_id, data)
        # once arrived ahead of need.
        self._task_info: Dict[int, Tuple] = {}
        # batch_id -> confirmed executor (from WorkerClaim receipts);
        # stealing only. Lets the supervisor count how many of a dead
        # worker's swept claims had actually been picked up.
        self._claims: Dict[int, int] = {}
        # Map-style datasets dispatch through the pump under either
        # mode; iterable streams keep _try_put_index (no scheduler).
        self._sched: Optional[StealingScheduler] = None
        if not isinstance(loader.dataset, IterableDataset):
            self._sched = StealingScheduler(
                loader.num_workers, loader.prefetch_factor, loader.scheduler
            )
        # Shm transport bookkeeping: the slab descriptor behind each
        # resolved-but-unyielded batch (the held one lives on the pool).
        self._resolved_refs: Dict[int, ShmBatchRef] = {}
        self._worker_cycle = itertools.cycle(range(loader.num_workers))
        self._exhausted_workers: set = set()
        self._shutdown = False
        self._stats = loader.fault_stats
        self._restarts_used = 0
        now = time.monotonic()
        self._last_activity = [now] * loader.num_workers
        # Startup prefetch: prefetch_factor index batches per worker,
        # round-robin (the paper's § II-B fill). Both pump modes produce
        # this order — home placement, or least-loaded ties broken
        # toward the lowest worker id.
        if self._sched is None:
            for _ in range(loader.prefetch_factor):
                for worker_id in range(loader.num_workers):
                    self._try_put_index(worker_id)
        else:
            self._pump()

    # -- index dispatch --------------------------------------------------------
    def _try_put_index(self, worker_id: Optional[int] = None) -> bool:
        """Iterable-stream dispatch: the next batch goes to ``worker_id``
        (round-robin past exhausted shards), which fixes stream order."""
        if len(self._exhausted_workers) >= self._loader.num_workers:
            return False
        if worker_id is None or worker_id in self._exhausted_workers:
            worker_id = None
            for _ in range(self._loader.num_workers):
                candidate = next(self._worker_cycle)
                if candidate not in self._exhausted_workers:
                    worker_id = candidate
                    break
            if worker_id is None:
                return False
        drawn = self._book.draw()
        if drawn is None:
            return False
        batch_id, indices = drawn
        self._task_info[batch_id] = (worker_id,)
        self._index_queues[worker_id].put((batch_id, indices))
        self._send_idx = batch_id + 1
        return True

    def _pump(self) -> None:
        """Map-style dispatch for both scheduler modes (DESIGN.md §12).

        Hands the oldest ready batch (supervisor requeues first) to the
        worker the scheduler places it on, repeating until placement
        finds no free slot, the in-flight window is full, or the book
        runs dry. Requeued batches bypass the window — they already sit
        inside ``[rcvd, send)``."""
        sched = self._sched
        book = self._book
        while True:
            if (
                not book.has_requeued()
                and self._send_idx - self._rcvd_idx >= sched.max_inflight
            ):
                return
            batch_id = book.peek_id()
            if batch_id is None:
                return
            worker_id = sched.select_worker(batch_id)
            if worker_id is None:
                return
            _, indices = book.draw()
            self._task_info[batch_id] = (worker_id,)
            sched.on_dispatch(worker_id, batch_id)
            self._index_queues[worker_id].put((batch_id, indices))
            self._send_idx = max(self._send_idx, batch_id + 1)

    # -- supervision -------------------------------------------------------------
    def _note_activity(self, worker_id: int) -> None:
        if 0 <= worker_id < len(self._last_activity):
            self._last_activity[worker_id] = time.monotonic()

    def _outstanding_for(self, worker_id: int) -> List[int]:
        """Batch ids dispatched to ``worker_id`` with no payload yet."""
        return sorted(
            batch_id
            for batch_id, info in self._task_info.items()
            if len(info) == 1 and info[0] == worker_id
        )

    def _check_workers(self) -> None:
        """Supervise every worker once: dead or hung workers holding
        in-flight batches are restarted (restart budget permitting) or
        escalated. Called on *every* data-queue poll iteration, not just
        timeouts, so a crash is never masked by a busy queue."""
        if self._shutdown:
            return
        hang_timeout = self._loader.hang_timeout_s
        now = time.monotonic()
        for worker_id, handle in enumerate(self._workers):
            if not self._outstanding_for(worker_id):
                continue
            if not self._backend.is_alive(handle):
                self._handle_worker_death(worker_id, "crash")
            elif (
                hang_timeout is not None
                and now - self._last_activity[worker_id] > hang_timeout
            ):
                self._handle_worker_death(worker_id, "hang")

    def _handle_worker_death(self, worker_id: int, reason: str) -> None:
        if self._restarts_used >= self._loader.max_worker_restarts:
            self._shutdown_workers()
            if reason == "hang":
                raise WorkerHungError(worker_id, self._loader.hang_timeout_s)
            raise WorkerCrashError(worker_id, "worker died")
        self._restart_worker(worker_id, reason)

    def _restart_worker(self, worker_id: int, reason: str) -> None:
        """Replace ``worker_id`` and replay its in-flight index batches.

        The old incarnation is cooperatively cancelled (and hard-killed
        on the process backend); its index queue is abandoned with a
        sentinel so a blocked thread wakes and exits. The replacement
        keeps the worker id and seed stream; the dead worker's in-flight
        batches go back through the order book and the pump, oldest
        first. Static's home placement returns them all to the
        replacement in batch-id order, so the replayed batches are
        bit-identical to what the dead worker would have produced.
        """
        self._restarts_used += 1
        self._stats.worker_restarts += 1
        old_handle = self._workers[worker_id]
        old_queue = self._index_queues[worker_id]
        self._backend.terminate(old_handle)
        old_queue.put(SHUTDOWN_SENTINEL)
        self._backend.join(old_handle, timeout=RESTART_JOIN_TIMEOUT_S)
        if self._backend.is_alive(old_handle):
            logger.warning(
                "dataloader worker %d (%s) leaked during restart; its "
                "cancel flag is set so any late payload is dropped",
                worker_id,
                reason,
            )
        self._pool.respawn(worker_id)
        # Sweep the dead worker's claims back through the order book;
        # the pump re-dispatches them oldest-first (the reset worker has
        # free slots, so at least the oldest goes out immediately). RNG
        # keys on batch id, so whoever ends up executing a swept batch
        # reproduces it bit-exactly.
        replay = self._outstanding_for(worker_id)
        if not self._sched.static:
            # Every outstanding batch counts as a reclaimed claim: the
            # WorkerClaim confirmation may never reach us (os._exit can
            # kill the mp queue's feeder thread before it flushes), so
            # the swept dispatch list is the authoritative tally.
            self._stats.stolen_claims_reclaimed += len(replay)
        for batch_id in replay:
            self._claims.pop(batch_id, None)
            del self._task_info[batch_id]
        self._sched.on_worker_reset(worker_id)
        self._book.requeue(replay)
        self._pump()
        if self._sink is not None:
            self._sink.write(
                TraceRecord(
                    kind=KIND_WORKER_RESTART,
                    name=reason,
                    batch_id=-1,
                    worker_id=worker_id,
                    pid=self._pid,
                    start_ns=time.time_ns(),
                    duration_ns=0,
                )
            )
        self._note_activity(worker_id)

    # -- data receipt ------------------------------------------------------------
    def _get_data(self) -> Tuple[int, Any]:
        """Blocking data-queue read with per-iteration worker supervision.

        Heartbeat payloads are consumed here (they refresh the sending
        worker's activity clock and never reach ``_next_data``)."""
        deadline = time.monotonic() + self._loader.worker_timeout_s
        while True:
            self._check_workers()
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self._shutdown_workers()
                raise DataLoaderError(
                    f"timed out after {self._loader.worker_timeout_s}s waiting "
                    f"for batch {self._rcvd_idx}"
                )
            try:
                batch_id, payload = self._data_channels.get(
                    min(0.1, max(remaining, 0.01)), self._pool.is_alive
                )
            except queue_module.Empty:
                continue
            if batch_id == HEARTBEAT_BATCH_ID and isinstance(
                payload, WorkerHeartbeat
            ):
                self._stats.heartbeats += 1
                self._note_activity(payload.worker_id)
                continue
            if batch_id == CLAIM_BATCH_ID and isinstance(payload, WorkerClaim):
                # A worker announcing it dequeued a task (non-static
                # modes). Stale generations are ignored — their batches
                # were already swept and requeued.
                self._note_activity(payload.worker_id)
                if (
                    payload.generation
                    == self._pool.generations[payload.worker_id]
                ):
                    self._claims[payload.batch_id] = payload.worker_id
                    self._stats.claims_confirmed += 1
                continue
            return batch_id, payload

    # -- shm transport (DESIGN.md §10) -----------------------------------------
    def _resolve_payload(self, batch_id: int, payload: Any) -> Any:
        """Materialize a slab descriptor into its zero-copy payload.

        Returns the payload unchanged when no descriptor is involved
        (pickle/inline carriers, control payloads), or ``None`` when the
        descriptor is stale: shipped by a replaced worker generation, or
        pointing at a segment the supervisor already unlinked. Stale
        descriptors are safe to drop — the batch was (or will be)
        replayed under the replacement generation.

        Resolution is eager, at receipt: an out-of-order batch cached
        for later must be attached *now*, while its segment is still
        linked — a restart of its worker may unlink the name before the
        batch's turn comes, and an existing mapping survives that where
        a late attach would not.
        """
        ref: Optional[ShmBatchRef] = None
        if isinstance(payload, ShmBatchRef):
            ref = payload
        elif isinstance(payload, PartialBatch) and isinstance(
            payload.data, ShmBatchRef
        ):
            ref = payload.data
        if ref is None:
            return payload
        transport = self._pool.main_transport
        if (
            transport is None
            or ref.generation < self._pool.generations[ref.worker_id]
        ):
            return None
        try:
            data = transport.resolve(ref)
        except FileNotFoundError:
            return None
        self._resolved_refs[batch_id] = ref
        if isinstance(payload, PartialBatch):
            payload.data = data
            return payload
        return data

    def _ack_slab(self, batch_id: int) -> None:
        """Deferred slot reclamation: release the *previously* yielded
        batch's slab slot back to its worker's ack ring, then hold this
        batch's descriptor until the next yield. Slots of replaced
        generations are never acked — the fresh incarnation's ring
        starts with all slots free, and a stale token would double-book
        one."""
        pool = self._pool
        previous = pool.held_ref
        pool.held_ref = self._resolved_refs.pop(batch_id, None)
        if (
            previous is not None
            and pool.ack_queues is not None
            and previous.generation == pool.generations[previous.worker_id]
        ):
            pool.ack_queues[previous.worker_id].put(previous.slot)

    def _next_data(self) -> Tuple[int, Any, int]:
        """Return (worker_id, data, wait_record_written) for _rcvd_idx.

        This is the paper's [T2] site: the wait is the blocking
        ``_get_data`` loop; batches already cached get the 1 us marker.
        """
        rcvd = self._rcvd_idx
        info = self._task_info.get(rcvd)
        if info is None:
            raise DataLoaderError(f"batch {rcvd} was never dispatched")
        start_wait = time.time_ns()
        if len(info) == 2:
            # Arrived earlier while the main process waited on another
            # batch: no waiting now — emit the out-of-order marker.
            self._emit_wait(rcvd, start_wait, OOO_MARKER_DURATION_NS, True)
            worker_id, data = info
            del self._task_info[rcvd]
            return worker_id, data
        while True:
            batch_id, payload = self._get_data()
            if isinstance(payload, WorkerFailure):
                if payload.generation < self._pool.generations[payload.worker_id]:
                    # A replaced incarnation's dying words; its batch was
                    # already re-dispatched.
                    self._stats.stale_batches += 1
                    continue
                self._note_activity(payload.worker_id)
                self._shutdown_workers()
                raise WorkerCrashError(payload.worker_id, payload.describe())
            if isinstance(payload, StampedBatch):
                # Non-shm payload under a stealing scheduler: a replaced
                # incarnation's late duplicate must be dropped *before*
                # it can credit the batch's new assignee with activity
                # or a receipt (the shm path gets the same check from
                # the slab descriptor in _resolve_payload below).
                if (
                    payload.generation
                    < self._pool.generations[payload.worker_id]
                ):
                    self._stats.stale_batches += 1
                    continue
                payload = payload.data
            info = self._task_info.get(batch_id)
            if info is None or len(info) == 2:
                # Unknown or already-delivered batch id: a late duplicate
                # from a worker that was declared hung, then woke up and
                # shipped before noticing its cancel flag. Drop it — the
                # replayed copy is the one we account.
                self._stats.stale_batches += 1
                continue
            payload = self._resolve_payload(batch_id, payload)
            if payload is None:
                # A dead generation's descriptor whose slab is gone (or
                # going); the replacement worker replays the batch.
                self._stats.stale_batches += 1
                continue
            self._note_activity(info[0])
            if self._sched is not None:
                # Receipt frees one of the producer's claim slots. Under
                # stealing this is the steal site — dispatch the oldest
                # undispatched batch to whichever worker has capacity.
                self._sched.on_receipt(info[0])
                if not self._sched.static:
                    self._pump()
            if isinstance(payload, IterableStreamEnd):
                # This worker's iterable shard is exhausted; stop feeding
                # it and skip the unfillable batch id when its turn comes.
                self._exhausted_workers.add(payload.worker_id)
                if batch_id == rcvd:
                    self._emit_wait(
                        rcvd, start_wait, time.time_ns() - start_wait, False
                    )
                    self._task_info.pop(batch_id, None)
                    return payload.worker_id, payload
                self._task_info[batch_id] = (payload.worker_id, payload)
                continue
            if batch_id == rcvd:
                end_wait = time.time_ns()
                self._emit_wait(rcvd, start_wait, end_wait - start_wait, False)
                worker_id = self._task_info.pop(batch_id)[0]
                return worker_id, payload
            # Out-of-order arrival: pin it now (occupying the main
            # process) and cache it for its turn.
            if self._loader.pin_memory:
                if isinstance(payload, PartialBatch):
                    payload.data = _pin_structure(payload.data)
                else:
                    payload = _pin_structure(payload)
            worker_id = self._task_info[batch_id][0]
            self._task_info[batch_id] = (worker_id, payload)

    def _emit_wait(
        self, batch_id: int, start_ns: int, duration_ns: int, out_of_order: bool
    ) -> None:
        if self._sink is None:
            return
        self._sink.write(
            TraceRecord(
                kind=KIND_BATCH_WAIT,
                name="wait",
                batch_id=batch_id,
                worker_id=MAIN_PROCESS_WORKER_ID,
                pid=self._pid,
                start_ns=start_ns,
                duration_ns=max(duration_ns, 0),
                out_of_order=out_of_order,
            )
        )

    # -- iteration -------------------------------------------------------------
    def __iter__(self) -> "_MultiWorkerIter":
        return self

    def __next__(self) -> Any:
        stats = self._stats
        while True:
            if self._rcvd_idx >= self._send_idx:
                self._shutdown_workers()
                raise StopIteration
            worker_id, data = self._next_data()
            # Advance the cursor before any post-yield dispatch, so the
            # window [rcvd, send) no longer counts the yielded batch.
            batch_id = self._rcvd_idx
            self._rcvd_idx += 1
            dispatched = self._book.complete(batch_id)
            self._claims.pop(batch_id, None)
            if isinstance(data, IterableStreamEnd):
                # Unfillable batch id: skip it without yielding.
                continue
            batch_size = len(dispatched) if hasattr(dispatched, "__len__") else 0
            if isinstance(data, PartialBatch):
                stats.skipped_samples += len(data.skipped_indices)
                stats.skipped_indices.extend(data.skipped_indices)
                stats.retried_samples += data.retried
                stats.delivered_samples += batch_size - len(data.skipped_indices)
                payload = data.data
                if payload is None:
                    # Every sample skipped: replenish and move on
                    # without a consumed record (nothing was consumed).
                    self._replenish(worker_id)
                    continue
                data = payload
            else:
                stats.delivered_samples += batch_size
            break
        consumed_start = time.time_ns()
        # Shm transport: recycle the previous batch's slab slot and take
        # custody of this one's (acked on the *next* yield).
        self._ack_slab(batch_id)
        if self._loader.pin_memory:
            data = _pin_structure(data)
        self._replenish(worker_id)
        if self._sink is not None:
            self._sink.write(
                TraceRecord(
                    kind=KIND_BATCH_CONSUMED,
                    name="consume",
                    batch_id=batch_id,
                    worker_id=MAIN_PROCESS_WORKER_ID,
                    pid=self._pid,
                    start_ns=consumed_start,
                    duration_ns=max(0, time.time_ns() - consumed_start),
                )
            )
        self._emit_sched(batch_id)
        return data

    def _replenish(self, worker_id: int) -> None:
        """Post-yield dispatch (DESIGN.md §12): the pump for map-style
        datasets — static's only trigger besides startup and restart —
        or one index batch to the producing worker of an iterable
        stream (paper § II-B)."""
        if self._sched is None:
            self._try_put_index(worker_id)
        else:
            self._pump()

    def _emit_sched(self, batch_id: int) -> None:
        """Per-yield scheduler record ([T2] companion, DESIGN.md §12):
        outstanding queue depth after yielding ``batch_id``, steals
        since the last yield, and the per-worker prefetch depth.
        Emitted for every mode so analysis can flag static runs that
        would benefit from stealing."""
        if self._sink is None:
            return
        loader = self._loader
        steals = self._sched.take_steal_delta() if self._sched else 0
        queue_depth = max(0, self._send_idx - self._rcvd_idx)
        self._sink.write(
            TraceRecord(
                kind=KIND_SCHED,
                name=format_counter_name(
                    KIND_SCHED,
                    loader.scheduler,
                    queue_depth,
                    steals,
                    loader.prefetch_factor,
                ),
                batch_id=batch_id,
                worker_id=MAIN_PROCESS_WORKER_ID,
                pid=self._pid,
                start_ns=time.time_ns(),
                duration_ns=0,
            )
        )

    # -- shutdown ------------------------------------------------------------
    def _shutdown_workers(self) -> None:
        if self._shutdown:
            return
        self._shutdown = True
        if self._owns_pool:
            self._pool.shutdown()
        elif self._rcvd_idx < self._send_idx:
            # Borrowed (persistent) pool: leave it running after a clean
            # epoch; an abandoned epoch leaves payloads in flight, so the
            # pool must be retired.
            self._pool.dirty = True
            self._pool.shutdown()
        # Workers have quiesced (or keep their own writers): spill any
        # buffered trace lines so readers see a complete epoch log.
        flush_all_writers()

    def close(self) -> None:
        """Stop workers without finishing the epoch."""
        self._shutdown_workers()

    def __del__(self) -> None:
        try:
            self._shutdown_workers()
        except Exception:
            pass

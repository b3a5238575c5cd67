"""Batch transport carriers for multi-worker loaders (DESIGN.md §10).

The process backend historically shipped every collated batch through
``multiprocessing.Queue`` — a full pickle in the worker plus a full
unpickle in the main process, two copies of every tensor byte per batch.
This module adds a zero-copy carrier: workers write tensor storage into
named ``multiprocessing.shared_memory`` slabs and ship only a compact
:class:`ShmBatchRef` descriptor over the queue; the main process attaches
the slab and wraps the bytes as pinned tensors without copying.

Three carriers, all emitting the same per-batch ``batch_transport`` trace
record so their hand-off cost is comparable in ``compare.py``:

* ``inline`` — thread backend: the payload reference crosses a
  ``queue.Queue`` untouched (bytes moved 0, copies 0);
* ``pickle`` — process backend parity oracle: the payload rides the mp
  queue as before (copies 2: serialize + deserialize);
* ``shm`` — process backend: tensor bytes go through a
  :class:`~repro.tensor.batchbuffer.SharedSlabRing` slot (copies 1: the
  worker's write into the slab; the main-process side is a view).

Slab lifecycle: each worker generation owns ``depth`` deterministically
named slots, where ``depth`` is the loader's scheduler-governed
``batch_buffer_depth`` (DESIGN.md §12): ``prefetch_factor + 2`` under
static dispatch, widened to ``num_workers * (prefetch_factor + 2) + 2``
under stealing, where one worker can transiently own every
in-flight batch. Slot segments are created lazily and recycled through a
free list, so the wider universe costs shm only for concurrency that
actually happens. A worker takes a free slot per published batch and gets it
back through its *ack ring* — an mp queue the main process feeds as
batches are yielded, deferred by one yield so the batch the consumer
currently holds is never overwritten. The main process is the single
unlink owner: the supervisor unlinks a dead worker's whole generation on
restart and every live ring at shutdown, so no segment outlives the
loader even across crashes.

Fallback rules: a payload with no CPU-tensor leaves (or any non-CPU
tensor leaf) ships over the pickle carrier transparently; non-tensor
leaves of a mixed payload ride pickled inside the descriptor's skeleton.
"""

from __future__ import annotations

import itertools
import queue as queue_module
from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.lotustrace.records import (
    TRANSPORT_INLINE,
    TRANSPORT_PICKLE,
    TRANSPORT_SHM,
)
from repro.errors import DataLoaderError
from repro.tensor.batchbuffer import (
    SharedSlabRing,
    abandon_mapping,
    slab_ring_prefix,
    unlink_slab_ring,
)
from repro.tensor.collate import iter_tensors, structure_nbytes
from repro.tensor.tensor import CPU_DEVICE, Tensor, from_shared_buffer

#: Default knob value: shm on the process backend, inline on threads.
TRANSPORT_AUTO = "auto"

#: Values accepted by ``DataLoader(transport=...)``.
TRANSPORT_CHOICES = (TRANSPORT_AUTO, TRANSPORT_PICKLE, TRANSPORT_SHM)

#: Tensor regions inside a slab start on cache-line boundaries.
SLAB_ALIGN_BYTES = 64

#: Poll interval while a worker waits for a slot ack (the wait also
#: watches the cooperative cancel flag, so it must be bounded).
_ACK_POLL_S = 0.05

#: Distinguishes concurrent loaders (and successive pools of one loader)
#: within the same main process in slab segment names.
_pool_nonce = itertools.count()


def next_pool_nonce() -> int:
    """A fresh per-pool nonce for slab segment naming."""
    return next(_pool_nonce)


class TransportCancelled(Exception):
    """Raised inside a worker when its cancel flag is set while it waits
    for a reclaimable slab slot; the worker drops the batch and exits."""


def _align(nbytes: int) -> int:
    return -(-nbytes // SLAB_ALIGN_BYTES) * SLAB_ALIGN_BYTES


@dataclass(frozen=True)
class TensorDesc:
    """One tensor leaf's location inside a slab."""

    offset: int
    shape: Tuple[int, ...]
    dtype: str
    nbytes: int


@dataclass
class ShmBatchRef:
    """Wire descriptor for a batch whose tensor bytes live in a slab.

    ``skeleton`` is the collated structure with every Tensor leaf
    replaced by a :class:`TensorDesc`; non-tensor leaves ride along
    pickled as-is. ``(segment_name, segment_size)`` lets the consumer
    detect a stale attachment after the slot grew (growth recreates the
    segment under the same name, strictly larger).
    """

    segment_name: str
    segment_size: int
    slot: int
    worker_id: int
    generation: int
    total_bytes: int
    skeleton: Any


def resolve_transport(requested: str, is_process_backend: bool) -> str:
    """Map the user-facing knob to the effective carrier mode."""
    if requested == TRANSPORT_AUTO:
        return TRANSPORT_SHM if is_process_backend else TRANSPORT_INLINE
    return requested


def validate_transport(
    requested: str, num_workers: int, is_process_backend: bool
) -> None:
    """Eagerly reject knob values the loader configuration cannot honor."""
    if requested not in TRANSPORT_CHOICES:
        raise DataLoaderError(
            f"unknown transport {requested!r}; choose from {TRANSPORT_CHOICES}"
        )
    if requested == TRANSPORT_AUTO:
        return
    if num_workers == 0:
        raise DataLoaderError(
            f"transport={requested!r} requires worker processes; "
            f"num_workers=0 loads synchronously with no hand-off"
        )
    if not is_process_backend:
        raise DataLoaderError(
            f"transport={requested!r} requires the process worker backend; "
            f"thread workers hand batches over by reference"
        )


@dataclass
class TransportSpec:
    """Everything a worker needs to build its transport (fork-inherited,
    so the ack queue rides along as a live mp.Queue object)."""

    mode: str = TRANSPORT_INLINE
    main_pid: int = 0
    nonce: int = 0
    depth: int = 1
    ack_queue: Any = None


# -- worker side -------------------------------------------------------------


class InlineTransport:
    """Thread backend: the payload reference crosses the queue as-is."""

    mode = TRANSPORT_INLINE

    def publish(self, data: Any) -> Tuple[Any, str, int, int]:
        return data, TRANSPORT_INLINE, 0, 0

    def close(self) -> None:
        pass


class PickleTransport:
    """Process backend parity oracle: ship the payload itself through the
    mp queue (pickled by the queue's feeder, unpickled by the reader)."""

    mode = TRANSPORT_PICKLE

    def publish(self, data: Any) -> Tuple[Any, str, int, int]:
        return data, TRANSPORT_PICKLE, structure_nbytes(data), 2

    def close(self) -> None:
        pass


class ShmWorkerTransport:
    """Process-backend shm carrier, worker side.

    Owns this worker generation's :class:`SharedSlabRing` and free-slot
    bookkeeping. ``publish`` takes a free slot (blocking on the ack ring
    when all ``depth`` slots are in flight — bounded by the replenish
    protocol, see DESIGN.md §10), copies tensor bytes into the slab at
    cache-line-aligned offsets, and returns the descriptor to ship.
    """

    mode = TRANSPORT_SHM

    def __init__(
        self,
        worker_id: int,
        generation: int,
        spec: TransportSpec,
        cancel_flag: Any = None,
    ) -> None:
        self.worker_id = worker_id
        self.generation = generation
        prefix = slab_ring_prefix(spec.main_pid, spec.nonce, worker_id, generation)
        self._ring = SharedSlabRing(prefix, spec.depth)
        self._free: deque = deque(range(spec.depth))
        self._ack_queue = spec.ack_queue
        self._cancel_flag = cancel_flag
        self._fallback = PickleTransport()

    def publish(self, data: Any) -> Tuple[Any, str, int, int]:
        tensors = list(iter_tensors(data))
        if not tensors or any(t.device != CPU_DEVICE for t in tensors):
            # Nothing slab-eligible: fall back to the pickle carrier
            # transparently (the trace record shows the actual mode).
            return self._fallback.publish(data)
        total = sum(_align(t.nbytes) for t in tensors)
        slot = self._take_slot()
        segment = self._ring.acquire(slot, total)
        offset = 0
        descs: List[TensorDesc] = []
        for tensor in tensors:
            array = tensor.numpy()
            dest = np.ndarray(
                array.shape, array.dtype, buffer=segment.buf, offset=offset
            )
            np.copyto(dest, array)
            descs.append(
                TensorDesc(
                    offset=offset,
                    shape=tuple(array.shape),
                    dtype=array.dtype.str,
                    nbytes=array.nbytes,
                )
            )
            offset += _align(array.nbytes)
        payload_bytes = sum(desc.nbytes for desc in descs)
        leaves = iter(descs)
        skeleton = _map_structure(data, lambda _tensor: next(leaves))
        ref = ShmBatchRef(
            segment_name=segment.name,
            segment_size=segment.size,
            slot=slot,
            worker_id=self.worker_id,
            generation=self.generation,
            total_bytes=payload_bytes,
            skeleton=skeleton,
        )
        return ref, TRANSPORT_SHM, payload_bytes, 1

    def _take_slot(self) -> int:
        if self._free:
            return self._free.popleft()
        while True:
            if self._cancel_flag is not None and self._cancel_flag.is_set():
                raise TransportCancelled()
            try:
                return int(self._ack_queue.get(timeout=_ACK_POLL_S))
            except queue_module.Empty:
                continue

    def close(self) -> None:
        """Drop this worker's slab mappings. Unlinking is the main-process
        supervisor's job (single unlink owner), so a clean worker exit
        leaves the segments linked for any still-unresolved descriptors."""
        self._ring.close()


def create_worker_transport(
    spec: Optional[TransportSpec],
    worker_id: int,
    generation: int,
    cancel_flag: Any = None,
):
    """Build the worker-side carrier for ``spec`` (None → no transport,
    preserving the legacy direct-``worker_loop`` calling convention)."""
    if spec is None:
        return None
    if spec.mode == TRANSPORT_SHM:
        return ShmWorkerTransport(worker_id, generation, spec, cancel_flag)
    if spec.mode == TRANSPORT_PICKLE:
        return PickleTransport()
    return InlineTransport()


# -- main-process side -------------------------------------------------------


class ShmMainTransport:
    """Main-process side: attach slabs by name, wrap zero-copy views.

    Attachments are cached per segment name; a descriptor whose
    ``segment_size`` exceeds the cached mapping means the slot grew
    (unlink + recreate, strictly larger), so the stale mapping is retired
    — never closed while consumer views may alias it; numpy buffer
    references keep the pages alive regardless — and the name re-attached.
    """

    def __init__(self) -> None:
        self._attached: Dict[str, Any] = {}
        self._retired: List[Any] = []

    def resolve(self, ref: ShmBatchRef) -> Any:
        """Materialize a descriptor into its payload structure.

        Raises ``FileNotFoundError`` if the segment was already unlinked
        (a dead generation's late descriptor); callers drop the batch as
        stale — its replay arrives under the replacement generation.
        """
        segment = self._attach(ref.segment_name, ref.segment_size)
        buf = segment.buf
        return _map_structure(
            ref.skeleton,
            lambda desc: from_shared_buffer(buf, desc.shape, desc.dtype, desc.offset),
            leaf_type=TensorDesc,
        )

    def _attach(self, name: str, size: int):
        from multiprocessing import shared_memory

        segment = self._attached.get(name)
        if segment is not None and segment.size >= size:
            return segment
        if segment is not None:
            self._retired.append(segment)
        fresh = shared_memory.SharedMemory(name=name, create=False)
        self._attached[name] = fresh
        return fresh

    def close(self) -> None:
        """Drop every mapping this process holds (shutdown path).

        A mapping a consumer still views cannot be closed (the tensor's
        buffer export makes ``close`` raise ``BufferError``); those
        mappings are abandoned to their views — the pages stay mapped
        until the last tensor dies, and the segment name was already
        unlinked by the supervisor, so nothing persists.
        """
        for segment in list(self._attached.values()) + self._retired:
            try:
                segment.close()
            except BufferError:
                abandon_mapping(segment)
        self._attached.clear()
        self._retired.clear()


def unlink_worker_generation(
    main_pid: int, nonce: int, worker_id: int, generation: int, depth: int
) -> int:
    """Unlink every slab slot one worker generation could have created.

    The fixed slot universe (``depth`` deterministic names) means the
    supervisor needs no cooperation from the (possibly dead) worker.
    Returns the number of segments removed.
    """
    prefix = slab_ring_prefix(main_pid, nonce, worker_id, generation)
    return unlink_slab_ring(prefix, depth)


def _map_structure(structure: Any, fn, leaf_type=Tensor) -> Any:
    """Rebuild ``structure`` with ``fn`` applied to each ``leaf_type``
    leaf — the transport twin of :func:`~repro.tensor.collate.map_tensors`,
    generalized so descriptors can be swapped back into tensors."""
    if isinstance(structure, leaf_type):
        return fn(structure)
    if isinstance(structure, Mapping):
        return {
            key: _map_structure(value, fn, leaf_type)
            for key, value in structure.items()
        }
    if isinstance(structure, tuple):
        return tuple(_map_structure(item, fn, leaf_type) for item in structure)
    if isinstance(structure, list):
        return [_map_structure(item, fn, leaf_type) for item in structure]
    return structure

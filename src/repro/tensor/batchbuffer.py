"""Preallocated batch-output arenas for the zero-copy collate path.

The batched fetcher writes each batch directly into ``(N, ...)`` output
arrays drawn from a :class:`BatchBuffer` instead of building a list of
per-sample Tensors and re-stacking them (two full copies). With
``reuse=True`` the arena hands back the *same* backing storage every
``depth`` batches, eliminating allocator traffic from the worker hot
loop entirely — at the cost of the aliasing contract documented in
DESIGN.md §7: consumers must not hold a produced batch across ``next()``
while reuse is on.

Buffers are keyed by a caller-chosen stage name and carved out of flat
per-stage byte pools, so a request whose shape changes between batches
(e.g. a trailing partial batch, or a ragged crop stack) reuses the same
pool as long as it fits; the pool grows monotonically to the largest
request seen.
"""

from __future__ import annotations

import os
from multiprocessing import shared_memory
from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import ReproError


class BatchBuffer:
    """Arena of reusable output arrays for batched collation.

    Args:
        reuse: when False, every :meth:`get` returns a fresh array (the
            arena degenerates to ``np.empty``, still one-write zero-copy
            relative to list-collate-stack, but alias-free).
        depth: number of independent buffer generations cycled by
            :meth:`advance`. ``depth=1`` reuses the same storage every
            batch (single-consumer discipline); multi-worker loaders pass
            the scheduler-governed ``batch_buffer_depth`` —
            ``prefetch_factor + 2`` under static dispatch, widened for
            stealing where one worker can transiently own every
            in-flight batch (DESIGN.md §12) — so a batch is never
            overwritten while it can still be in flight on the data
            queue or held by the consumer.
    """

    def __init__(self, reuse: bool = True, depth: int = 1) -> None:
        if depth < 1:
            raise ReproError(f"BatchBuffer depth must be >= 1, got {depth}")
        self.reuse = reuse
        self.depth = depth
        self._pools: Dict[Tuple[str, int, str], np.ndarray] = {}
        self._batch_index = 0
        self.hits = 0
        self.misses = 0

    def advance(self) -> None:
        """Start a new batch: rotate to the next buffer generation."""
        self._batch_index += 1

    def get(self, key: str, shape: Tuple[int, ...], dtype) -> np.ndarray:
        """A writable C-contiguous array of ``shape``/``dtype`` for ``key``.

        With reuse on, the same flat pool backs every request for
        ``key`` within the same generation, growing to the largest size
        seen; the returned view aliases previous batches' output.
        """
        dtype = np.dtype(dtype)
        count = 1
        for dim in shape:
            count *= int(dim)
        if not self.reuse:
            return np.empty(shape, dtype)
        slot = (key, self._batch_index % self.depth, dtype.str)
        pool = self._pools.get(slot)
        if pool is None or pool.size < count:
            pool = np.empty(count, dtype)
            self._pools[slot] = pool
            self.misses += 1
        else:
            self.hits += 1
        return pool[:count].reshape(shape)


# -- shared-memory slab ring (process-backend shm transport, DESIGN.md §10) --

#: Slabs are sized in whole pages and never shrink; the floor keeps tiny
#: first batches from triggering an immediate regrow.
SLAB_PAGE_BYTES = 4096


def round_to_pages(nbytes: int) -> int:
    """Smallest whole-page byte count covering ``nbytes`` (min one page).

    The single page-rounding rule for every shared-memory sizing
    decision: slab-ring growth here, and the decoded-sample cache's
    arena and per-entry extents (DESIGN.md §11) — keeping them on one
    granule means a cache extent freed back to the arena is always
    reusable by any same-size entry with zero fragmentation slack.
    """
    return max(1, -(-int(nbytes) // SLAB_PAGE_BYTES)) * SLAB_PAGE_BYTES


def slab_ring_prefix(main_pid: int, nonce: int, worker_id: int, generation: int) -> str:
    """Deterministic shm segment-name prefix for one worker generation.

    Every slot name a (worker, generation) pair can ever create is
    ``{prefix}s{slot}`` for ``slot`` in ``range(depth)``, so the main
    process can unlink a crashed worker's segments knowing only the
    loader identity — it never needs the worker to report what it
    allocated. Kept short (the POSIX shm name limit is 31 chars on some
    platforms) and collision-free across concurrent loaders via the
    per-loader ``nonce``.
    """
    return f"lt{main_pid}q{nonce}w{worker_id}g{generation}"


def unlink_segment(name: str) -> bool:
    """Tolerantly unlink one named segment; True if this call removed it.

    Names that are absent (never created, or already unlinked by another
    owner) or cannot be opened are skipped. ``unlink()`` also balances
    the resource tracker: CPython 3.11 registers a segment on every
    create *and* attach (set semantics, so re-adds are idempotent) and
    unregisters exactly once here — the single-unlink-owner discipline
    keeps the tracker cache clean without manual untracking.
    """
    try:
        segment = shared_memory.SharedMemory(name=name, create=False)
    except OSError:
        return False
    segment.close()
    try:
        segment.unlink()
    except FileNotFoundError:
        return False
    return True


def abandon_mapping(segment: shared_memory.SharedMemory) -> None:
    """Hand a mapping's lifetime over to the views that alias it.

    Called when ``segment.close()`` refuses with ``BufferError`` (a
    consumer still holds zero-copy views). Dropping the SharedMemory
    object's own references leaves the mmap owned solely by the
    memoryview inside each view's base chain — the pages stay mapped
    exactly as long as some view needs them, and the object's eventual
    ``__del__`` has nothing left to close (no BufferError noise at
    interpreter exit). The file descriptor is closed here; the mapping
    does not need it.
    """
    try:
        segment._buf = None
        if segment._fd >= 0:
            os.close(segment._fd)
            segment._fd = -1
        segment._mmap = None
    except (AttributeError, OSError):
        pass


def unlink_slab_ring(prefix: str, depth: int) -> int:
    """Unlink every slot of a ring, tolerating absent or shared names.

    Called by the supervisor for dead worker generations and at loader
    shutdown; the fixed slot universe (``depth`` names) makes this safe
    to run even if the owning worker died before creating all slots.
    Returns the number of segments actually removed.
    """
    return sum(unlink_segment(f"{prefix}s{slot}") for slot in range(depth))


class SharedSlabRing:
    """Worker-side ring of named shared-memory slabs, one per in-flight batch.

    The worker writes each collated batch into slab ``slot`` (cycled by
    the ack/reclaim ring, depth = the loader's scheduler-governed
    ``batch_buffer_depth`` mirroring :class:`BatchBuffer` — see
    DESIGN.md §12; slot segments materialize lazily on first use, so a
    wide ring costs shm only for realized concurrency) and ships only a
    descriptor; the main process
    attaches by name and wraps zero-copy views. Slabs grow monotonically
    by unlink-and-recreate under the *same* name, so a descriptor's
    ``(name, size)`` pair is always enough for the consumer to detect a
    stale attachment and re-attach.
    """

    def __init__(self, prefix: str, depth: int) -> None:
        if depth < 1:
            raise ReproError(f"SharedSlabRing depth must be >= 1, got {depth}")
        self.prefix = prefix
        self.depth = depth
        self._segments: Dict[int, shared_memory.SharedMemory] = {}

    def slot_name(self, slot: int) -> str:
        return f"{self.prefix}s{slot}"

    def acquire(self, slot: int, nbytes: int) -> shared_memory.SharedMemory:
        """A slab for ``slot`` with capacity >= ``nbytes``.

        Growth recreates the segment under the same name at double the
        request (page-rounded), amortizing regrows across ragged batch
        sizes the way :meth:`BatchBuffer.get` grows its pools.
        """
        if not 0 <= slot < self.depth:
            raise ReproError(
                f"slab slot {slot} out of range for depth {self.depth}"
            )
        segment = self._segments.get(slot)
        if segment is not None and segment.size >= nbytes:
            return segment
        if segment is not None:
            try:
                segment.close()
            except BufferError:
                pass
            try:
                segment.unlink()
            except FileNotFoundError:
                pass
        request = max(int(nbytes), 1)
        if segment is not None:
            request = max(request * 2, segment.size)
        size = round_to_pages(request)
        name = self.slot_name(slot)
        try:
            fresh = shared_memory.SharedMemory(name=name, create=True, size=size)
        except FileExistsError:
            # Leftover from a crashed predecessor generation that shares
            # our name (should not happen: the prefix encodes the
            # generation) or an unlink raced with us; reclaim it.
            unlink_segment(name)
            fresh = shared_memory.SharedMemory(name=name, create=True, size=size)
        self._segments[slot] = fresh
        return fresh

    def get(self, slot: int) -> Optional[shared_memory.SharedMemory]:
        return self._segments.get(slot)

    def close(self) -> None:
        """Drop this process's mappings; segments stay linked for readers."""
        for segment in self._segments.values():
            try:
                segment.close()
            except BufferError:
                # A live numpy view still aliases the mapping; the view's
                # buffer reference keeps it alive, and the OS reclaims it
                # when the last reference dies.
                pass
        self._segments.clear()

    def unlink(self) -> int:
        """Close and unlink every slot this ring could have created."""
        self.close()
        return unlink_slab_ring(self.prefix, self.depth)

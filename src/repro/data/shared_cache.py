"""Cross-worker shared-memory decoded-sample cache (DESIGN.md §11).

With ``backend="process"`` every DataLoader worker is a separate process,
so the per-process :class:`~repro.data.cache.CachingLoader` decodes each
image up to ``num_workers`` times and multiplies the cache footprint by
the worker count (the redundancy Seneca and tf.data's materialization
service attack). :class:`SharedSampleCache` removes it: one fixed-capacity
named shared-memory *arena* holds the decoded pixels, one lock-striped
hash *index* (also in shared memory) maps content digests to arena
extents, and every worker attaches to both — each image is decoded
exactly once per machine per epoch set, and warm epochs touch no decoder
at all.

Layout and protocol:

* **Arena** — one named segment, slab-carved into variable-size entries
  rounded to whole pages (:data:`~repro.tensor.batchbuffer.SLAB_PAGE_BYTES`),
  managed by a sorted, coalescing free-extent list. Readers get zero-copy
  ``np.frombuffer`` views (the PR 7 ``from_shared_buffer`` discipline: the
  view holds a live buffer export, so the mapping can never be unmapped
  under it) marked read-only so no consumer can corrupt a shared entry.
* **Index** — a second named segment viewed as parallel numpy arrays:
  16-byte blake2b digests, entry state (EMPTY/CLAIMED/READY/TOMBSTONE),
  a CLOCK reference bit, the claiming reader and its restart generation,
  arena offset/length, image shape, per-(entry, reader) pin counts, and
  per-reader hit/miss counters. The slot space is split into ``stripes``
  contiguous regions, each guarded by its own fork-inherited
  ``multiprocessing.Lock``; a digest probes linearly *within its stripe
  only*, so two operations contend only when they hash to the same
  stripe.
* **Single-flight across processes** — a miss claims its slot
  (state=CLAIMED + owner stamp) under the stripe lock; other readers see
  the claim and poll until the entry is READY (their hit) or the claim
  disappears (decode failed or the owner died: the next prober takes
  over). This mirrors the intra-process per-key events in ``cache.py``
  without any cross-process futex: claims are rare (one per unique image
  per epoch set) and the poll interval is far below one decode.
* **Pinned eviction safety** — a hit pins its entry for the reading
  process until the reader's batch scope releases it (two batches deep,
  mirroring the transport's one-yield-late slab ack). CLOCK/second-chance
  eviction skips pinned and claimed entries, so an extent is never
  recycled under a live view.
* **Crash contract (PR 7)** — the main process is the single unlink
  owner. A worker's death releases its pins and revokes its claims via
  :meth:`release_reader` (called by the supervisor before the
  replacement starts); generation stamps on claims let a leaked zombie's
  late publish be detected and discarded. Chaos tests assert zero
  ``/dev/shm`` leaks after ``close()``/``unlink()``.

Lock ordering: the allocator lock is always acquired *before* any stripe
lock, and no path blocks on the allocator while holding a stripe lock —
paths that must free extents discovered under a stripe lock collect them
first, release the stripe, then take the allocator lock.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass
from multiprocessing import get_context
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import DataLoaderError
from repro.tensor.batchbuffer import (
    SLAB_PAGE_BYTES,
    abandon_mapping,
    round_to_pages,
    unlink_segment,
)

# Entry states.
SLOT_EMPTY = 0
SLOT_CLAIMED = 1
SLOT_READY = 2
SLOT_TOMBSTONE = 3

# Per-reader stat columns (the shared rows double-book what the loader
# counts locally, so tests can assert machine-global totals).
STAT_HITS = 0
STAT_MISSES = 1
STAT_CROSS_HITS = 2
STAT_EVICTIONS = 3
STAT_WAITS = 4
_STAT_COLUMNS = 5

_DIGEST_BYTES = 16
_HEADER_SLOTS = 8
_MAGIC = 0x10075CACE

#: Arena size used by ``DataLoader(cache=...)`` when the caller does not
#: pick one: enough for ~1.3k decoded 224x224 RGB samples.
DEFAULT_CACHE_CAPACITY_BYTES = 256 * 1024 * 1024

#: How long a prober waits on another process's claim before giving up
#: and decoding without caching (safety valve for a claimant that died
#: between supervisor sweeps).
DEFAULT_CLAIM_WAIT_S = 30.0

#: Poll interval while waiting on a cross-process claim; far below one
#: JPEG decode, far above syscall noise.
CLAIM_POLL_S = 0.0005


def sample_cache_prefix(main_pid: int, nonce: int) -> str:
    """Deterministic shm name prefix for one loader's sample cache.

    ``{prefix}d`` is the data arena, ``{prefix}i`` the index — distinct
    from the transport's ``lt{pid}q...`` slab namespace (letter ``c``)
    so chaos tests can glob either family, and short enough for the
    31-char POSIX shm name limit.
    """
    return f"lt{main_pid}c{nonce}"


def shared_sample_key(source) -> bytes:
    """16-byte content digest keying a loader source in the shared index.

    Mirrors :meth:`CachingLoader.cache_key`'s collision rules: blobs are
    keyed by content, path-likes by their string form, and a one-byte
    type tag keeps a path string and a blob of the same bytes distinct.
    """
    if isinstance(source, bytes):
        payload, tag = source, b"b"
    else:
        payload, tag = str(source).encode("utf-8", "surrogatepass"), b"p"
    return hashlib.blake2b(tag + payload, digest_size=_DIGEST_BYTES).digest()


@dataclass(frozen=True)
class ArenaStats:
    """Machine-global cache accounting summed over every reader."""

    hits: int
    misses: int
    cross_worker_hits: int
    evictions: int
    single_flight_waits: int


class SharedSampleCache:
    """Fixed-capacity shared-memory decoded-sample cache.

    Create it in the main process *before* the worker pool forks; the
    object (with its SharedMemory mappings and fork-inherited locks)
    rides into every worker through the fork, so no worker ever attaches
    by name. Only decoded RGB ``uint8 (H, W, 3)`` samples are stored —
    exactly what the batched fetcher's fast path consumes.

    Args:
        capacity_bytes: arena size (page-rounded). Entries are evicted
            CLOCK/second-chance under byte pressure; an entry larger
            than the arena is simply never cached.
        slots: index capacity (distinct cached keys). Defaults to one
            slot per 32 KiB of arena; rounded up to a multiple of
            ``stripes`` so every stripe owns an equal contiguous range.
        max_readers: pin-table width — reader 0 is the main process,
            worker ``w`` is reader ``w + 1``.
        stripes: lock striping factor for the index.
        main_pid / nonce: shm segment naming identity (see
            :func:`sample_cache_prefix`).
    """

    def __init__(
        self,
        capacity_bytes: int,
        slots: Optional[int] = None,
        max_readers: int = 2,
        stripes: int = 8,
        main_pid: Optional[int] = None,
        nonce: int = 0,
        claim_wait_s: float = DEFAULT_CLAIM_WAIT_S,
    ) -> None:
        if capacity_bytes < SLAB_PAGE_BYTES:
            raise DataLoaderError(
                f"cache capacity_bytes must be >= {SLAB_PAGE_BYTES}, "
                f"got {capacity_bytes}"
            )
        if max_readers < 1:
            raise DataLoaderError(f"max_readers must be >= 1, got {max_readers}")
        if stripes < 1:
            raise DataLoaderError(f"stripes must be >= 1, got {stripes}")
        arena_bytes = round_to_pages(capacity_bytes)
        if slots is None:
            slots = max(64, arena_bytes // (32 * 1024))
        slots = max(int(slots), stripes)
        slots = -(-slots // stripes) * stripes  # equal stripe ranges
        self.arena_bytes = arena_bytes
        self.slots = slots
        self.max_readers = int(max_readers)
        self.stripes = int(stripes)
        self.claim_wait_s = float(claim_wait_s)
        self._slots_per_stripe = slots // stripes
        self.prefix = sample_cache_prefix(
            os.getpid() if main_pid is None else main_pid, nonce
        )
        ctx = get_context("fork")
        self._alloc_lock = ctx.Lock()
        self._stripe_locks = [ctx.Lock() for _ in range(stripes)]
        self._unlinked = False
        self._data = shared_memory.SharedMemory(
            name=f"{self.prefix}d", create=True, size=arena_bytes
        )
        self._index = shared_memory.SharedMemory(
            name=f"{self.prefix}i", create=True, size=self._index_bytes()
        )
        self._build_views()
        # Fresh segments are zero-filled; seed the header and the single
        # all-of-arena free extent.
        self._header[0] = _MAGIC
        self._header[1] = slots
        self._header[2] = arena_bytes
        self._extents[0] = (0, arena_bytes)
        self._header[3] = 1  # live extent count
        self._header[4] = 0  # CLOCK hand

    # -- layout ---------------------------------------------------------------
    def _index_bytes(self) -> int:
        slots, readers = self.slots, self.max_readers
        total = _HEADER_SLOTS * 8
        total += slots * _DIGEST_BYTES          # keys
        total += 2 * slots                      # state + refbit
        total = -(-total // 8) * 8
        total += 2 * slots * 4                  # owner + owner_gen
        total += 5 * slots * 8                  # offset/nbytes/extent/h/w
        total += slots * readers * 4            # pins
        total = -(-total // 8) * 8
        total += readers * _STAT_COLUMNS * 8    # stats
        total += (slots + 2) * 2 * 8            # free extents
        return round_to_pages(total)

    def _build_views(self) -> None:
        """Carve the index segment into parallel numpy arrays."""
        buf = self._index.buf
        slots, readers = self.slots, self.max_readers
        cursor = 0

        def take(count, dtype, shape):
            nonlocal cursor
            dtype = np.dtype(dtype)
            cursor = -(-cursor // dtype.itemsize) * dtype.itemsize
            view = np.frombuffer(buf, dtype=dtype, count=count, offset=cursor)
            cursor += count * dtype.itemsize
            return view.reshape(shape)

        self._header = take(_HEADER_SLOTS, np.int64, (_HEADER_SLOTS,))
        self._keys = take(slots * _DIGEST_BYTES, np.uint8, (slots, _DIGEST_BYTES))
        self._state = take(slots, np.uint8, (slots,))
        self._refbit = take(slots, np.uint8, (slots,))
        self._owner = take(slots, np.int32, (slots,))
        self._owner_gen = take(slots, np.int32, (slots,))
        self._offset = take(slots, np.int64, (slots,))
        self._nbytes = take(slots, np.int64, (slots,))
        self._extent = take(slots, np.int64, (slots,))
        self._height = take(slots, np.int64, (slots,))
        self._width = take(slots, np.int64, (slots,))
        self._pins = take(slots * readers, np.int32, (slots, readers))
        self._stats = take(readers * _STAT_COLUMNS, np.int64,
                           (readers, _STAT_COLUMNS))
        self._extents = take((slots + 2) * 2, np.int64, (slots + 2, 2))

    # -- hashing / probing ----------------------------------------------------
    def _slot_range(self, digest: bytes) -> Tuple[int, int, int]:
        """(stripe, stripe base slot, start offset within the stripe)."""
        h = int.from_bytes(digest[:8], "little")
        stripe = h % self.stripes
        start = (h // self.stripes) % self._slots_per_stripe
        return stripe, stripe * self._slots_per_stripe, start

    def _entry_view(self, slot: int) -> np.ndarray:
        """Read-only zero-copy view of a READY entry's pixels."""
        from repro.tensor.tensor import from_shared_buffer

        h, w = int(self._height[slot]), int(self._width[slot])
        return from_shared_buffer(
            self._data.buf,
            (h, w, 3),
            np.uint8,
            offset=int(self._offset[slot]),
            readonly=True,
        ).numpy()

    def probe(self, digest: bytes, reader: int, generation: int = 0):
        """One index lookup round for ``digest`` on behalf of ``reader``.

        Returns one of::

            ("hit", slot, view, cross)   entry READY: pinned + counted
            ("claimed", slot)            this reader now owns the decode
            ("wait", slot)               another process is decoding it
            ("full", -1)                 stripe exhausted: decode uncached

        Hits pin the entry for ``reader`` (released by :meth:`unpin`) and
        set its CLOCK reference bit; a claim stamps the reader and its
        restart generation so a dead incarnation's claim can be revoked
        and a zombie's late publish discarded.
        """
        if not 0 <= reader < self.max_readers:
            raise DataLoaderError(
                f"reader {reader} out of range (max_readers={self.max_readers})"
            )
        stripe, base, start = self._slot_range(digest)
        dig = np.frombuffer(digest, dtype=np.uint8)
        span = self._slots_per_stripe
        with self._stripe_locks[stripe]:
            grave = -1
            for step in range(span):
                slot = base + (start + step) % span
                state = int(self._state[slot])
                if state == SLOT_EMPTY:
                    target = grave if grave >= 0 else slot
                    self._claim_at(target, dig, reader, generation)
                    return ("claimed", target)
                if state == SLOT_TOMBSTONE:
                    if grave < 0:
                        grave = slot
                    continue
                if not np.array_equal(self._keys[slot], dig):
                    continue
                if state == SLOT_READY:
                    self._refbit[slot] = 1
                    self._pins[slot, reader] += 1
                    cross = int(self._owner[slot]) != reader
                    self._stats[reader, STAT_HITS] += 1
                    if cross:
                        self._stats[reader, STAT_CROSS_HITS] += 1
                    return ("hit", slot, self._entry_view(slot), cross)
                return ("wait", slot)  # CLAIMED by someone else
            if grave >= 0:
                self._claim_at(grave, dig, reader, generation)
                return ("claimed", grave)
        return ("full", -1)

    def _claim_at(self, slot: int, dig: np.ndarray, reader: int,
                  generation: int) -> None:
        """Stamp a claim (stripe lock held by the caller)."""
        self._keys[slot] = dig
        self._state[slot] = SLOT_CLAIMED
        self._owner[slot] = reader
        self._owner_gen[slot] = generation
        self._offset[slot] = 0
        self._nbytes[slot] = 0
        self._extent[slot] = 0
        self._stats[reader, STAT_MISSES] += 1

    def count_wait(self, reader: int) -> None:
        """Account one cross-process single-flight wait episode."""
        with self._stripe_locks[0]:
            self._stats[reader, STAT_WAITS] += 1

    def count_miss(self, reader: int) -> None:
        """Account an uncacheable decode (stripe full / oversized entry)."""
        with self._stripe_locks[0]:
            self._stats[reader, STAT_MISSES] += 1

    # -- allocation / eviction (allocator lock held) ---------------------------
    def _alloc_extent(self, rounded: int) -> int:
        """First-fit over the sorted free list; -1 when nothing fits."""
        count = int(self._header[3])
        for i in range(count):
            off, size = int(self._extents[i, 0]), int(self._extents[i, 1])
            if size >= rounded:
                if size == rounded:
                    self._extents[i:count - 1] = self._extents[i + 1:count]
                    self._header[3] = count - 1
                else:
                    self._extents[i] = (off + rounded, size - rounded)
                return off
        return -1

    def _free_extent(self, offset: int, size: int) -> None:
        """Insert into the sorted free list, coalescing with neighbors."""
        count = int(self._header[3])
        offs = self._extents[:count, 0]
        i = int(np.searchsorted(offs, offset))
        merge_prev = (
            i > 0
            and int(self._extents[i - 1, 0]) + int(self._extents[i - 1, 1])
            == offset
        )
        merge_next = (
            i < count and offset + size == int(self._extents[i, 0])
        )
        if merge_prev and merge_next:
            self._extents[i - 1, 1] += size + int(self._extents[i, 1])
            self._extents[i:count - 1] = self._extents[i + 1:count]
            self._header[3] = count - 1
        elif merge_prev:
            self._extents[i - 1, 1] += size
        elif merge_next:
            self._extents[i, 0] = offset
            self._extents[i, 1] += size
        else:
            self._extents[i + 1:count + 1] = self._extents[i:count]
            self._extents[i] = (offset, size)
            self._header[3] = count + 1

    def _evict_until_fit(self, rounded: int, reader: int) -> Tuple[int, int]:
        """CLOCK/second-chance sweep until ``rounded`` bytes fit.

        Allocator lock held by the caller. Pinned, claimed, and
        recently-referenced entries survive (the refbit is the second
        chance); victims are tombstoned and their extents freed with
        coalescing. Returns (arena offset or -1, evictions performed).
        """
        evictions = 0
        budget = 2 * self.slots  # two full sweeps, then give up
        hand = int(self._header[4])
        while budget > 0:
            slot = hand
            hand = (hand + 1) % self.slots
            budget -= 1
            stripe = slot // self._slots_per_stripe
            with self._stripe_locks[stripe]:
                if int(self._state[slot]) != SLOT_READY:
                    continue
                if self._pins[slot].any():
                    continue  # a live view aliases this extent
                if self._refbit[slot]:
                    self._refbit[slot] = 0  # second chance
                    continue
                off = int(self._offset[slot])
                ext = int(self._extent[slot])
                self._state[slot] = SLOT_TOMBSTONE
                self._extent[slot] = 0
            self._free_extent(off, ext)
            evictions += 1
            self._stats[reader, STAT_EVICTIONS] += 1
            fit = self._alloc_extent(rounded)
            if fit >= 0:
                self._header[4] = hand
                return fit, evictions
        self._header[4] = hand
        return -1, evictions

    # -- publish / release -----------------------------------------------------
    def publish(
        self, slot: int, array: np.ndarray, reader: int, generation: int = 0
    ) -> Tuple[Optional[np.ndarray], int]:
        """Insert a decoded sample into a slot this reader claimed.

        Returns ``(read-only view, evictions performed)``; the view is
        ``None`` when the arena could not make room (the caller keeps its
        private decode — still correct, just uncached) or when the claim
        was revoked while decoding (worker declared dead: a replacement
        owns or will own the entry, so the zombie's copy is discarded).
        The publisher's view arrives pre-pinned, like a hit.
        """
        array = np.ascontiguousarray(array)
        if array.dtype != np.uint8 or array.ndim != 3 or array.shape[2] != 3:
            raise DataLoaderError(
                f"shared cache stores uint8 (H, W, 3) samples, got "
                f"{array.dtype}{array.shape}"
            )
        rounded = round_to_pages(array.nbytes)
        stripe = slot // self._slots_per_stripe
        if rounded > self.arena_bytes:
            self.abandon_claim(slot, reader, generation)
            return None, 0
        evictions = 0
        with self._alloc_lock:
            off = self._alloc_extent(rounded)
            if off < 0:
                off, evictions = self._evict_until_fit(rounded, reader)
        if off < 0:
            self.abandon_claim(slot, reader, generation)
            return None, evictions
        # Attach the extent to the claim *before* copying: if this
        # process dies mid-copy, release_reader finds the extent on the
        # claim and frees it (no arena leak).
        revoked = False
        with self._stripe_locks[stripe]:
            if (
                int(self._state[slot]) == SLOT_CLAIMED
                and int(self._owner[slot]) == reader
                and int(self._owner_gen[slot]) == generation
            ):
                self._offset[slot] = off
                self._nbytes[slot] = array.nbytes
                self._extent[slot] = rounded
                self._height[slot] = array.shape[0]
                self._width[slot] = array.shape[1]
            else:
                revoked = True
        if revoked:
            with self._alloc_lock:
                self._free_extent(off, rounded)
            return None, evictions
        dst = np.frombuffer(
            self._data.buf, dtype=np.uint8, count=array.nbytes, offset=off
        )
        dst[:] = array.reshape(-1)
        view: Optional[np.ndarray] = None
        freed: Optional[Tuple[int, int]] = None
        with self._stripe_locks[stripe]:
            if (
                int(self._state[slot]) == SLOT_CLAIMED
                and int(self._owner[slot]) == reader
                and int(self._owner_gen[slot]) == generation
            ):
                self._state[slot] = SLOT_READY
                self._refbit[slot] = 1
                self._pins[slot, reader] += 1
                view = self._entry_view(slot)
            elif int(self._extent[slot]) == 0 and int(self._state[slot]) in (
                SLOT_TOMBSTONE,
                SLOT_EMPTY,
            ):
                # Revoked between our two critical sections and the
                # supervisor already freed the attached extent.
                freed = None
            else:
                # Revoked and re-claimed by another reader whose own
                # extent now lives in the entry: our copy's extent is
                # orphaned — free it ourselves.
                freed = (off, rounded)
        if view is not None:
            return view, evictions
        if freed is not None:
            with self._alloc_lock:
                self._free_extent(*freed)
        return None, evictions

    def abandon_claim(self, slot: int, reader: int, generation: int = 0) -> None:
        """Drop a claim after a failed decode (single-flight release).

        Tombstoning (not emptying) keeps probe chains that skipped over
        this slot valid. Any extent already attached to the claim is
        returned to the free list.
        """
        stripe = slot // self._slots_per_stripe
        freed: Optional[Tuple[int, int]] = None
        with self._stripe_locks[stripe]:
            if (
                int(self._state[slot]) == SLOT_CLAIMED
                and int(self._owner[slot]) == reader
                and int(self._owner_gen[slot]) == generation
            ):
                if int(self._extent[slot]):
                    freed = (int(self._offset[slot]), int(self._extent[slot]))
                    self._extent[slot] = 0
                self._state[slot] = SLOT_TOMBSTONE
        if freed is not None:
            with self._alloc_lock:
                self._free_extent(*freed)

    def unpin(self, slot: int, reader: int, count: int = 1) -> None:
        """Release ``count`` pins ``reader`` holds on ``slot``."""
        stripe = slot // self._slots_per_stripe
        with self._stripe_locks[stripe]:
            self._pins[slot, reader] = max(
                0, int(self._pins[slot, reader]) - count
            )

    def release_reader(self, reader: int) -> None:
        """Release everything a (dead or exiting) reader holds.

        Zeroes the reader's pin column and revokes its in-flight claims,
        freeing any extents attached to them. The supervisor calls this
        after terminating a worker incarnation and *before* starting its
        replacement, so the replacement (same reader id, bumped
        generation) starts with a clean column.
        """
        freed: List[Tuple[int, int]] = []
        for stripe in range(self.stripes):
            lo = stripe * self._slots_per_stripe
            hi = lo + self._slots_per_stripe
            with self._stripe_locks[stripe]:
                self._pins[lo:hi, reader] = 0
                claimed = np.flatnonzero(
                    (self._state[lo:hi] == SLOT_CLAIMED)
                    & (self._owner[lo:hi] == reader)
                )
                for rel in claimed.tolist():
                    slot = lo + rel
                    if int(self._extent[slot]):
                        freed.append(
                            (int(self._offset[slot]), int(self._extent[slot]))
                        )
                        self._extent[slot] = 0
                    self._state[slot] = SLOT_TOMBSTONE
        if freed:
            with self._alloc_lock:
                for off, ext in freed:
                    self._free_extent(off, ext)

    # -- accounting ------------------------------------------------------------
    def pinned_bytes(self) -> int:
        """Bytes of arena currently under at least one live pin (gauge)."""
        pinned = self._pins.any(axis=1) & (self._state == SLOT_READY)
        return int(self._nbytes[pinned].sum())

    def ready_entries(self) -> int:
        return int((self._state == SLOT_READY).sum())

    def total_stats(self) -> ArenaStats:
        """Machine-global counters summed over every reader row."""
        sums = self._stats.sum(axis=0)
        return ArenaStats(
            hits=int(sums[STAT_HITS]),
            misses=int(sums[STAT_MISSES]),
            cross_worker_hits=int(sums[STAT_CROSS_HITS]),
            evictions=int(sums[STAT_EVICTIONS]),
            single_flight_waits=int(sums[STAT_WAITS]),
        )

    def reader_stats(self, reader: int) -> ArenaStats:
        row = self._stats[reader]
        return ArenaStats(
            hits=int(row[STAT_HITS]),
            misses=int(row[STAT_MISSES]),
            cross_worker_hits=int(row[STAT_CROSS_HITS]),
            evictions=int(row[STAT_EVICTIONS]),
            single_flight_waits=int(row[STAT_WAITS]),
        )

    # -- lifecycle -------------------------------------------------------------
    def clear(self) -> None:
        """Reset the index and free list (callers must quiesce readers)."""
        with self._alloc_lock:
            for stripe in range(self.stripes):
                lo = stripe * self._slots_per_stripe
                hi = lo + self._slots_per_stripe
                with self._stripe_locks[stripe]:
                    self._state[lo:hi] = SLOT_EMPTY
                    self._refbit[lo:hi] = 0
                    self._pins[lo:hi] = 0
                    self._extent[lo:hi] = 0
            self._extents[0] = (0, self.arena_bytes)
            self._header[3] = 1
            self._header[4] = 0

    def _drop_views(self) -> None:
        for name in (
            "_header", "_keys", "_state", "_refbit", "_owner", "_owner_gen",
            "_offset", "_nbytes", "_extent", "_height", "_width", "_pins",
            "_stats", "_extents",
        ):
            if hasattr(self, name):
                delattr(self, name)

    def close(self) -> None:
        """Drop this process's mappings; segments stay linked for others.

        Index views are dropped first (they alias the index segment); a
        data mapping still aliased by live sample views is abandoned to
        them — the pages stay mapped exactly as long as some view needs
        them (the PR 7 ``from_shared_buffer`` contract).
        """
        self._drop_views()
        for segment in (self._index, self._data):
            try:
                segment.close()
            except BufferError:
                abandon_mapping(segment)

    @property
    def unlinked(self) -> bool:
        return self._unlinked

    def unlink(self) -> None:
        """Close and unlink both segments (main process only, idempotent)."""
        if self._unlinked:
            return
        self._unlinked = True
        self.close()
        unlink_segment(f"{self.prefix}d")
        unlink_segment(f"{self.prefix}i")

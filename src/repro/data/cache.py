"""Preprocessing caching and offline materialization.

The paper's Takeaway 2: training benchmarks that are optimized for
time-to-accuracy apply some preprocessing *before* training (offline) to
avoid a preprocessing bottleneck during it — IS and OD pre-decode to
numpy, while IC decodes JPEG online and pays for it every epoch. The
related-work section surveys caching systems (CoorDL, Cachew, FFCV, ...)
attacking the same cost.

This module provides both mitigation styles for our pipelines:

* :class:`CachingLoader` — memoizes a loader callable (decode-once,
  reuse across epochs), with an optional LRU capacity. In its default
  *private* mode the memo dict lives in the calling process; handed a
  :class:`~repro.data.shared_cache.SharedSampleCache` it becomes the
  *shared* mode front end (DESIGN.md §11): decoded pixels live in one
  machine-wide shared-memory arena, hits are zero-copy read-only views,
  and misses are single-flight across processes as well as threads;
* :func:`materialize_decoded` / :class:`DecodedArrayDataset` — the
  offline-preprocessing route: decode the whole dataset up front and
  serve raw arrays, turning the Loader op into a near-free wrap.

The ``ext_bottleneck_shift`` experiment uses these to reproduce the
bottleneck flip the paper observes between IC and IS/OD.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.lotustrace.logfile import PathLike, TraceSink
from repro.core.lotustrace.records import CACHE_PRIVATE, CACHE_SHARED
from repro.data.dataset import BlobImageDataset, pil_loader
from repro.data.shared_cache import (
    CLAIM_POLL_S,
    SharedSampleCache,
    shared_sample_key,
)
from repro.errors import DataLoaderError
from repro.imaging.image import Image, load_rgb_batch


@dataclass(frozen=True)
class CacheStats:
    """Named cache accounting snapshot returned by :meth:`CachingLoader.stats`.

    Unpacks like the historical ``(hits, misses)`` tuple —
    ``hits, misses = loader.stats()`` keeps working — while also naming
    the counters that grew out of the shared cache: evictions (LRU pops
    in private mode, CLOCK victims this loader evicted in shared mode),
    single-flight waits (times a load blocked on another thread's or
    process's in-flight decode of the same key), and cross-worker hits
    (shared-mode hits on entries decoded by a *different* reader).
    """

    hits: int
    misses: int
    evictions: int = 0
    single_flight_waits: int = 0
    cross_worker_hits: int = 0

    def __iter__(self) -> Iterator[int]:
        # Tuple-unpacking compatibility with the PR 5 two-tuple.
        return iter((self.hits, self.misses))

    def __len__(self) -> int:
        return 2

    def __getitem__(self, index):
        return (self.hits, self.misses)[index]

    def __eq__(self, other: object) -> bool:
        # Equality against a plain tuple compares the historical
        # ``(hits, misses)`` pair, so ``loader.stats() == (0, 6)``
        # call sites keep passing alongside the unpacking forms above.
        if isinstance(other, CacheStats):
            return (
                self.hits,
                self.misses,
                self.evictions,
                self.single_flight_waits,
                self.cross_worker_hits,
            ) == (
                other.hits,
                other.misses,
                other.evictions,
                other.single_flight_waits,
                other.cross_worker_hits,
            )
        if isinstance(other, tuple):
            return (self.hits, self.misses) == other
        return NotImplemented

    def __hash__(self) -> int:
        # Consistent with tuple equality: equal values hash equal.
        return hash((self.hits, self.misses))


class CachingLoader:
    """Memoizing wrapper around an image loader.

    The first load of each source pays full decode cost; subsequent
    loads are a cache hit. With ``capacity`` set, least-recently-used
    entries are evicted (a partial-cache configuration, as studied by the
    caching systems in the paper's related work).

    Misses are *single-flight*: concurrent loads of the same key decode
    once — the first thread to claim the key decodes it while the others
    wait on its per-key event and then read the inserted entry as a hit.
    :meth:`load_batch` is the cache-aware bulk form the batched fetcher
    uses: whole-batch lookup, one stacked decode over only the misses,
    bulk insert — warm epochs pay zero decode, cold epochs the amortized
    batched cost.

    Handed a :class:`SharedSampleCache` via ``shared=``, the loader runs
    in *shared* mode: the private dict is bypassed, decoded RGB samples
    live in the cross-process arena, hits return ``Image`` objects
    wrapping read-only zero-copy views into it, and single-flight spans
    processes (a claim in the shared index instead of a per-key event).
    Pinned entries are released ``pin_depth`` batches after they were
    read (:meth:`advance_batch`, driven by the fetcher), mirroring the
    transport's one-yield-late slab ack. Values the wrapped loader
    produces that are not decoded RGB ``Image``\\ s fall through to a
    plain per-access decode, counted as misses.
    """

    def __init__(
        self,
        loader: Callable = pil_loader,
        capacity: Optional[int] = None,
        shared: Optional[SharedSampleCache] = None,
        pin_depth: int = 2,
    ) -> None:
        if capacity is not None and capacity < 1:
            raise DataLoaderError(f"capacity must be >= 1, got {capacity}")
        if shared is not None and capacity is not None:
            raise DataLoaderError(
                "capacity= is the private-mode knob; shared-mode capacity "
                "is fixed by the SharedSampleCache arena"
            )
        if pin_depth < 1:
            raise DataLoaderError(f"pin_depth must be >= 1, got {pin_depth}")
        self._loader = loader
        self._capacity = capacity
        self._shared = shared
        self._pin_depth = pin_depth
        self.mode = CACHE_SHARED if shared is not None else CACHE_PRIVATE
        self._cache: "OrderedDict[Tuple[str, Union[bytes, str]], object]" = OrderedDict()
        self._lock = threading.Lock()
        self._inflight: "dict[Tuple[str, Union[bytes, str]], threading.Event]" = {}
        # Per-thread state: reader identity (shared mode), pin scopes,
        # and the per-batch counter deltas consumed into cache_stats
        # trace records — thread-local so concurrent thread-backend
        # workers attribute their own activity to their own records.
        self._tls = threading.local()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.single_flight_waits = 0
        self.cross_worker_hits = 0

    @property
    def shared_cache(self) -> Optional[SharedSampleCache]:
        return self._shared

    @staticmethod
    def cache_key(source) -> Tuple[str, Union[bytes, str]]:
        """Collision-free cache key for a loader source.

        Byte blobs are keyed by a content digest (``hash(bytes)`` can
        collide — and silently serve the *wrong* decoded image); path-like
        sources are keyed by their string form. The type tag keeps a path
        string and a blob with the same bytes distinct.
        """
        if isinstance(source, bytes):
            return ("blob", hashlib.blake2b(source, digest_size=16).digest())
        return ("path", str(source))

    # -- per-thread state ------------------------------------------------------
    def _batch_counts(self) -> List[int]:
        """This thread's cache_stats deltas: [hits, misses, cross, evict, waits]."""
        counts = getattr(self._tls, "batch_counts", None)
        if counts is None:
            counts = [0, 0, 0, 0, 0]
            self._tls.batch_counts = counts
        return counts

    def _pin_scopes(self) -> "deque[List[int]]":
        scopes = getattr(self._tls, "pin_scopes", None)
        if scopes is None:
            scopes = deque([[]])
            self._tls.pin_scopes = scopes
        return scopes

    def _reader(self) -> Tuple[int, int]:
        return (
            getattr(self._tls, "reader", 0),
            getattr(self._tls, "generation", 0),
        )

    def bind_reader(self, reader: int, generation: int = 0) -> None:
        """Bind this thread to a shared-cache reader identity.

        Reader 0 is the main process; worker ``w`` binds ``w + 1``. The
        generation is the worker's restart generation, stamped on claims
        so a crashed incarnation's leftovers can be revoked without
        confusing its replacement. No-op bookkeeping in private mode.
        """
        if self._shared is not None and not 0 <= reader < self._shared.max_readers:
            raise DataLoaderError(
                f"reader {reader} out of range for shared cache with "
                f"max_readers={self._shared.max_readers}"
            )
        self._tls.reader = reader
        self._tls.generation = generation

    def advance_batch(self) -> None:
        """Open a new pin scope, releasing pins ``pin_depth`` batches old.

        The fetcher calls this at the top of every batch; entries read
        for batch ``b`` stay pinned (unevictable) until batch
        ``b + pin_depth`` starts, by which time the collated batch no
        longer aliases the arena. Private mode has no pins: no-op.
        """
        if self._shared is None:
            return
        scopes = self._pin_scopes()
        scopes.append([])
        reader, _ = self._reader()
        while len(scopes) > self._pin_depth + 1:
            for slot in scopes.popleft():
                self._shared.unpin(slot, reader)

    def release_pins(self) -> None:
        """Release every pin this thread holds (worker/iterator exit)."""
        if self._shared is None:
            return
        scopes = self._pin_scopes()
        reader, _ = self._reader()
        while scopes:
            for slot in scopes.popleft():
                self._shared.unpin(slot, reader)
        scopes.append([])

    def consume_batch_stats(self) -> Tuple[str, int, int, int, int, int]:
        """Drain this thread's per-batch deltas for a cache_stats record.

        Returns ``(mode, hits, misses, cross_hits, evictions,
        pinned_bytes)`` — the mode and ``cache_stats`` tag values
        :func:`~repro.core.lotustrace.records.format_counter_name` takes.
        The first five reset to zero; pinned bytes is a live gauge of
        the shared arena (0 in private mode).
        """
        counts = self._batch_counts()
        hits, misses, cross, evictions, _waits = counts
        counts[0] = counts[1] = counts[2] = counts[3] = 0
        pinned = self._shared.pinned_bytes() if self._shared is not None else 0
        return (self.mode, hits, misses, cross, evictions, pinned)

    # -- internals (lock held) ------------------------------------------------
    def _lookup_hit(self, key) -> Tuple[bool, object]:
        if key in self._cache:
            self._cache.move_to_end(key)
            self.hits += 1
            self._batch_counts()[0] += 1
            return True, self._cache[key]
        return False, None

    def _insert_miss(self, key, value) -> None:
        self._cache[key] = value
        self.misses += 1
        self._batch_counts()[1] += 1
        if self._capacity is not None:
            while len(self._cache) > self._capacity:
                self._cache.popitem(last=False)
                self.evictions += 1
                self._batch_counts()[3] += 1

    def _release(self, keys) -> None:
        """Drop in-flight claims (after insert or on loader failure)."""
        with self._lock:
            events = [self._inflight.pop(key, None) for key in keys]
        for event in events:
            if event is not None:
                event.set()

    def _load_sources(self, sources: List) -> List[object]:
        """Decode claimed misses — in one stacked pass when the wrapped
        loader is the stock ``pil_loader``, per source otherwise."""
        if self._loader is pil_loader and len(sources) > 1:
            return load_rgb_batch(sources)
        return [self._loader(source) for source in sources]

    def __call__(self, source) -> object:
        if self._shared is not None:
            return self._shared_get(source)
        key = self.cache_key(source)
        while True:
            with self._lock:
                hit, value = self._lookup_hit(key)
                if hit:
                    return value
                pending = self._inflight.get(key)
                if pending is None:
                    self._inflight[key] = threading.Event()
                    break
                self.single_flight_waits += 1
                self._batch_counts()[4] += 1
            # Another thread is decoding this key: wait for it, then
            # re-check — its insert becomes our hit. If it failed, the
            # claim is gone and we take over the decode.
            pending.wait()
        try:
            value = self._loader(source)
        except BaseException:
            self._release([key])
            raise
        with self._lock:
            self._insert_miss(key, value)
        self._release([key])
        return value

    # -- shared mode ----------------------------------------------------------
    def _count_hit(self, cross: bool) -> None:
        counts = self._batch_counts()
        with self._lock:
            self.hits += 1
            if cross:
                self.cross_worker_hits += 1
        counts[0] += 1
        if cross:
            counts[2] += 1

    def _count_uncached_miss(self, reader: int) -> None:
        """A decode the arena could not absorb (stripe full / stale claim)."""
        with self._lock:
            self.misses += 1
        self._batch_counts()[1] += 1
        self._shared.count_miss(reader)

    @staticmethod
    def _cacheable_array(value) -> Optional[np.ndarray]:
        """The pixel array to publish, or None if ``value`` is uncacheable."""
        if isinstance(value, Image) and value.is_decoded and value.mode == "RGB":
            return value.to_array()
        return None

    def _publish_value(self, slot, value, reader, generation):
        """Publish a freshly decoded value into a claimed slot.

        Returns what callers should hand out: an ``Image`` over the
        shared read-only view when the publish stuck, the private value
        otherwise (uncacheable type, arena full, or claim revoked).
        """
        counts = self._batch_counts()
        with self._lock:
            self.misses += 1
        counts[1] += 1
        array = self._cacheable_array(value)
        if array is None:
            self._shared.abandon_claim(slot, reader, generation)
            return value
        view, evictions = self._shared.publish(slot, array, reader, generation)
        if evictions:
            with self._lock:
                self.evictions += evictions
            counts[3] += evictions
        if view is None:
            return value
        self._pin_scopes()[-1].append(slot)
        return Image(view)

    def _shared_get(self, source) -> object:
        shared = self._shared
        reader, generation = self._reader()
        key = shared_sample_key(source)
        deadline = None
        while True:
            outcome = shared.probe(key, reader, generation)
            tag = outcome[0]
            if tag == "hit":
                _, slot, view, cross = outcome
                self._pin_scopes()[-1].append(slot)
                self._count_hit(cross)
                return Image(view)
            if tag == "claimed":
                slot = outcome[1]
                try:
                    value = self._loader(source)
                except BaseException:
                    shared.abandon_claim(slot, reader, generation)
                    raise
                return self._publish_value(slot, value, reader, generation)
            if tag == "full":
                # No index room in this key's stripe: serve a private
                # decode (correct, just uncached) every access.
                self._count_uncached_miss(reader)
                return self._loader(source)
            # Another process owns the decode: poll until its publish
            # becomes our hit or its abandoned claim lets us take over.
            now = time.monotonic()
            if deadline is None:
                deadline = now + shared.claim_wait_s
                with self._lock:
                    self.single_flight_waits += 1
                self._batch_counts()[4] += 1
                shared.count_wait(reader)
            elif now > deadline:
                # The claimant looks dead and the supervisor has not
                # swept it yet: decode privately rather than hang.
                self._count_uncached_miss(reader)
                return self._loader(source)
            time.sleep(CLAIM_POLL_S)

    def load_batch(self, sources: Sequence) -> List[object]:
        """Cache-aware whole-batch load (the bulk-loader protocol).

        Looks up every source, claims the distinct missing keys, decodes
        only those in one stacked pass, and inserts them; duplicate
        sources within the batch and keys already being decoded by
        another thread resolve to single decodes. Returns decoded values
        in source order.
        """
        if self._shared is not None:
            return self._shared_load_batch(sources)
        keys = [self.cache_key(source) for source in sources]
        results: List[object] = [None] * len(sources)
        claimed: "OrderedDict[Tuple[str, Union[bytes, str]], int]" = OrderedDict()
        duplicates: List[Tuple[int, int]] = []  # (position, claimed position)
        waiting: List[int] = []  # positions in flight on other threads
        with self._lock:
            for position, key in enumerate(keys):
                hit, value = self._lookup_hit(key)
                if hit:
                    results[position] = value
                elif key in claimed:
                    duplicates.append((position, claimed[key]))
                elif key in self._inflight:
                    waiting.append(position)
                else:
                    self._inflight[key] = threading.Event()
                    claimed[key] = position
        claim_positions = list(claimed.values())
        try:
            values = self._load_sources(
                [sources[position] for position in claim_positions]
            )
        except BaseException:
            self._release(claimed.keys())
            raise
        with self._lock:
            for key, position, value in zip(
                claimed.keys(), claim_positions, values
            ):
                results[position] = value
                self._insert_miss(key, value)
            for position, source_position in duplicates:
                # Same source twice in one batch: decoded once, the
                # second occurrence is a hit on the just-inserted entry.
                results[position] = results[source_position]
                self.hits += 1
        self._release(claimed.keys())
        # Keys another thread was decoding: take the single-source path,
        # which waits on that thread's event (or redoes a failed decode).
        for position in waiting:
            results[position] = self(sources[position])
        return results

    def _shared_load_batch(self, sources: Sequence) -> List[object]:
        """Whole-batch lookup against the shared index.

        One probe per *distinct* source: hits pin and return views,
        misses claim their slots and decode in one stacked pass, keys
        claimed by another process resolve through the waiting
        single-source path, and in-batch duplicates alias the first
        occurrence (a hit, as in private mode).
        """
        shared = self._shared
        reader, generation = self._reader()
        results: List[object] = [None] * len(sources)
        first_position: "dict[bytes, int]" = {}
        duplicates: List[Tuple[int, int]] = []
        claimed: List[Tuple[int, int]] = []  # (position, slot)
        uncached: List[int] = []  # stripe-full positions: decode privately
        waiting: List[int] = []  # claimed by another process
        for position, source in enumerate(sources):
            key = shared_sample_key(source)
            if key in first_position:
                duplicates.append((position, first_position[key]))
                continue
            first_position[key] = position
            outcome = shared.probe(key, reader, generation)
            tag = outcome[0]
            if tag == "hit":
                _, slot, view, cross = outcome
                self._pin_scopes()[-1].append(slot)
                self._count_hit(cross)
                results[position] = Image(view)
            elif tag == "claimed":
                claimed.append((position, outcome[1]))
            elif tag == "full":
                uncached.append(position)
            else:
                waiting.append(position)
        decode_positions = [position for position, _ in claimed] + uncached
        if decode_positions:
            try:
                values = self._load_sources(
                    [sources[position] for position in decode_positions]
                )
            except BaseException:
                for _, slot in claimed:
                    shared.abandon_claim(slot, reader, generation)
                raise
            for (position, slot), value in zip(claimed, values):
                results[position] = self._publish_value(
                    slot, value, reader, generation
                )
            for position, value in zip(uncached, values[len(claimed):]):
                self._count_uncached_miss(reader)
                results[position] = value
        for position in waiting:
            results[position] = self(sources[position])
        for position, source_position in duplicates:
            # Same source twice in one batch: one decode (or one pin),
            # the second occurrence is a hit on the same object.
            results[position] = results[source_position]
            self._count_hit(cross=False)
        return results

    @property
    def hit_rate(self) -> float:
        """Fraction of loads served from cache.

        ``hits / (hits + misses)`` over the full :meth:`stats` snapshot
        (which also carries evictions, single-flight waits, and
        cross-worker hits — see :class:`CacheStats`); 0.0 before any
        load.
        """
        hits, misses = self.stats()
        total = hits + misses
        return hits / total if total else 0.0

    def stats(self) -> CacheStats:
        """A consistent counter snapshot taken under the lock.

        Returns a :class:`CacheStats`; existing
        ``hits, misses = loader.stats()`` call sites keep unpacking.
        """
        with self._lock:
            return CacheStats(
                hits=self.hits,
                misses=self.misses,
                evictions=self.evictions,
                single_flight_waits=self.single_flight_waits,
                cross_worker_hits=self.cross_worker_hits,
            )

    def clear(self) -> None:
        """Drop private entries and reset counters.

        Shared mode: counters reset but the arena is left alone — its
        contents are machine-global state other readers may be using
        (use :meth:`SharedSampleCache.clear` on a quiesced arena).
        """
        with self._lock:
            self._cache.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0
            self.single_flight_waits = 0
            self.cross_worker_hits = 0


def materialize_decoded(
    blobs: Sequence[bytes], batch_size: int = 64
) -> List[np.ndarray]:
    """Offline preprocessing: decode every blob to a raw RGB array.

    This is the one-time cost IS/OD pay before training in MLPerf; the
    returned arrays feed a :class:`DecodedArrayDataset`. Decoding runs
    ``batch_size`` blobs at a time through the stacked batch decoder —
    bit-identical to per-blob ``pil_loader`` (DESIGN.md §9), at the
    amortized batched cost.
    """
    if batch_size < 1:
        raise DataLoaderError(f"batch_size must be >= 1, got {batch_size}")
    arrays: List[np.ndarray] = []
    for start in range(0, len(blobs), batch_size):
        chunk = [blobs[index] for index in range(start, min(start + batch_size, len(blobs)))]
        arrays.extend(image.to_array() for image in load_rgb_batch(chunk))
    return arrays


class DecodedArrayDataset(BlobImageDataset):
    """Image dataset over pre-decoded arrays (the offline-prep pipeline).

    Reuses the BlobImageDataset plumbing (labels, transforms, Loader op
    logging) with a loader that only wraps the stored array — so traces
    still show a ``Loader`` op, now nearly free, exactly how the paper's
    IS/OD traces look.
    """

    def __init__(
        self,
        arrays: Sequence[np.ndarray],
        labels: Optional[Sequence[int]] = None,
        transform: Optional[Callable] = None,
        log_file: Union[PathLike, TraceSink, None] = None,
    ) -> None:
        super().__init__(
            arrays,  # stored in the blob slot; loader wraps them
            labels=labels,
            transform=transform,
            loader=lambda array: Image(np.ascontiguousarray(array)),
            log_file=log_file,
        )

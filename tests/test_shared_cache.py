"""Shared-memory decoded-sample cache (DESIGN.md §11).

Covers the arena/index mechanics (single-flight claims, pinning,
CLOCK eviction refusal under pins), the ``DataLoader(cache=...)``
wiring (shared/private/off parity across backends and transports,
decode-exactly-once across process workers), the ``cache_stats``
trace records under both analysis engines, and the crash-safety
contract (worker death releases pins and claims; the main process
unlinks everything — zero ``/dev/shm`` leaks).
"""

import glob
import os
import threading
import time

import numpy as np
import pytest

from repro.core.lotustrace import (
    CACHE_SHARED,
    KIND_CACHE_STATS,
    analysis_engine,
    analyze_trace,
    parse_counter_name,
    parse_trace_file,
    parse_trace_file_columns,
)
from repro.data.cache import CacheStats, CachingLoader
from repro.data.dataloader import DataLoader
from repro.data.dataset import BlobImageDataset, IterableDataset, pil_loader
from repro.data.faults import FaultPlan, FaultSite
from repro.data.shared_cache import (
    SharedSampleCache,
    sample_cache_prefix,
    shared_sample_key,
)
from repro.errors import DataLoaderError
from repro.imaging.jpeg.codec import encode_sjpg
from repro.transforms import Compose, RandomResizedCrop, ToTensor
from tests.conftest import make_test_image

N_UNIQUE = 8
N_SOURCES = 16  # each unique blob appears twice
BATCH = 4


def live_cache_segments():
    """Names of §11 cache segments currently linked in /dev/shm."""
    return sorted(
        os.path.basename(p)
        for p in glob.glob(f"/dev/shm/lt{os.getpid()}c*")
    )


@pytest.fixture(scope="module")
def unique_blobs():
    return [
        encode_sjpg(make_test_image(56, 56, seed=300 + i), quality=85)
        for i in range(N_UNIQUE)
    ]


@pytest.fixture(scope="module")
def dup_blobs(unique_blobs):
    """16 sources over 8 unique blobs: duplicates make hits reachable
    even on a cold epoch and exercise in-batch dedup."""
    return [unique_blobs[i % N_UNIQUE] for i in range(N_SOURCES)]


def make_dataset(blobs):
    return BlobImageDataset(
        blobs,
        labels=list(range(len(blobs))),
        transform=Compose([RandomResizedCrop(32, seed=0), ToTensor()]),
    )


def run_epochs(
    blobs,
    cache,
    num_workers,
    backend,
    epochs=1,
    transport="auto",
    log_file=None,
    **kwargs,
):
    loader = DataLoader(
        make_dataset(blobs),
        batch_size=BATCH,
        num_workers=num_workers,
        worker_backend=backend,
        cache=cache,
        seed=0,
        transport=transport,
        log_file=log_file,
        **kwargs,
    )
    batches = []
    for _ in range(epochs):
        for images, labels in loader:
            batches.append((images.numpy().copy(), labels.numpy().copy()))
    loader.close()
    return batches


def assert_batches_equal(a, b):
    assert len(a) == len(b)
    for (img_a, lbl_a), (img_b, lbl_b) in zip(a, b):
        np.testing.assert_array_equal(img_a, img_b)
        np.testing.assert_array_equal(lbl_a, lbl_b)


# -- CachingLoader.stats() (named structure, tuple-compatible) ---------------


class TestCacheStatsStructure:
    def test_tuple_unpacking_still_works(self):
        loader = CachingLoader()
        blob = encode_sjpg(make_test_image(48, 48, seed=1))
        loader(blob)
        loader(blob)
        hits, misses = loader.stats()
        assert (hits, misses) == (1, 1)
        assert len(loader.stats()) == 2
        assert tuple(loader.stats()) == (1, 1)

    def test_named_fields_count_evictions(self):
        loader = CachingLoader(capacity=1)
        a = encode_sjpg(make_test_image(48, 48, seed=2))
        b = encode_sjpg(make_test_image(48, 48, seed=3))
        loader(a)
        loader(b)  # evicts a
        stats = loader.stats()
        assert isinstance(stats, CacheStats)
        assert stats.misses == 2
        assert stats.evictions == 1
        assert stats.single_flight_waits == 0
        assert stats.cross_worker_hits == 0


# -- SharedSampleCache unit tests --------------------------------------------


class TestSharedSampleCacheUnit:
    def make_cache(self, capacity=1 << 20, **kwargs):
        kwargs.setdefault("max_readers", 3)
        return SharedSampleCache(capacity_bytes=capacity, nonce=777, **kwargs)

    def test_probe_publish_hit_roundtrip(self):
        cache = self.make_cache()
        try:
            img = make_test_image(40, 40, seed=5)
            key = shared_sample_key(b"blob-a")
            outcome, slot = cache.probe(key, 0)[:2]
            assert outcome == "claimed"
            view, evictions = cache.publish(slot, img, 0)
            assert evictions == 0
            np.testing.assert_array_equal(view, img)
            assert not view.flags.writeable
            with pytest.raises((ValueError, RuntimeError)):
                view[0, 0, 0] = 1
            outcome, slot2, view2, cross = cache.probe(key, 0)
            assert outcome == "hit" and slot2 == slot and not cross
            np.testing.assert_array_equal(view2, img)
            stats = cache.total_stats()
            assert (stats.hits, stats.misses) == (1, 1)
        finally:
            cache.unlink()

    def test_cross_reader_hit_and_single_flight(self):
        cache = self.make_cache()
        try:
            img = make_test_image(40, 40, seed=6)
            key = shared_sample_key(b"blob-b")
            outcome, slot = cache.probe(key, 0)[:2]
            assert outcome == "claimed"
            # Second reader sees the in-flight claim: single-flight.
            outcome2, slot2 = cache.probe(key, 1)[:2]
            assert (outcome2, slot2) == ("wait", slot)
            cache.count_wait(1)
            cache.publish(slot, img, 0)
            outcome3, _, view, cross = cache.probe(key, 1)
            assert outcome3 == "hit" and cross
            np.testing.assert_array_equal(view, img)
            assert cache.reader_stats(1).single_flight_waits == 1
            assert cache.reader_stats(1).cross_worker_hits == 1
            assert cache.total_stats().misses == 1  # decoded exactly once
        finally:
            cache.unlink()

    def test_eviction_refused_under_pin(self):
        # Arena of exactly two pages; each entry rounds to one page.
        cache = self.make_cache(capacity=8192, slots=64)
        try:
            img = make_test_image(32, 40, seed=7)  # 3840 B -> one page
            slots = {}
            for name in (b"a", b"b"):
                outcome, slot = cache.probe(shared_sample_key(name), 0)[:2]
                assert outcome == "claimed"
                view, _ = cache.publish(slot, img, 0)
                assert view is not None  # publish pins the entry
                slots[name] = slot
            # Both entries pinned: a third publish finds no victim and
            # falls back to an uncached decode (view is None), leaving
            # the pinned entries untouched.
            outcome, slot_c = cache.probe(shared_sample_key(b"c"), 0)[:2]
            assert outcome == "claimed"
            view, evictions = cache.publish(slot_c, img, 0)
            assert view is None and evictions == 0
            assert cache.ready_entries() == 2
            assert cache.pinned_bytes() == 2 * img.nbytes
            # Unpinning one entry makes it evictable (after its CLOCK
            # second chance) and the retried publish succeeds.
            cache.unpin(slots[b"a"], 0)
            outcome, slot_c = cache.probe(shared_sample_key(b"c"), 0)[:2]
            assert outcome == "claimed"
            view, evictions = cache.publish(slot_c, img, 0)
            assert view is not None and evictions == 1
            assert cache.total_stats().evictions == 1
            # The evicted entry is gone: probing re-claims it.
            outcome = cache.probe(shared_sample_key(b"a"), 0)[0]
            assert outcome == "claimed"
        finally:
            cache.unlink()

    def test_release_reader_drops_pins_and_claims(self):
        cache = self.make_cache()
        try:
            img = make_test_image(40, 40, seed=8)
            outcome, ready_slot = cache.probe(shared_sample_key(b"r"), 1)[:2]
            cache.publish(ready_slot, img, 1)  # reader 1 holds a pin
            outcome, claimed_slot = cache.probe(shared_sample_key(b"s"), 1)[:2]
            assert outcome == "claimed"
            assert cache.pinned_bytes() == img.nbytes
            # The supervisor's path after a worker death.
            cache.release_reader(1)
            assert cache.pinned_bytes() == 0
            # The orphaned claim was revoked: another reader can claim.
            outcome = cache.probe(shared_sample_key(b"s"), 2)[0]
            assert outcome == "claimed"
        finally:
            cache.unlink()

    def test_rejects_non_uint8_and_bad_reader(self):
        cache = self.make_cache()
        try:
            outcome, slot = cache.probe(shared_sample_key(b"x"), 0)[:2]
            with pytest.raises(DataLoaderError):
                cache.publish(slot, np.zeros((4, 4, 3), dtype=np.float32), 0)
            with pytest.raises(DataLoaderError):
                cache.probe(shared_sample_key(b"y"), 99)
        finally:
            cache.unlink()

    def test_unlink_is_idempotent_and_removes_segments(self):
        cache = self.make_cache()
        prefix = sample_cache_prefix(os.getpid(), 777)
        assert any(name.startswith(prefix) for name in live_cache_segments())
        cache.unlink()
        assert cache.unlinked
        assert not any(
            name.startswith(prefix) for name in live_cache_segments()
        )
        cache.unlink()  # second call is a no-op


# -- loader-level single-flight across concurrent readers --------------------


class TestLoaderSingleFlight:
    def test_second_reader_waits_then_hits(self):
        arena = SharedSampleCache(
            capacity_bytes=1 << 20, max_readers=2, nonce=778
        )
        release = threading.Event()
        decodes = []

        def slow_loader(blob):
            decodes.append(blob)
            release.wait(timeout=10)
            return pil_loader(blob)

        loader_a = CachingLoader(slow_loader, shared=arena)
        loader_b = CachingLoader(pil_loader, shared=arena)
        blob = encode_sjpg(make_test_image(48, 48, seed=9))
        results = {}

        def run(name, loader, reader):
            # The reader binding is thread-local (each worker binds its
            # own id after fork), so bind inside the consuming thread.
            loader.bind_reader(reader)
            results[name] = loader(blob).to_array()

        try:
            thread_a = threading.Thread(target=run, args=("a", loader_a, 0))
            thread_a.start()
            # Wait until A's claim is stamped (the claim counts a miss),
            # so B deterministically lands in the wait path.
            deadline = time.monotonic() + 10
            while arena.total_stats().misses == 0:
                assert time.monotonic() < deadline
                time.sleep(0.001)
            thread_b = threading.Thread(target=run, args=("b", loader_b, 1))
            thread_b.start()
            time.sleep(0.02)  # let B enter its poll loop
            release.set()
            thread_a.join(timeout=10)
            thread_b.join(timeout=10)
            np.testing.assert_array_equal(results["a"], results["b"])
            assert len(decodes) == 1  # decoded exactly once machine-wide
            stats = arena.total_stats()
            assert stats.misses == 1
            assert stats.cross_worker_hits == 1
            assert stats.single_flight_waits >= 1
            loader_a.release_pins()
            loader_b.release_pins()
        finally:
            arena.unlink()


# -- end-to-end DataLoader wiring --------------------------------------------


class TestSharedCacheParity:
    @pytest.mark.parametrize(
        "num_workers,backend",
        [(0, "thread"), (2, "thread"), (4, "process")],
    )
    def test_modes_bit_identical(self, dup_blobs, num_workers, backend):
        baseline = run_epochs(dup_blobs, None, num_workers, backend, epochs=2)
        shared = run_epochs(dup_blobs, "shared", num_workers, backend, epochs=2)
        private = run_epochs(
            dup_blobs, "private", num_workers, backend, epochs=2
        )
        assert_batches_equal(baseline, shared)
        assert_batches_equal(baseline, private)
        assert live_cache_segments() == []

    def test_pickle_transport_parity(self, dup_blobs):
        baseline = run_epochs(
            dup_blobs, None, 2, "process", transport="pickle"
        )
        shared = run_epochs(
            dup_blobs, "shared", 2, "process", transport="pickle"
        )
        assert_batches_equal(baseline, shared)
        assert live_cache_segments() == []


class TestDecodeExactlyOnce:
    def test_cold_epoch_once_warm_epoch_zero(self, dup_blobs, tmp_path):
        log = str(tmp_path / "shared.trace")
        run_epochs(
            dup_blobs, "shared", 4, "process", epochs=2, log_file=log
        )
        records = parse_trace_file(log)
        cache_recs = [r for r in records if r.kind == KIND_CACHE_STATS]
        # One record per fetched batch per epoch.
        assert len(cache_recs) == 2 * (N_SOURCES // BATCH)
        parsed = [
            parse_counter_name(KIND_CACHE_STATS, r.name) for r in cache_recs
        ]
        assert {p[0] for p in parsed} == {CACHE_SHARED}
        total_hits = sum(p[1] for p in parsed)
        total_misses = sum(p[2] for p in parsed)
        # 2 epochs x 16 lookups; every unique image decoded exactly once
        # across all 4 workers (cold), zero decodes warm.
        assert total_misses == N_UNIQUE
        assert total_hits == 2 * N_SOURCES - N_UNIQUE
        assert len({r.worker_id for r in cache_recs}) >= 2
        assert live_cache_segments() == []

    def test_engines_agree_on_cache_stats_and_attribution(
        self, dup_blobs, tmp_path
    ):
        log = str(tmp_path / "engines.trace")
        run_epochs(
            dup_blobs, "shared", 4, "process", epochs=2, log_file=log
        )
        with analysis_engine("records"):
            oracle = analyze_trace(parse_trace_file(log))
        with analysis_engine("columnar"):
            columnar = analyze_trace(parse_trace_file_columns(log))
        assert oracle.cache_stats() == columnar.cache_stats()
        assert CACHE_SHARED in oracle.cache_stats()
        # [T3] op attribution (Loader included) identical across engines.
        assert oracle.op_total_cpu_ns() == columnar.op_total_cpu_ns()
        assert oracle.records_of(KIND_CACHE_STATS) == columnar.records_of(
            KIND_CACHE_STATS
        )


class TestSharedCacheValidation:
    def test_unknown_mode_rejected(self, dup_blobs):
        with pytest.raises(DataLoaderError):
            DataLoader(make_dataset(dup_blobs), cache="distributed")

    def test_iterable_dataset_rejected(self):
        class Stream(IterableDataset):
            def __iter__(self):
                return iter([])

        with pytest.raises(DataLoaderError):
            DataLoader(Stream(), cache="shared")

    def test_already_wrapped_loader_rejected(self, dup_blobs):
        dataset = make_dataset(dup_blobs)
        dataset.loader = CachingLoader()
        with pytest.raises(DataLoaderError):
            DataLoader(dataset, cache="private")

    def test_iterating_after_close_raises(self, dup_blobs):
        loader = DataLoader(
            make_dataset(dup_blobs), batch_size=BATCH, cache="shared"
        )
        list(loader)
        loader.close()
        with pytest.raises(DataLoaderError):
            iter(loader)
        assert live_cache_segments() == []


# -- crash safety (DESIGN.md §11 contract) -----------------------------------


class CrashingBlobDataset(BlobImageDataset):
    """BlobImageDataset that runs a FaultPlan before each read, so a
    worker can be killed while it holds cache pins and claims."""

    def __init__(self, blobs, plan, **kwargs):
        super().__init__(blobs, **kwargs)
        self.plan = plan

    def __getitem__(self, index):
        self.plan.apply(index)
        return super().__getitem__(index)


class TestWorkerCrashChaos:
    def test_crash_releases_pins_and_leaks_nothing(self, dup_blobs):
        plan = FaultPlan(
            seed=0, sites=(FaultSite(kind="crash", sample_index=5),)
        )
        dataset = CrashingBlobDataset(
            dup_blobs,
            plan,
            labels=list(range(len(dup_blobs))),
            transform=Compose([RandomResizedCrop(32, seed=0), ToTensor()]),
        )
        loader = DataLoader(
            dataset,
            batch_size=BATCH,
            num_workers=2,
            worker_backend="process",
            cache="shared",
            seed=0,
            batched_execution=False,  # the plan hooks __getitem__
            max_worker_restarts=2,
            hang_timeout_s=10.0,
            worker_timeout_s=30,
        )
        chaos = [
            (images.numpy().copy(), labels.numpy().copy())
            for images, labels in loader
        ]
        assert loader.fault_stats.worker_restarts == 1
        arena = loader.dataset.loader.shared_cache
        # The dead incarnation's pins were released by the supervisor
        # and every surviving reader unpinned at iterator exit.
        assert arena.pinned_bytes() == 0
        loader.close()
        assert live_cache_segments() == []
        clean = run_epochs(
            dup_blobs, None, 2, "process", batched_execution=False
        )
        assert_batches_equal(chaos, clean)

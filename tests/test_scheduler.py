"""Scheduling layer (DESIGN.md §12): order book, placement, stealing.

Covers the acceptance grid: ``scheduler="stealing"`` bit-identical to
the static oracle across both worker backends, both process transports,
and all three cache modes; static's § II-B dispatch pattern read from
the public trace; the ``sched`` trace record round-trip through both
analysis engines; claim accounting; and the chaos scenario — killing a
worker that holds stolen claims must restart cleanly with zero lost or
duplicated batches, zero /dev/shm leaks, and sched records that
reconcile steals across generations.
"""

import glob
import os
import time

import numpy as np
import pytest

from repro.core.lotustrace import (
    KIND_BATCH_PREPROCESSED,
    KIND_SCHED,
    MAIN_PROCESS_WORKER_ID,
    SCHED_STATIC,
    TraceColumns,
    analyze_trace,
    format_sched_name,
    parse_sched_name,
    parse_trace_file,
)
from repro.data import (
    DataLoader,
    DispatchOrderBook,
    FaultInjectingDataset,
    FaultPlan,
    FaultSite,
    IterableDataset,
    StealingScheduler,
    TensorDataset,
)
from repro.data.dataset import BlobImageDataset, Dataset
from repro.data.scheduler import (
    SCHEDULER_CHOICES,
    scheduler_buffer_depth,
    scheduler_inflight_cap,
    validate_scheduler,
)
from repro.errors import DataLoaderError, TraceError
from repro.imaging.jpeg.codec import encode_sjpg
from repro.transforms import Compose, RandomResizedCrop, ToTensor
from tests.conftest import make_test_image

N_SAMPLES = 32
BATCH = 4
N_BATCHES = N_SAMPLES // BATCH
N_WORKERS = 4


def live_slab_segments():
    """§10 slab segments currently linked in /dev/shm for this process."""
    return sorted(
        os.path.basename(p)
        for p in glob.glob(f"/dev/shm/lt{os.getpid()}q*")
    )


class SkewedDataset(Dataset):
    """Index-keyed values with a heavy-tailed cost: every 4th batch
    sleeps long enough to force out-of-order arrival and real steals,
    while values stay a pure function of the index so every scheduler
    must produce identical bytes."""

    def __len__(self):
        return N_SAMPLES

    def __getitem__(self, index):
        if (index // BATCH) % 4 == 0:
            time.sleep(0.004)
        rng = np.random.default_rng(900 + index)
        return rng.standard_normal(8).astype(np.float32)


def _epoch_arrays(backend, scheduler, transport="auto", **kwargs):
    loader = DataLoader(
        SkewedDataset(),
        batch_size=BATCH,
        num_workers=N_WORKERS,
        prefetch_factor=2,
        worker_backend=backend,
        scheduler=scheduler,
        transport=transport,
        seed=3,
        **kwargs,
    )
    batches = [np.array(batch.numpy(), copy=True) for batch in loader]
    return batches, loader


# -- mode validation ----------------------------------------------------------


class TestValidateScheduler:
    def test_choices(self):
        for mode in SCHEDULER_CHOICES:
            assert validate_scheduler(mode, 2, False) == mode

    def test_unknown_mode_rejected(self):
        for mode in ("rr", "adaptive"):  # adaptive was removed
            with pytest.raises(DataLoaderError, match="unknown scheduler"):
                DataLoader(SkewedDataset(), num_workers=2, scheduler=mode)

    def test_stealing_needs_workers(self):
        with pytest.raises(DataLoaderError, match="num_workers"):
            DataLoader(SkewedDataset(), num_workers=0, scheduler="stealing")

    def test_stealing_needs_map_style(self):
        class Stream(IterableDataset):
            def __iter__(self):
                return iter([np.zeros(1, dtype=np.float32)])

        with pytest.raises(DataLoaderError, match="map-style"):
            DataLoader(Stream(), num_workers=2, scheduler="stealing")

    def test_static_single_process_allowed(self):
        loader = DataLoader(SkewedDataset(), scheduler="static")
        assert loader.scheduler == SCHED_STATIC

    def test_depth_contracts(self):
        assert scheduler_inflight_cap(4, 2) == 16
        assert scheduler_buffer_depth(4, 2) == 18
        static = DataLoader(SkewedDataset(), num_workers=4, prefetch_factor=2)
        assert static.batch_buffer_depth == 4
        stealing = DataLoader(
            SkewedDataset(), num_workers=4, prefetch_factor=2,
            scheduler="stealing",
        )
        assert stealing.batch_buffer_depth == scheduler_buffer_depth(4, 2)


# -- DispatchOrderBook --------------------------------------------------------


class TestDispatchOrderBook:
    def make_book(self, batches=((0, 1), (2, 3), (4, 5))):
        return DispatchOrderBook(iter([list(b) for b in batches]))

    def test_draw_stamps_monotone_ids(self):
        book = self.make_book()
        drawn = [book.draw() for _ in range(3)]
        assert [batch_id for batch_id, _ in drawn] == [0, 1, 2]
        assert [indices for _, indices in drawn] == [[0, 1], [2, 3], [4, 5]]
        assert book.draw() is None
        assert book.exhausted
        assert book.inflight_count() == 3

    def test_requeue_wins_over_fresh_draws(self):
        book = self.make_book()
        book.draw()
        book.draw()
        book.requeue([1, 0])
        assert book.has_requeued()
        # Oldest first regardless of the order the sweep listed them.
        assert book.draw() == (0, [0, 1])
        assert book.draw() == (1, [2, 3])
        assert not book.has_requeued()
        assert book.draw() == (2, [4, 5])

    def test_requeue_unknown_batch_raises(self):
        book = self.make_book()
        with pytest.raises(DataLoaderError, match="unknown batch"):
            book.requeue([7])

    def test_peek_id_shows_next_draw(self):
        book = self.make_book()
        assert book.peek_id() == 0
        assert book.peek_id() == 0  # peeking does not consume
        assert book.draw() == (0, [0, 1])
        book.draw()
        book.requeue([0])
        assert book.peek_id() == 0  # requeues first
        assert book.draw() == (0, [0, 1])
        assert book.peek_id() == 2
        book.draw()
        assert book.peek_id() is None
        assert book.exhausted

    def test_complete_retires(self):
        book = self.make_book()
        book.draw()
        assert book.complete(0) == [0, 1]
        assert book.inflight_count() == 0
        # Ids the book never issued resolve to [] (iterable sentinels).
        assert book.complete(99) == []

    def test_has_ready(self):
        book = self.make_book(batches=((0,),))
        assert book.has_ready()
        book.draw()
        assert book.draw() is None
        assert not book.has_ready()
        book.requeue([0])
        assert book.has_ready()


# -- StealingScheduler --------------------------------------------------------


class TestStealingScheduler:
    def test_startup_fill_reproduces_round_robin(self):
        sched = StealingScheduler(4, 2)
        placed = []
        for batch_id in range(8):
            worker = sched.select_worker(batch_id)
            sched.on_dispatch(worker, batch_id)
            placed.append(worker)
        assert placed == [0, 1, 2, 3, 0, 1, 2, 3]
        assert sched.steals == 0
        assert sched.select_worker(8) is None  # all claim slots full
        assert sched.max_inflight == scheduler_inflight_cap(4, 2)

    def test_static_places_on_home_worker(self):
        sched = StealingScheduler(4, 2, SCHED_STATIC)
        assert sched.max_inflight == 8
        for batch_id in range(12):
            worker = sched.select_worker(batch_id)
            assert worker == batch_id % 4
            sched.on_dispatch(worker, batch_id)
        # Home placement ignores claim slots: the window bounds static.
        assert sched.select_worker(13) == 1
        assert sched.steals == 0

    def test_steal_counting_and_delta(self):
        sched = StealingScheduler(4, 2)
        sched.on_dispatch(0, 0)  # home worker: not a steal
        sched.on_dispatch(0, 1)  # batch 1's home is worker 1: steal
        assert sched.steals == 1
        assert sched.take_steal_delta() == 1
        assert sched.take_steal_delta() == 0
        sched.on_dispatch(2, 7)
        assert sched.steals == 2

    def test_receipt_frees_slot_for_least_loaded(self):
        sched = StealingScheduler(2, 1)
        sched.on_dispatch(0, 0)
        sched.on_dispatch(1, 1)
        assert sched.select_worker(2) is None
        sched.on_receipt(1)
        assert sched.select_worker(2) == 1

    def test_worker_reset_clears_outstanding(self):
        sched = StealingScheduler(2, 1)
        sched.on_dispatch(0, 0)
        sched.on_dispatch(1, 1)
        sched.on_worker_reset(0)
        assert sched.outstanding(0) == 0
        assert sched.select_worker(2) == 0


# -- parity: stealing is bit-identical to the static oracle -------------------


class TestSchedulerParity:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    @pytest.mark.parametrize("scheduler", ["stealing"])
    def test_modes_match_static_oracle(self, backend, scheduler):
        reference, _ = _epoch_arrays(backend, "static")
        candidate, _ = _epoch_arrays(backend, scheduler)
        assert len(candidate) == len(reference) == N_BATCHES
        for expected, got in zip(reference, candidate):
            np.testing.assert_array_equal(expected, got)

    @pytest.mark.parametrize("transport", ["pickle", "shm"])
    def test_process_transports_match_oracle(self, transport):
        reference, _ = _epoch_arrays("process", "static", transport=transport)
        candidate, _ = _epoch_arrays("process", "stealing", transport=transport)
        for expected, got in zip(reference, candidate):
            np.testing.assert_array_equal(expected, got)
        assert live_slab_segments() == []


@pytest.fixture(scope="module")
def image_blobs():
    return [
        encode_sjpg(make_test_image(48, 48, seed=70 + i % 8), quality=85)
        for i in range(16)
    ]


class TestSchedulerCacheParity:
    """Stealing over the §11 decoded-sample caches must stay bit-exact:
    batch→RNG keying makes the transform stream independent of which
    worker (and which cache) serves a sample."""

    def run(self, blobs, scheduler, cache, backend="process"):
        dataset = BlobImageDataset(
            blobs,
            labels=list(range(len(blobs))),
            transform=Compose([RandomResizedCrop(32, seed=0), ToTensor()]),
        )
        loader = DataLoader(
            dataset, batch_size=BATCH, num_workers=2, worker_backend=backend,
            scheduler=scheduler, cache=cache, seed=0,
        )
        batches = [
            (images.numpy().copy(), labels.numpy().copy())
            for images, labels in loader
        ]
        loader.close()
        return batches

    @pytest.mark.parametrize("cache", [None, "private", "shared"])
    def test_cache_modes_match_oracle(self, image_blobs, cache):
        reference = self.run(image_blobs, "static", cache)
        candidate = self.run(image_blobs, "stealing", cache)
        assert len(candidate) == len(reference)
        for (img_a, lbl_a), (img_b, lbl_b) in zip(reference, candidate):
            np.testing.assert_array_equal(img_a, img_b)
            np.testing.assert_array_equal(lbl_a, lbl_b)

    def test_thread_shared_cache_matches_oracle(self, image_blobs):
        reference = self.run(image_blobs, "static", "shared", backend="thread")
        candidate = self.run(
            image_blobs, "stealing", "shared", backend="thread"
        )
        for (img_a, _), (img_b, _) in zip(reference, candidate):
            np.testing.assert_array_equal(img_a, img_b)


# -- sched trace records ------------------------------------------------------


class TestSchedRecords:
    def run_logged(self, scheduler, tmp_path):
        log = str(tmp_path / f"{scheduler}.trace")
        loader = DataLoader(
            SkewedDataset(), batch_size=BATCH, num_workers=N_WORKERS,
            prefetch_factor=2, worker_backend="thread",
            scheduler=scheduler, seed=3, log_file=log,
        )
        iterator = iter(loader)
        count = sum(1 for _ in iterator)
        assert count == N_BATCHES
        loader.close()
        return parse_trace_file(log), iterator

    def test_static_emits_single_point_depth(self, tmp_path):
        records, _ = self.run_logged("static", tmp_path)
        sched = [r for r in records if r.kind == KIND_SCHED]
        assert len(sched) == N_BATCHES
        assert all(r.worker_id == MAIN_PROCESS_WORKER_ID for r in sched)
        assert all(r.duration_ns == 0 for r in sched)
        assert [r.batch_id for r in sched] == list(range(N_BATCHES))
        stats = analyze_trace(records).sched_stats()["static"]
        assert stats.batches == N_BATCHES
        assert stats.steals == 0
        assert (stats.min_chosen_depth, stats.max_chosen_depth) == (2, 2)

    def test_stealing_records_reconcile_with_dispatcher(self, tmp_path):
        records, iterator = self.run_logged("stealing", tmp_path)
        sched = [r for r in records if r.kind == KIND_SCHED]
        parsed = [parse_sched_name(r.name) for r in sched]
        assert all(mode == "stealing" for mode, *_rest in parsed)
        # Per-yield deltas sum to the dispatcher's lifetime steal count.
        assert sum(s for _, _, s, _ in parsed) == iterator._sched.steals
        assert all(0 <= q <= iterator._sched.max_inflight
                   for _, q, _, _ in parsed)

    def test_both_engines_agree(self, tmp_path):
        records, _ = self.run_logged("stealing", tmp_path)
        via_records = analyze_trace(records).sched_stats()
        via_columns = analyze_trace(
            TraceColumns.from_records(records)
        ).sched_stats()
        assert via_records == via_columns

    def test_malformed_sched_name_raises(self):
        with pytest.raises(TraceError, match="malformed sched"):
            parse_sched_name("stealing;q1;bogus;d2")
        # Mode-agnostic: records of the removed adaptive mode still parse.
        mode, q, s, d = parse_sched_name(format_sched_name("adaptive", 5, 1, 3))
        assert (mode, q, s, d) == ("adaptive", 5, 1, 3)


# -- static dispatch pattern (the § II-B shape figs 3 and 5 depend on) --------


class TestStaticDispatchPattern:
    """Read from the public trace: static places batch ``b`` on its home
    worker ``b % N``, and the queue depth after yielding batch ``r`` is
    ``min(prefetch_factor * N, n - r - 1)`` — round-robin startup
    prefetch plus one replenishment per yield."""

    def run_logged(self, tmp_path, dataset, num_workers, prefetch_factor,
                   **kwargs):
        log = str(tmp_path / "static.trace")
        loader = DataLoader(
            dataset, batch_size=2, num_workers=num_workers,
            prefetch_factor=prefetch_factor, worker_backend="thread",
            log_file=log, **kwargs,
        )
        for _ in loader:
            pass
        loader.close()
        return parse_trace_file(log), loader

    def assert_static_pattern(self, records, num_workers, prefetch_factor,
                              n_batches, skipped_batches=()):
        preprocessed = [
            r for r in records if r.kind == KIND_BATCH_PREPROCESSED
        ]
        assert sorted(r.batch_id for r in preprocessed) == list(
            range(n_batches)
        )
        for record in preprocessed:
            assert record.worker_id == record.batch_id % num_workers
        sched = [r for r in records if r.kind == KIND_SCHED]
        yielded = [
            b for b in range(n_batches) if b not in skipped_batches
        ]
        assert [r.batch_id for r in sched] == yielded
        for record in sched:
            _, queue_depth, steals, _ = parse_sched_name(record.name)
            assert steals == 0
            assert queue_depth == min(
                prefetch_factor * num_workers,
                n_batches - record.batch_id - 1,
            )

    @pytest.mark.parametrize(
        "num_workers,prefetch_factor,n_batches",
        [(4, 2, 8), (3, 3, 13), (2, 1, 7)],
    )
    def test_home_placement_and_queue_depth(
        self, tmp_path, num_workers, prefetch_factor, n_batches
    ):
        values = np.arange(2 * n_batches, dtype=np.float32).reshape(-1, 1)
        records, _ = self.run_logged(
            tmp_path, TensorDataset(values), num_workers, prefetch_factor
        )
        self.assert_static_pattern(
            records, num_workers, prefetch_factor, n_batches
        )

    def test_whole_batch_skipped(self, tmp_path):
        n_batches = 10
        values = np.arange(2 * n_batches, dtype=np.float32).reshape(-1, 1)
        plan = FaultPlan(
            seed=0,
            sites=tuple(
                FaultSite(kind="corrupt", sample_index=i) for i in (6, 7)
            ),
        )
        records, loader = self.run_logged(
            tmp_path, FaultInjectingDataset(TensorDataset(values), plan),
            3, 2, failure_policy="skip_sample",
        )
        assert loader.fault_stats.skipped_indices == [6, 7]
        self.assert_static_pattern(
            records, 3, 2, n_batches, skipped_batches=(3,)
        )

    def test_crash_restart_replays_on_home_worker(self, tmp_path):
        n_batches = 12
        values = np.arange(2 * n_batches, dtype=np.float32).reshape(-1, 1)
        plan = FaultPlan(
            seed=0, sites=(FaultSite(kind="crash", sample_index=9),)
        )
        records, loader = self.run_logged(
            tmp_path, FaultInjectingDataset(TensorDataset(values), plan),
            2, 2, max_worker_restarts=1, hang_timeout_s=20.0,
        )
        stats = loader.fault_stats
        assert stats.worker_restarts == 1
        assert stats.claims_confirmed == 0
        assert stats.stolen_claims_reclaimed == 0
        assert stats.delivered_samples == 2 * n_batches
        self.assert_static_pattern(records, 2, 2, n_batches)


# -- claim accounting ---------------------------------------------------------


class TestClaimAccounting:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_claims_confirmed_per_batch(self, backend):
        _, loader = _epoch_arrays(backend, "stealing")
        assert loader.fault_stats.claims_confirmed == N_BATCHES
        assert loader.fault_stats.stolen_claims_reclaimed == 0

    def test_static_emits_no_claims(self):
        _, loader = _epoch_arrays("process", "static")
        assert loader.fault_stats.claims_confirmed == 0


# -- chaos: killing a worker holding stolen claims ----------------------------


class TestSchedulerChaos:
    def test_crash_with_stolen_claims_recovers(self, tmp_path):
        log = str(tmp_path / "sched_chaos.trace")
        values = np.arange(N_SAMPLES, dtype=np.float32).reshape(N_SAMPLES, 1)
        plan = FaultPlan(
            seed=0, sites=(FaultSite(kind="crash", sample_index=9),)
        )
        loader = DataLoader(
            FaultInjectingDataset(TensorDataset(values), plan),
            batch_size=BATCH,
            num_workers=2,
            worker_backend="process",
            transport="shm",
            scheduler="stealing",
            seed=0,
            log_file=log,
            max_worker_restarts=2,
            hang_timeout_s=20.0,
            worker_timeout_s=30,
        )
        got = [batch[0].numpy().copy() for batch in loader]
        stats = loader.fault_stats
        assert stats.worker_restarts >= 1
        # The dead worker held in-flight batches; the sweep reclaimed
        # them into the order book for replay on the survivors. The
        # tally comes from the swept dispatch list, so it is exact even
        # when the crash loses the WorkerClaim confirmation in flight.
        assert stats.claims_confirmed >= N_BATCHES
        assert stats.stolen_claims_reclaimed >= 1
        # Zero lost or duplicated batches, bit-equal to a clean run.
        reference = [
            batch[0].numpy().copy()
            for batch in DataLoader(TensorDataset(values), batch_size=BATCH)
        ]
        assert len(got) == len(reference) == N_BATCHES
        for expected, actual in zip(reference, got):
            np.testing.assert_array_equal(expected, actual)
        assert live_slab_segments() == []
        # Sched records reconcile across worker generations: one record
        # per yielded batch, and the replayed batches landing off their
        # round-robin home show up in the steal total.
        analysis = analyze_trace(parse_trace_file(log))
        stats_by_mode = analysis.sched_stats()
        assert stats_by_mode["stealing"].batches == N_BATCHES
        assert stats_by_mode["stealing"].steals >= 1
        assert analysis.fault_counts().get("worker_restart", 0) >= 1

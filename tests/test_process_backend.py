"""Process-backed DataLoader workers (the paper's forked architecture)."""

import glob
import os

import numpy as np
import pytest

from repro.core.lotustrace import (
    InMemoryTraceLog,
    KIND_BATCH_PREPROCESSED,
    KIND_BATCH_TRANSPORT,
    TRANSPORT_INLINE,
    TRANSPORT_PICKLE,
    TRANSPORT_SHM,
    analyze_trace,
    parse_counter_name,
    parse_trace_file,
)
from repro.data.backends import create_backend
from repro.data.dataloader import DataLoader
from repro.data.dataset import Dataset, TensorDataset
from repro.data.faults import FaultInjectingDataset, FaultPlan, FaultSite
from repro.errors import DataLoaderError


def live_slab_segments():
    """Names of shm transport segments currently linked in /dev/shm."""
    return sorted(
        os.path.basename(p)
        for p in glob.glob(f"/dev/shm/lt{os.getpid()}q*")
    )


class ArrayDataset(Dataset):
    def __init__(self, n=16):
        self._n = n

    def __getitem__(self, index):
        return np.array([float(index)])

    def __len__(self):
        return self._n


class TestBackendFactory:
    def test_thread_backend(self):
        backend = create_backend("thread")
        assert not backend.is_process

    def test_process_backend(self):
        backend = create_backend("process")
        assert backend.is_process

    def test_unknown_backend(self):
        with pytest.raises(DataLoaderError):
            create_backend("greenlet")

    def test_loader_validates_backend_eagerly(self):
        with pytest.raises(DataLoaderError):
            DataLoader(ArrayDataset(), worker_backend="bogus")


class TestProcessWorkers:
    def test_epoch_in_order(self):
        loader = DataLoader(
            ArrayDataset(16), batch_size=4, num_workers=2,
            worker_backend="process",
        )
        batches = [batch.numpy().ravel().tolist() for batch in loader]
        assert batches == [
            [0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11], [12, 13, 14, 15],
        ]

    def test_workers_are_real_processes(self, tmp_path):
        """T1 records from process workers carry child pids, distinct
        from the main process (why the paper needs psutil at log time)."""
        path = tmp_path / "proc.trace"
        loader = DataLoader(
            ArrayDataset(8), batch_size=4, num_workers=2,
            worker_backend="process", log_file=str(path),
        )
        list(loader)
        records = parse_trace_file(path)
        fetches = [r for r in records if r.kind == KIND_BATCH_PREPROCESSED]
        assert fetches
        assert all(r.pid != os.getpid() for r in fetches)
        main_records = [r for r in records if r.worker_id == -1]
        assert all(r.pid == os.getpid() for r in main_records)

    def test_trace_analysis_complete(self, tmp_path):
        path = tmp_path / "proc2.trace"
        loader = DataLoader(
            ArrayDataset(12), batch_size=4, num_workers=2,
            worker_backend="process", log_file=str(path),
        )
        list(loader)
        analysis = analyze_trace(parse_trace_file(path))
        assert len(analysis.batches) == 3
        for flow in analysis.batches.values():
            assert flow.preprocessed is not None
            assert flow.consumed is not None

    def test_in_memory_sink_rejected(self):
        loader = DataLoader(
            ArrayDataset(8), batch_size=4, num_workers=2,
            worker_backend="process", log_file=InMemoryTraceLog(),
        )
        with pytest.raises(DataLoaderError):
            iter(loader)

    def test_image_pipeline_through_processes(self, small_blobs, tmp_path):
        from repro.data.dataset import BlobImageDataset
        from repro.transforms import Compose, RandomResizedCrop, ToTensor

        dataset = BlobImageDataset(
            small_blobs,
            transform=Compose([RandomResizedCrop(32, seed=0), ToTensor()]),
        )
        loader = DataLoader(
            dataset, batch_size=4, num_workers=2, worker_backend="process",
            log_file=str(tmp_path / "img.trace"),
        )
        shapes = [batch[0].shape for batch in loader]
        assert all(shape[1:] == (3, 32, 32) for shape in shapes)


# -- shm transport (DESIGN.md §10) -------------------------------------------


def _image_dataset(n=16):
    rng = np.random.default_rng(7)
    pixels = rng.random((n, 3, 8, 8)).astype(np.float32)
    labels = np.arange(n, dtype=np.int64)
    return TensorDataset(pixels, labels)


def _run_epoch(dataset, transport, **kwargs):
    loader = DataLoader(
        dataset, batch_size=4, num_workers=2, worker_backend="process",
        transport=transport, seed=0, **kwargs,
    )
    return list(loader)


class TestTransportParity:
    """Pickle is the parity oracle: shm must be bit-exact against it."""

    def test_full_batches_bit_exact(self):
        via_pickle = _run_epoch(_image_dataset(), "pickle")
        via_shm = _run_epoch(_image_dataset(), "shm")
        assert len(via_pickle) == len(via_shm) == 4
        for p, s in zip(via_pickle, via_shm):
            assert np.array_equal(p[0].numpy(), s[0].numpy())
            assert np.array_equal(p[1].numpy(), s[1].numpy())

    def test_partial_trailing_batch(self):
        via_pickle = _run_epoch(_image_dataset(10), "pickle")
        via_shm = _run_epoch(_image_dataset(10), "shm")
        assert via_shm[-1][0].shape[0] == 2
        for p, s in zip(via_pickle, via_shm):
            assert np.array_equal(p[0].numpy(), s[0].numpy())

    def test_failure_policy_partial_batches(self):
        def faulty():
            plan = FaultPlan(
                sites=(FaultSite(kind="corrupt", sample_index=5),)
            )
            return FaultInjectingDataset(_image_dataset(), plan)

        via_pickle = _run_epoch(faulty(), "pickle", failure_policy="skip_sample")
        via_shm = _run_epoch(faulty(), "shm", failure_policy="skip_sample")
        sizes = [batch[0].shape[0] for batch in via_shm]
        assert sorted(sizes) == [3, 4, 4, 4]
        for p, s in zip(via_pickle, via_shm):
            assert np.array_equal(p[0].numpy(), s[0].numpy())
            assert np.array_equal(p[1].numpy(), s[1].numpy())

    def test_rng_transform_parity(self, small_blobs):
        """Seeded random transforms land identically over both carriers."""
        from repro.data.dataset import BlobImageDataset
        from repro.transforms import Compose, RandomResizedCrop, ToTensor

        def dataset():
            return BlobImageDataset(
                small_blobs,
                transform=Compose([RandomResizedCrop(16, seed=3), ToTensor()]),
            )

        via_pickle = _run_epoch(dataset(), "pickle")
        via_shm = _run_epoch(dataset(), "shm")
        for p, s in zip(via_pickle, via_shm):
            assert np.array_equal(p[0].numpy(), s[0].numpy())

    def test_non_tensor_payload_falls_back(self):
        class StrDataset(Dataset):
            def __len__(self):
                return 8

            def __getitem__(self, index):
                return f"sample-{index}"

        batches = _run_epoch(StrDataset(), "shm")
        assert batches[0] == ["sample-0", "sample-1", "sample-2", "sample-3"]

    def test_shm_batches_arrive_pinned(self):
        for batch in _run_epoch(_image_dataset(), "shm"):
            assert batch[0].pinned
            assert batch[0].pin_memory() is batch[0]

    def test_transport_knob_validation(self):
        with pytest.raises(DataLoaderError):
            DataLoader(_image_dataset(), transport="carrier-pigeon")
        with pytest.raises(DataLoaderError):
            DataLoader(_image_dataset(), num_workers=0, transport="shm")
        with pytest.raises(DataLoaderError):
            DataLoader(
                _image_dataset(), num_workers=2, worker_backend="thread",
                transport="shm",
            )


class TestTransportTraceRecords:
    def _transport_records(self, tmp_path, transport, backend="process"):
        path = tmp_path / f"{transport}-{backend}.trace"
        loader = DataLoader(
            _image_dataset(), batch_size=4, num_workers=2,
            worker_backend=backend, transport=transport, seed=0,
            log_file=str(path),
        )
        list(loader)
        records = parse_trace_file(path)
        return [r for r in records if r.kind == KIND_BATCH_TRANSPORT]

    def test_shm_records_one_copy(self, tmp_path):
        records = self._transport_records(tmp_path, "shm")
        assert len(records) == 4
        for record in records:
            mode, payload_bytes, copies = parse_counter_name(KIND_BATCH_TRANSPORT, record.name)
            assert mode == TRANSPORT_SHM
            assert payload_bytes == 4 * (3 * 8 * 8 * 4 + 8)
            assert copies == 1

    def test_pickle_records_two_copies(self, tmp_path):
        records = self._transport_records(tmp_path, "pickle")
        for record in records:
            mode, payload_bytes, copies = parse_counter_name(KIND_BATCH_TRANSPORT, record.name)
            assert mode == TRANSPORT_PICKLE
            assert payload_bytes == 4 * (3 * 8 * 8 * 4 + 8)
            assert copies == 2

    def test_thread_backend_inline_record(self, tmp_path):
        records = self._transport_records(tmp_path, "auto", backend="thread")
        assert len(records) == 4
        for record in records:
            mode, payload_bytes, copies = parse_counter_name(KIND_BATCH_TRANSPORT, record.name)
            assert mode == TRANSPORT_INLINE
            assert payload_bytes == 0
            assert copies == 0

    def test_transport_stats_aggregation(self, tmp_path):
        path = tmp_path / "agg.trace"
        loader = DataLoader(
            _image_dataset(), batch_size=4, num_workers=2,
            worker_backend="process", transport="shm", seed=0,
            log_file=str(path),
        )
        list(loader)
        analysis = analyze_trace(parse_trace_file(path))
        stats = analysis.transport_stats()
        assert set(stats) == {TRANSPORT_SHM}
        assert stats[TRANSPORT_SHM].batches == 4
        assert stats[TRANSPORT_SHM].copies == 4
        assert stats[TRANSPORT_SHM].bytes_per_batch == 4 * (3 * 8 * 8 * 4 + 8)


class TestShmSegmentLifecycle:
    """Chaos contract: no shm segment survives restart or shutdown."""

    def test_clean_epoch_leaves_no_segments(self):
        _run_epoch(_image_dataset(), "shm")
        assert live_slab_segments() == []

    def test_worker_crash_restart_replays_and_unlinks(self):
        plan = FaultPlan(sites=(FaultSite(kind="crash", sample_index=9),))
        dataset = FaultInjectingDataset(_image_dataset(), plan)
        loader = DataLoader(
            dataset, batch_size=4, num_workers=2, worker_backend="process",
            transport="shm", seed=0, max_worker_restarts=2,
            hang_timeout_s=20.0,
        )
        batches = list(loader)
        assert loader.fault_stats.worker_restarts >= 1
        reference = _run_epoch(_image_dataset(), "pickle")
        assert len(batches) == len(reference)
        for got, want in zip(batches, reference):
            assert np.array_equal(got[0].numpy(), want[0].numpy())
        assert live_slab_segments() == []

    def test_worker_hang_restart_replays_and_unlinks(self):
        plan = FaultPlan(
            seed=0, sites=(FaultSite(kind="hang", sample_index=6, hang_s=10.0),)
        )
        dataset = FaultInjectingDataset(_image_dataset(), plan)
        loader = DataLoader(
            dataset, batch_size=4, num_workers=2, worker_backend="process",
            transport="shm", seed=0, max_worker_restarts=1,
            hang_timeout_s=0.5, worker_timeout_s=30,
        )
        batches = list(loader)
        assert loader.fault_stats.worker_restarts == 1
        reference = _run_epoch(_image_dataset(), "pickle")
        for got, want in zip(batches, reference):
            assert np.array_equal(got[0].numpy(), want[0].numpy())
        assert live_slab_segments() == []

    def test_mid_epoch_close_unlinks(self):
        loader = DataLoader(
            _image_dataset(32), batch_size=2, num_workers=2,
            worker_backend="process", transport="shm", seed=0,
        )
        iterator = iter(loader)
        first = next(iterator)
        assert first[0].shape == (2, 3, 8, 8)
        iterator.close()
        assert live_slab_segments() == []

    def test_persistent_workers_epochs_then_close(self):
        loader = DataLoader(
            _image_dataset(10), batch_size=3, num_workers=2,
            worker_backend="process", transport="shm", seed=0,
            persistent_workers=True,
        )
        first = [batch[0].numpy().copy() for batch in loader]
        second = [batch[0].numpy().copy() for batch in loader]
        assert len(first) == len(second) == 4
        for a, b in zip(first, second):
            assert np.array_equal(a, b)
        loader.close()
        assert live_slab_segments() == []

    @pytest.mark.parametrize("scheduler", ["static", "stealing"])
    def test_persistent_epochs_return_every_slot(self, scheduler):
        # The last batch of an epoch is acked at the next epoch's first
        # yield; were its slot token dropped with the iterator, a
        # persistent pool would lose one slab slot per epoch and stall
        # once a worker's ring ran dry (epoch 4 under static, 10 under
        # stealing, at pf 2 with 4 batches per epoch).
        loader = DataLoader(
            _image_dataset(8), batch_size=2, num_workers=2,
            worker_backend="process", transport="shm", seed=0,
            prefetch_factor=2, scheduler=scheduler,
            persistent_workers=True, worker_timeout_s=5.0,
        )
        try:
            epochs = [
                [batch[0].numpy().copy() for batch in loader]
                for _ in range(12)
            ]
        finally:
            loader.close()
        assert len(epochs[0]) == 4
        for epoch in epochs[1:]:
            assert len(epoch) == len(epochs[0])
            for got, want in zip(epoch, epochs[0]):
                assert np.array_equal(got, want)
        assert live_slab_segments() == []

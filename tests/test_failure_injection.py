"""Failure injection across module boundaries."""

import pickle
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clib.events import CallEvent
from repro.data import (
    FailurePolicy,
    FaultInjectingDataset,
    FaultPlan,
    FaultSite,
    TensorDataset,
)
from repro.data.backends import ThreadWorkerBackend
from repro.data.dataloader import DataLoader
from repro.data.dataset import BlobImageDataset, Dataset
from repro.data.worker import SHUTDOWN_SENTINEL
from repro.errors import (
    CodecError,
    RetryExhaustedError,
    TraceError,
    WorkerCrashError,
)
from repro.hwprof.sampling import build_leaf_segments
from repro.imaging.jpeg.codec import encode_sjpg
from tests.conftest import make_test_image


class TestCorruptBlobsThroughPipeline:
    def test_truncated_blob_surfaces_as_worker_crash(self, small_blobs):
        blobs = list(small_blobs)
        blobs[3] = blobs[3][: len(blobs[3]) // 3]  # truncated mid-payload
        loader = DataLoader(
            BlobImageDataset(blobs, transform=lambda im: im.to_array().sum()),
            batch_size=4,
            num_workers=2,
            worker_timeout_s=10,
        )
        with pytest.raises(WorkerCrashError) as excinfo:
            list(loader)
        assert "CodecError" in str(excinfo.value) or "truncated" in str(excinfo.value)

    def test_garbage_blob_single_process(self):
        dataset = BlobImageDataset([b"not an image at all"])
        with pytest.raises(CodecError):
            dataset[0]

    @given(cut=st.integers(min_value=1, max_value=200))
    @settings(max_examples=15, deadline=None)
    def test_random_truncation_never_crashes_uncontrolled(self, cut):
        """Any truncation raises CodecError — never IndexError/ValueError
        from deep inside numpy."""
        from repro.imaging.jpeg.codec import decode_sjpg

        blob = encode_sjpg(make_test_image(48, 48, seed=1), quality=70)
        truncated = blob[: max(0, len(blob) - cut)]
        with pytest.raises(CodecError):
            decode_sjpg(truncated)

    @given(
        position=st.integers(min_value=16, max_value=400),
        value=st.integers(min_value=0, max_value=255),
    )
    @settings(max_examples=20, deadline=None)
    def test_byte_flips_decode_or_raise_codec_error(self, position, value):
        """Flipping payload bytes either still decodes (wrong pixels are
        fine — it is lossy data) or raises the codec's own error type."""
        from repro.imaging.jpeg.codec import decode_sjpg

        blob = bytearray(encode_sjpg(make_test_image(48, 48, seed=2), quality=70))
        if position >= len(blob):
            position = len(blob) - 1
        blob[position] = value
        try:
            decoded = decode_sjpg(bytes(blob))
            assert decoded.shape[2] == 3
        except CodecError:
            pass


class TestSamplerRobustness:
    def test_orphan_depth_event_treated_as_root(self):
        """Recording can start mid-call: a depth-1 event with no parent
        must not crash segment building."""
        orphan = CallEvent(
            thread_id=1, function="inner", library="lib",
            start_ns=0, duration_ns=100, depth=1, active_threads=1,
        )
        segments = build_leaf_segments([orphan])[1]
        assert [s.function for s in segments] == ["inner"]
        assert segments[0].stack == (("inner", "lib"),)

    def test_zero_duration_event(self):
        instant = CallEvent(
            thread_id=1, function="f", library="lib",
            start_ns=10, duration_ns=0, depth=0, active_threads=1,
        )
        segments = build_leaf_segments([instant])[1]
        # Zero-width span yields no leaf segment (nothing to sample).
        assert all(s.duration_ns >= 0 for s in segments)


class TestTraceRobustness:
    def test_interleaved_multi_run_log(self, tmp_path):
        """Appending a second run to the same log keeps both analyzable
        (batch ids collide across runs — analysis merges flows, which is
        the documented append semantics)."""
        from repro.core.lotustrace import analyze_trace, parse_trace_file
        from repro.workloads import SMOKE, build_ic_pipeline

        path = tmp_path / "two_runs.log"
        for seed in (0, 1):
            bundle = build_ic_pipeline(
                profile=SMOKE, num_workers=1, log_file=str(path), seed=seed
            )
            bundle.run_epoch()
        analysis = analyze_trace(parse_trace_file(path))
        assert analysis.batches
        assert analysis.op_durations["Loader"]

    def test_partial_line_at_tail_raises_cleanly(self, tmp_path):
        from repro.core.lotustrace import parse_trace_file

        path = tmp_path / "torn.log"
        path.write_text("op,Loader,-1,0,1,100,50,0\nop,Random")
        with pytest.raises(TraceError):
            parse_trace_file(path)


class TestPinMemoryStructures:
    def test_non_tensor_payload_passthrough(self):
        class StringDataset(Dataset):
            def __getitem__(self, index):
                return {"name": f"item{index}", "value": np.array([float(index)])}

            def __len__(self):
                return 4

        loader = DataLoader(
            StringDataset(), batch_size=2, num_workers=1, pin_memory=True
        )
        batch = next(iter(loader))
        assert batch["value"].pinned
        # Non-tensor leaves survive the pin walk untouched.
        assert batch["name"] == ["item0", "item1"]


# --------------------------------------------------------------------------
# Fault-tolerance chaos tests (DESIGN.md §8): deterministic FaultPlans
# driven through failure policies and the worker supervisor on both
# backends, with exact per-sample accounting and trace verification.
# --------------------------------------------------------------------------

N_SAMPLES = 32
BATCH = 4


def counting_dataset(plan=None, n=N_SAMPLES):
    ds = TensorDataset(np.arange(n, dtype=np.float32).reshape(n, 1))
    return ds if plan is None else FaultInjectingDataset(ds, plan)


def batch_array(batch):
    value = batch[0]
    return value.numpy() if hasattr(value, "numpy") else np.asarray(value)


def epoch(loader):
    return [batch_array(b).copy() for b in loader]


def clean_epoch():
    return epoch(DataLoader(counting_dataset(), batch_size=BATCH))


def assert_non_faulted_batches_identical(got, skipped_indices):
    """Delivered samples must be the non-skipped values, in dataset
    order, bitwise equal to a fault-free run's values."""
    delivered = np.concatenate([g.ravel() for g in got]) if got else np.array([])
    expected = np.array(
        sorted(set(range(N_SAMPLES)) - set(skipped_indices)), dtype=np.float32
    )
    np.testing.assert_array_equal(np.sort(delivered), expected)


class TestFaultPlanDeterminism:
    def test_rate_draws_are_seed_stable(self):
        a = FaultPlan(seed=11, transient_rate=0.1)
        b = FaultPlan(seed=11, transient_rate=0.1)
        c = FaultPlan(seed=12, transient_rate=0.1)
        assert a.transient_indices(256) == b.transient_indices(256)
        assert a.transient_indices(256) != c.transient_indices(256)

    def test_rate_hits_are_backend_and_schedule_independent(self):
        # The hit set is pure integer math on (seed, index) — recomputing
        # it never consults workers, threads, or prior draws.
        plan = FaultPlan(seed=3, transient_rate=0.2, corrupt_rate=0.1)
        first = (plan.transient_indices(64), plan.corrupt_indices(64))
        second = (plan.transient_indices(64), plan.corrupt_indices(64))
        assert first == second

    def test_simulated_remote_store_consumes_plan(self):
        from repro.datasets.filestore import SimulatedRemoteStore

        blobs = [bytes(range(64)) for _ in range(8)]
        plan = FaultPlan(
            seed=0,
            sites=(
                FaultSite(kind="transient", sample_index=2),
                FaultSite(kind="corrupt", sample_index=5),
            ),
        )
        store = SimulatedRemoteStore(
            blobs, base_latency_s=0.0, bandwidth_mb_s=0.0, fault_plan=plan
        )
        with pytest.raises(IOError):
            store[2]
        assert store[2] == blobs[2]  # transient: second read succeeds
        assert store[5] != blobs[5] and len(store[5]) < len(blobs[5])
        assert store[0] == blobs[0]


class TestFailurePolicies:
    def test_skip_sample_single_process_exact_accounting(self):
        plan = FaultPlan(seed=3, transient_rate=0.2)
        expected_bad = set(plan.transient_indices(N_SAMPLES))
        assert expected_bad, "seed must inject at least one fault"
        loader = DataLoader(
            counting_dataset(plan), batch_size=BATCH, failure_policy="skip_sample"
        )
        got = epoch(loader)
        stats = loader.fault_stats
        assert set(stats.skipped_indices) == expected_bad
        assert stats.delivered_samples + stats.skipped_samples == N_SAMPLES
        assert_non_faulted_batches_identical(got, stats.skipped_indices)

    def test_retry_recovers_transients_bit_identical(self):
        plan = FaultPlan(seed=5, transient_rate=0.15, transient_attempts=1)
        loader = DataLoader(
            counting_dataset(plan),
            batch_size=BATCH,
            failure_policy=FailurePolicy(
                mode="retry", max_retries=2, backoff_base_s=0.001
            ),
        )
        got = epoch(loader)
        stats = loader.fault_stats
        assert stats.skipped_samples == 0
        assert stats.delivered_samples == N_SAMPLES
        assert stats.retried_samples >= len(plan.transient_indices(N_SAMPLES)) > 0
        for a, b in zip(got, clean_epoch()):
            np.testing.assert_array_equal(a, b)

    def test_retry_exhaustion_raises_typed_error(self):
        plan = FaultPlan(
            seed=0, sites=(FaultSite(kind="transient", sample_index=3, attempts=99),)
        )
        loader = DataLoader(
            counting_dataset(plan),
            batch_size=BATCH,
            failure_policy=FailurePolicy(
                mode="retry", max_retries=1, backoff_base_s=0.0
            ),
        )
        with pytest.raises(RetryExhaustedError) as excinfo:
            epoch(loader)
        assert excinfo.value.index == 3
        assert excinfo.value.attempts == 2

    def test_default_policy_still_raises(self):
        plan = FaultPlan(
            seed=0, sites=(FaultSite(kind="transient", sample_index=3),)
        )
        with pytest.raises(IOError):
            epoch(DataLoader(counting_dataset(plan), batch_size=BATCH))

    def test_policy_raise_in_worker_surfaces_as_crash(self):
        plan = FaultPlan(
            seed=0,
            sites=(FaultSite(kind="transient", sample_index=3, attempts=99),),
        )
        loader = DataLoader(
            counting_dataset(plan),
            batch_size=BATCH,
            num_workers=2,
            worker_timeout_s=10,
        )
        with pytest.raises(WorkerCrashError) as excinfo:
            epoch(loader)
        assert "OSError" in str(excinfo.value) or "IOError" in str(excinfo.value)

    def test_corrupt_faults_surface_as_codec_error_and_skip(self):
        plan = FaultPlan(
            seed=0, sites=(FaultSite(kind="corrupt", sample_index=7),)
        )
        loader = DataLoader(
            counting_dataset(plan), batch_size=BATCH, failure_policy="skip_sample"
        )
        epoch(loader)
        assert loader.fault_stats.skipped_indices == [7]
        # Corruption is persistent: a raise-policy loader sees CodecError.
        plan2 = FaultPlan(
            seed=0, sites=(FaultSite(kind="corrupt", sample_index=7),)
        )
        with pytest.raises(CodecError):
            epoch(DataLoader(counting_dataset(plan2), batch_size=BATCH))


@pytest.mark.parametrize("backend", ["thread", "process"])
class TestChaosEpochs:
    """The acceptance scenario: transient faults at a 5% rate, retry
    escalating to skip, 2 workers, exact accounting, fault records in
    the trace, and bitwise-identical non-faulted samples."""

    def test_transient_chaos_exact_accounting(self, backend, tmp_path):
        from repro.core.lotustrace import analyze_trace, parse_trace_file_columns

        log = str(tmp_path / "chaos.log")
        plan = FaultPlan(
            seed=29,
            transient_rate=0.05,
            transient_attempts=1,
            sites=(
                # One unrecoverable sample: retries exhaust, skip kicks in.
                FaultSite(kind="transient", sample_index=13, attempts=99),
            ),
        )
        recoverable = set(plan.transient_indices(N_SAMPLES)) - {13}
        assert recoverable, "rate must inject at least one recoverable fault"
        loader = DataLoader(
            counting_dataset(plan),
            batch_size=BATCH,
            num_workers=2,
            worker_backend=backend,
            log_file=log,
            failure_policy=FailurePolicy(
                mode="retry",
                max_retries=2,
                backoff_base_s=0.001,
                on_exhausted="skip_sample",
            ),
            worker_timeout_s=30,
        )
        got = epoch(loader)
        stats = loader.fault_stats
        assert stats.delivered_samples + stats.skipped_samples == N_SAMPLES
        assert stats.skipped_indices == [13]
        assert stats.retried_samples >= len(recoverable) + 2
        assert_non_faulted_batches_identical(got, stats.skipped_indices)
        analysis = analyze_trace(parse_trace_file_columns(log))
        counts = analysis.fault_counts()
        assert counts.get("sample_retried", 0) == stats.retried_samples
        assert counts.get("sample_skipped", 0) == 1
        assert analysis.skipped_sample_indices() == [13]

    def test_crash_recovery_bit_identical(self, backend, tmp_path):
        from repro.core.lotustrace import analyze_trace, parse_trace_file_columns

        log = str(tmp_path / "crash.log")
        plan = FaultPlan(
            seed=0, sites=(FaultSite(kind="crash", sample_index=10),)
        )
        loader = DataLoader(
            counting_dataset(plan),
            batch_size=BATCH,
            num_workers=2,
            worker_backend=backend,
            log_file=log,
            max_worker_restarts=2,
            hang_timeout_s=10.0,
            worker_timeout_s=30,
        )
        got = epoch(loader)
        stats = loader.fault_stats
        assert stats.worker_restarts == 1
        for a, b in zip(got, clean_epoch()):
            np.testing.assert_array_equal(a, b)
        analysis = analyze_trace(parse_trace_file_columns(log))
        assert analysis.fault_counts().get("worker_restart", 0) == 1
        restart = analysis.records_of("worker_restart")
        assert restart and restart[0].name == "crash"


@pytest.mark.parametrize("backend", ["thread", "process"])
class TestReorderBufferSkipSample:
    """OOO reorder buffer under ``skip_sample`` (ISSUE 10 satellite):
    a stalled head batch parks every later arrival in the out-of-order
    buffer, a corrupt sample inside one of those parked batches is
    skipped — delivery order, partial-batch accounting, and the 1 µs
    OOO wait markers must all survive the combination, on both
    backends."""

    class SlowHeadDataset(Dataset):
        def __len__(self):
            return N_SAMPLES

        def __getitem__(self, index):
            if index == 0:
                time.sleep(0.3)
            return np.array([float(index)], dtype=np.float32)

    def test_skipped_sample_inside_reordered_batch(self, backend, tmp_path):
        from repro.core.lotustrace import (
            analyze_trace,
            out_of_order_events,
            parse_trace_file,
        )

        log = str(tmp_path / "ooo_skip.trace")
        plan = FaultPlan(
            seed=0, sites=(FaultSite(kind="corrupt", sample_index=13),)
        )
        loader = DataLoader(
            FaultInjectingDataset(self.SlowHeadDataset(), plan),
            batch_size=BATCH,
            num_workers=2,
            worker_backend=backend,
            failure_policy="skip_sample",
            log_file=log,
            seed=0,
            worker_timeout_s=30,
        )
        got = [batch.numpy().copy() for batch in loader]
        stats = loader.fault_stats
        assert stats.skipped_indices == [13]
        assert stats.delivered_samples + stats.skipped_samples == N_SAMPLES
        # The reorder buffer must preserve dataset order even though the
        # skipped sample's batch arrived (and was parked) out of order:
        # delivered values are the full sequence minus 13, *in order*.
        delivered = np.concatenate([g.ravel() for g in got])
        expected = np.array(
            [i for i in range(N_SAMPLES) if i != 13], dtype=np.float32
        )
        np.testing.assert_array_equal(delivered, expected)
        sizes = sorted(len(g) for g in got)
        assert sizes == [3] + [4] * (N_SAMPLES // BATCH - 1)
        analysis = analyze_trace(parse_trace_file(log))
        assert analysis.skipped_sample_indices() == [13]
        # Batches overtaking the stalled head must have left OOO markers.
        ooo = out_of_order_events(analysis)
        assert len(ooo) >= 1
        assert all(event.batch_id != 0 for event in ooo)


class TestHangRecovery:
    def test_hung_thread_worker_is_replaced(self):
        plan = FaultPlan(
            seed=0, sites=(FaultSite(kind="hang", sample_index=6, hang_s=3.0),)
        )
        loader = DataLoader(
            counting_dataset(plan),
            batch_size=BATCH,
            num_workers=2,
            max_worker_restarts=1,
            hang_timeout_s=0.5,
            worker_timeout_s=30,
        )
        got = epoch(loader)
        stats = loader.fault_stats
        assert stats.worker_restarts == 1
        assert stats.heartbeats > 0  # idle peer beaconed during the stall
        for a, b in zip(got, clean_epoch()):
            np.testing.assert_array_equal(a, b)

    def test_hang_without_restart_budget_raises_typed_error(self):
        from repro.errors import WorkerHungError

        plan = FaultPlan(
            seed=0, sites=(FaultSite(kind="hang", sample_index=2, hang_s=3.0),)
        )
        loader = DataLoader(
            counting_dataset(plan),
            batch_size=BATCH,
            num_workers=2,
            hang_timeout_s=0.4,
            worker_timeout_s=30,
        )
        with pytest.raises(WorkerHungError) as excinfo:
            epoch(loader)
        assert excinfo.value.worker_id in (0, 1)


class TestQueueProtocol:
    def test_shutdown_sentinel_survives_pickling_with_identity(self):
        # multiprocessing queues pickle payloads; the sentinel must still
        # compare by identity on the far side.
        clone = pickle.loads(pickle.dumps(SHUTDOWN_SENTINEL))
        assert clone is SHUTDOWN_SENTINEL
        assert SHUTDOWN_SENTINEL is not None

    def test_thread_backend_terminate_is_cooperative(self):
        backend = ThreadWorkerBackend()
        stopped = threading.Event()

        def target(cancel_flag=None):
            while not cancel_flag.is_set():
                cancel_flag.wait(0.01)
            stopped.set()

        handle = backend.start_worker(target, args=(), kwargs={}, name="t")
        assert backend.is_alive(handle)
        backend.terminate(handle)
        backend.join(handle, timeout=2.0)
        assert stopped.is_set()
        assert not backend.is_alive(handle)

"""Work-stealing scheduler benchmarks: skewed decode cost, 4 workers.

Models the DESIGN.md §12 claim end-to-end through the real worker pool:
a heavy-tailed per-sample cost (every 8th batch costs ~16x, the shape a
corpus of mostly-small-plus-occasionally-huge JPEGs produces) makes the
paper's § II-B static dispatch serialize the heavy batches on one
worker — startup round-robin hands worker 0 batch 0, and
replenish-on-consume then chains each subsequent heavy batch onto
whichever worker just finished the previous one, while its siblings sit
idle with no undispatched work they are allowed to take.
``scheduler="stealing"`` dispatches the oldest undispatched batch at
every payload receipt instead, so the heavies overlap across workers
and the epoch approaches total-work / num_workers.

The simulated cost is ``time.sleep`` (releases the GIL, identical on
both backends, immune to machine load), so the same-run ratio
``check_regression.py`` enforces — stealing >= 1.5x faster than static
per epoch, on the thread *and* process backends — is stable where
absolute medians are not. A bit-parity assertion runs once per session
so the ratio can never be "won" by yielding different batches.
"""

import time

import numpy as np
import pytest

from repro.data import DataLoader
from repro.data.dataset import Dataset

N_WORKERS = 4
BATCH_SIZE = 4
N_BATCHES = 32
#: Per-sample sleep for a light batch (per-batch cost 10 ms) — large
#: enough that pool spawn/teardown (benched inside the epoch on both
#: sides) cannot dilute the dispatch-policy ratio below its floor.
LIGHT_SLEEP_S = 0.0025
#: Heavy batches cost 16x: every 8th batch, per-sample sleep 20 ms.
HEAVY_FACTOR = 16


class SkewedCostDataset(Dataset):
    """Deterministic samples whose fetch cost is heavy-tailed by batch.

    Sample ``i`` belongs to batch ``i // BATCH_SIZE`` (sequential
    sampler); samples of every 8th batch sleep ``HEAVY_FACTOR`` times
    longer, simulating a huge image's decode. Values are a pure function
    of the index so every scheduler mode must yield identical bytes.
    """

    def __len__(self):
        return N_BATCHES * BATCH_SIZE

    def __getitem__(self, index):
        heavy = (index // BATCH_SIZE) % 8 == 0
        time.sleep(LIGHT_SLEEP_S * (HEAVY_FACTOR if heavy else 1))
        rng = np.random.default_rng(7000 + index)
        return rng.standard_normal(16).astype(np.float32)


def _epoch(backend, scheduler, collect=False):
    # prefetch_factor=2 keeps the claim slots shallow, which makes the
    # stealing placement self-stabilizing: a worker running a heavy
    # batch holds both its slots (the private claim queue is FIFO) for
    # the heavy's whole duration, so later heavies can only land on
    # workers that are actually draining lights. Deeper slots let the
    # startup fill or a racy receipt stack two heavies on one worker,
    # which turns the ratio bimodal.
    loader = DataLoader(
        SkewedCostDataset(),
        batch_size=BATCH_SIZE,
        num_workers=N_WORKERS,
        prefetch_factor=2,
        worker_backend=backend,
        scheduler=scheduler,
        seed=11,
    )
    if collect:
        return [np.array(batch.numpy(), copy=True) for batch in loader]
    count = sum(1 for _ in loader)
    assert count == N_BATCHES
    return None


@pytest.fixture(scope="module")
def parity():
    """Stealing must yield bit-identical batches before any ratio is
    trusted (the §12 parity-oracle rule)."""
    for backend in ("thread", "process"):
        reference = _epoch(backend, "static", collect=True)
        candidate = _epoch(backend, "stealing", collect=True)
        assert len(candidate) == len(reference)
        for expected, got in zip(reference, candidate):
            np.testing.assert_array_equal(expected, got)


def test_bench_sched_static_thread(benchmark, parity):
    benchmark(_epoch, "thread", "static")


def test_bench_sched_stealing_thread(benchmark, parity):
    benchmark(_epoch, "thread", "stealing")


def test_bench_sched_static_process(benchmark, parity):
    benchmark(_epoch, "process", "static")


def test_bench_sched_stealing_process(benchmark, parity):
    benchmark(_epoch, "process", "stealing")


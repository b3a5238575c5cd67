"""Loader configurations, the closed-loop consumer, and the timed phases.

Everything here drives the loader through its public constructors and
calls only, and times each layer from outside. Nothing pins BLAS
threads, sets ``PYTHONHASHSEED``, or runs fewer workers than ``nproc``:
those would hide the two seed defects this benchmark must be able to
show as fixed (per-worker OpenBLAS oversubscription, and one shm slab
leaked per epoch by persistent loaders).
"""

from __future__ import annotations

import hashlib
import os
import time
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from inputs import Inputs, Workload
from repro.core.lotustrace.logfile import open_trace_log
from repro.data import BlobImageDataset, DataLoader
from repro.datasets.filestore import SimulatedRemoteStore
from repro.transforms import (
    Compose,
    Normalize,
    RandomHorizontalFlip,
    RandomResizedCrop,
    ToTensor,
)

PRODUCTION, SERIAL, PAPER = "production", "serial", "paper"
NPROC = len(os.sched_getaffinity(0))
BATCH_SIZE = 16
CROP = 96
IMAGE_SHAPE = (3, CROP, CROP)
IMAGENET_MEAN = (0.485, 0.456, 0.406)
IMAGENET_STD = (0.229, 0.224, 0.225)
#: Epochs one production loader lives: an untimed first epoch (pool
#: spawn, cache and filter-memo fill) plus timed epochs. A persistent
#: loader leaks one slab per epoch at the seed and hangs once a worker's
#: ring is exhausted; the multi-epoch check counts that, timed loaders
#: (work stealing, whose rings are wider) stay below it.
LOADER_EPOCHS = 6
SHM_DIR = "/dev/shm"


def loader_segments() -> Dict[str, int]:
    """This process's loader shm segments (``lt<pid>...``) and the bytes
    each has allocated."""
    prefix = f"lt{os.getpid()}"
    found = {}
    with os.scandir(SHM_DIR) as entries:
        for entry in entries:
            if entry.name.startswith(prefix):
                try:
                    found[entry.name] = entry.stat().st_blocks * 512
                except FileNotFoundError:
                    continue
    return found


def _status_kb(pid: int, field_name: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith(field_name + ":"):
                    return int(line.split()[1])
    except FileNotFoundError:
        pass
    return 0


def worker_pids() -> List[int]:
    """Live forked children of this process (workers share our command
    line; the multiprocessing resource tracker does not)."""
    with open(f"/proc/{os.getpid()}/cmdline", "rb") as handle:
        own = handle.read()
    pids = []
    for tid in os.listdir(f"/proc/{os.getpid()}/task"):
        try:
            with open(f"/proc/{os.getpid()}/task/{tid}/children") as handle:
                children = handle.read().split()
        except FileNotFoundError:
            continue
        for child in children:
            try:
                with open(f"/proc/{child}/cmdline", "rb") as handle:
                    if handle.read() == own:
                        pids.append(int(child))
            except FileNotFoundError:
                continue
    return pids


def reset_peak_rss() -> None:
    """Restart this process's peak RSS (VmHWM) from its current RSS."""
    with open(f"/proc/{os.getpid()}/clear_refs", "w") as handle:
        handle.write("5")


def peak_rss_mb() -> float:
    """Summed peak RSS (VmHWM) of this process since ``reset_peak_rss``
    and of its live workers."""
    pids = [os.getpid()] + worker_pids()
    return sum(_status_kb(pid, "VmHWM") for pid in pids) / 1024.0


def build_transform(seed: int, sink=None) -> Compose:
    return Compose(
        [
            RandomResizedCrop(CROP, seed=seed),
            RandomHorizontalFlip(seed=seed + 1),
            ToTensor(),
            Normalize(IMAGENET_MEAN, IMAGENET_STD),
        ],
        log_transform_elapsed_time=sink,
    )


def blob_source(workload: Workload, inputs: Inputs):
    if workload.remote is None:
        return inputs.blobs
    latency_s, bandwidth_mb_s = workload.remote
    return SimulatedRemoteStore(
        inputs.blobs, base_latency_s=latency_s, bandwidth_mb_s=bandwidth_mb_s
    )


def make_loader(
    config: str,
    workload: Workload,
    inputs: Inputs,
    seed: int,
    blobs=None,
    log_file=None,
    **overrides,
) -> DataLoader:
    """A fresh dataset and loader in one of the three configurations.

    ``blobs`` replaces the workload's blob source (the traced run wraps
    it in a read counter); ``overrides`` go to ``DataLoader`` last.
    """
    sink = open_trace_log(log_file)
    dataset = BlobImageDataset(
        blob_source(workload, inputs) if blobs is None else blobs,
        labels=inputs.labels,
        transform=build_transform(seed, sink),
        log_file=sink,
    )
    kwargs = dict(batch_size=BATCH_SIZE, shuffle=True, seed=seed, log_file=sink)
    if config == PRODUCTION:
        kwargs.update(
            num_workers=NPROC,
            worker_backend="process",
            transport="auto",
            batched_execution=True,
            scheduler="stealing",
            persistent_workers=True,
            cache=workload.cache,
        )
        if workload.cache is not None:
            kwargs["cache_capacity_bytes"] = int(
                inputs.decoded_bytes * workload.arena_share
            )
    elif config == PAPER:
        kwargs.update(
            num_workers=NPROC,
            worker_backend="thread",
            scheduler="static",
            batched_execution=False,
        )
    elif config != SERIAL:
        raise ValueError(f"unknown loader configuration {config!r}")
    kwargs.update(overrides)
    return DataLoader(dataset, **kwargs)


def batch_digest(batch) -> Tuple[int, int]:
    """CRCs of a batch's labels (which samples, in which order) and of
    its pixels (what preprocessing made of them)."""
    images, labels = batch
    pixels = np.ascontiguousarray(images.numpy())
    if pixels.shape[1:] != IMAGE_SHAPE or pixels.dtype != np.float32:
        return (-1, -1)
    return (
        zlib.crc32(np.ascontiguousarray(labels.numpy()).tobytes()),
        zlib.crc32(memoryview(pixels).cast("B")),
    )


def epoch_digest(digests: List[Tuple[int, int]]) -> str:
    return hashlib.sha256(repr(digests).encode()).hexdigest()[:16]


@dataclass
class Epoch:
    """One pass of the closed-loop consumer over a loader."""

    seconds: float
    samples: int
    #: Per-batch blocking time inside ``next()``, in seconds.
    waits: List[float]
    digests: List[Tuple[int, int]]
    shm_peak_bytes: int
    error: Optional[str]
    #: Wall-clock bounds (``time.time_ns``) for splitting trace records.
    start_ns: int
    end_ns: int


def run_epoch(loader: DataLoader, probe_shm: bool = False) -> Epoch:
    """Pull every batch of one epoch with no think time beyond a digest."""
    waits: List[float] = []
    digests: List[Tuple[int, int]] = []
    samples = 0
    shm_peak = 0
    error = None
    start_ns = time.time_ns()
    start = time.perf_counter()
    try:
        iterator = iter(loader)
        while True:
            before = time.perf_counter()
            try:
                batch = next(iterator)
            except StopIteration:
                break
            waits.append(time.perf_counter() - before)
            digests.append(batch_digest(batch))
            samples += len(batch[1])
            if probe_shm:
                shm_peak = max(shm_peak, sum(loader_segments().values()))
    except Exception as exc:  # a failed epoch is counted, not fatal
        error = f"{type(exc).__name__}: {exc}"
    return Epoch(
        time.perf_counter() - start, samples, waits, digests, shm_peak, error,
        start_ns, time.time_ns(),
    )


@dataclass
class Tally:
    """Batches attempted and failed across every configuration.

    A batch fails when its epoch raised before delivering it, or when
    it differs from its reference for the same epoch: in its labels
    (which samples, in which order) or tensor shape always, and in its
    pixels where the reference has them. Every shm segment left after
    ``close()`` counts as one more failure.
    """

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    notes: List[str] = field(default_factory=list)

    def epoch(
        self, label: str, epoch: Epoch, expected: int,
        reference: List[list],
    ) -> None:
        self.attempted += expected
        self.failed += expected - len(epoch.digests)
        if epoch.error is not None:
            self.notes.append(f"{label}: {epoch.error}")
        # A failed epoch's batches are compared by position only up to
        # the failure; those it never delivered are already counted.
        wrong = sum(
            1 for got, want in zip(epoch.digests, reference)
            if got[0] != want[0] or (want[1] is not None and got[1] != want[1])
        )
        self.wrong += wrong
        self.failed += wrong
        if wrong:
            self.notes.append(
                f"{label}: {wrong} batches differ from the reference "
                "(labels, shape or pixels)"
            )

    def closed(self, label: str) -> None:
        """Count segments still linked after a loader's ``close()``."""
        leaked = loader_segments()
        if leaked:
            self.failed += len(leaked)
            self.notes.append(f"{label}: {len(leaked)} shm segments leaked")
            for name in leaked:
                os.unlink(os.path.join(SHM_DIR, name))


@dataclass
class Phase:
    """The timed epochs of one configuration, run one epoch per
    ``step()`` so the configurations can take turns (``run_interleaved``).

    Epochs run over fresh loaders of at most ``loader_epochs`` epochs
    each, whose first epoch is untimed, until ``budget_s`` of timed
    epochs and at least ``min_epochs`` of them have run. ``reference``
    holds the expected digests per epoch index. ``probe`` samples the
    loader's shm and its processes' peak RSS over its own epochs (the
    main process's peak is reset before each, as the configurations
    share it), and counts segments left after ``close()``; only the
    process loader has any.
    """

    label: str
    make: Callable[[], DataLoader]
    budget_s: float
    min_epochs: int
    loader_epochs: int
    reference: List[List[list]]
    tally: Tally
    probe: bool = False
    epochs: List[Epoch] = field(default_factory=list)
    rss_mb: float = 0.0
    #: Digests of the first loader's untimed first epoch.
    epoch0: List[Tuple[int, int]] = field(default_factory=list)
    loader: Optional[DataLoader] = None
    index: int = 0

    def done(self) -> bool:
        return self.seconds >= self.budget_s and len(self.epochs) >= self.min_epochs

    def step(self) -> None:
        if self.loader is None:
            self.loader, self.index = self.make(), 0
        if self.probe:
            reset_peak_rss()
        epoch = run_epoch(self.loader, probe_shm=self.probe)
        if self.probe:
            self.rss_mb = max(self.rss_mb, peak_rss_mb())
        self.tally.epoch(
            f"{self.label}[{self.index}]", epoch, len(self.loader),
            self.reference[self.index],
        )
        if self.index == 0:
            self.epoch0 = self.epoch0 or epoch.digests
        else:
            self.epochs.append(epoch)
        self.index += 1
        if self.index == self.loader_epochs or self.done():
            self.loader.close()
            self.loader = None
            if self.probe:
                self.tally.closed(self.label)

    @property
    def seconds(self) -> float:
        return sum(epoch.seconds for epoch in self.epochs)

    @property
    def samples(self) -> int:
        return sum(epoch.samples for epoch in self.epochs)

    @property
    def samples_per_s(self) -> float:
        return self.samples / self.seconds if self.seconds else float("nan")

    @property
    def waits(self) -> List[float]:
        return [wait for epoch in self.epochs for wait in epoch.waits]

    @property
    def shm_peak_bytes(self) -> int:
        return max((epoch.shm_peak_bytes for epoch in self.epochs), default=0)


def run_interleaved(phases: List[Phase]) -> None:
    """One epoch of each unfinished phase in turn until all are done, so
    every configuration samples the machine across the whole run rather
    than in one block of it."""
    while True:
        pending = [phase for phase in phases if not phase.done()]
        if not pending:
            return
        for phase in pending:
            phase.step()


def expected_batches(
    make_serial: Callable[[], DataLoader], labels: List[int], epochs: int
) -> List[List[list]]:
    """Per epoch, per batch: ``[label CRC, pixel CRC or None]``.

    The labels come from the serial loader's own batch sampler, so every
    epoch any loader runs has a reference without the serial run having
    to decode it. Pixels start as None (not compared): the random
    transforms key their stream on the executing worker's id, so only a
    loader that sends each batch to the same worker can supply them (see
    ``multi_epoch_check``)."""
    sampler = make_serial().batch_sampler
    return [
        [
            [zlib.crc32(np.asarray([labels[i] for i in indices]).tobytes()), None]
            for indices in sampler
        ]
        for _ in range(epochs)
    ]


def measure_setup(
    make: Callable[[], DataLoader], loaders: int, tally: Tally, label: str
) -> List[float]:
    """Seconds from ``DataLoader(...)`` to the first batch of each of
    ``loaders`` fresh loaders: pool spawn and ring/arena creation, on
    generated inputs and a cold cache."""
    setups = []
    for _ in range(loaders):
        start = time.perf_counter()
        loader = make()
        next(iter(loader))
        setups.append(time.perf_counter() - start)
        loader.close()
        tally.closed(label)
    return setups


def tail_percentile(count: int) -> Optional[float]:
    """The highest of the usual percentiles with at least ten samples
    beyond it."""
    for percentile in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if count * (100 - percentile) >= 1000:
            return percentile
    return None


def percentile(values: List[float], pct: float) -> float:
    return float(np.percentile(np.asarray(values), pct, method="higher"))


#: Multi-epoch check: a small slice of the inputs in small batches, so
#: many epochs are cheap, and a short timeout so a hang costs little.
CHECK_IMAGES = 16
CHECK_BATCH = 4
CHECK_TIMEOUT_S = 1.0
CHECK_PREFETCH = 2
#: Enough epochs that one slab leaked per epoch exhausts some worker's
#: ring under either scheduler: static rings hold ``prefetch + 2``
#: slots; stealing rings hold ``nproc * (prefetch + 2) + 2``, and the
#: epochs' last batches spread over ``nproc`` workers.
CHECK_EPOCHS = NPROC * (NPROC * (CHECK_PREFETCH + 2) + 2) + 1
#: ``(scheduler, transport, cache)`` of each persistent process loader.
#: The first is the pixel reference: static dispatch sends each batch id
#: to the same worker every time, so every later static loader must
#: deliver its pixels exactly, shm transport and cache hits included
#: (the shared arena holds half the slice, so hits, publishes and
#: evictions mix). Stealing moves batches between workers, whose crops
#: then differ, so its batches are checked on labels and shape only.
CHECK_CONFIGS = (
    ("static", "pickle", None),
    ("static", "shm", None),
    ("static", "shm", "shared"),
    ("stealing", "shm", None),
)


def multi_epoch_check(
    workload: Workload, inputs: Inputs, seed: int, tally: Tally
) -> Dict[str, int]:
    """Persistent process loaders for up to ``CHECK_EPOCHS`` epochs
    under each of ``CHECK_CONFIGS``, every batch checked against the
    reference for the same epoch, stopping at a loader's first failed
    epoch. Returns failed batches per loader."""
    subset = inputs.head(CHECK_IMAGES)
    reference = expected_batches(
        lambda: make_loader(SERIAL, workload, subset, seed, batch_size=CHECK_BATCH),
        subset.labels, CHECK_EPOCHS,
    )
    labels_only = [[[want[0], None] for want in epoch] for epoch in reference]
    failures = {}
    for number, (scheduler, transport, cache) in enumerate(CHECK_CONFIGS):
        label = f"check-{scheduler}-{transport}" + (f"-{cache}" if cache else "")
        before = tally.failed
        loader = make_loader(
            PRODUCTION, workload, subset, seed, batch_size=CHECK_BATCH,
            scheduler=scheduler, transport=transport, cache=cache,
            cache_capacity_bytes=subset.decoded_bytes // 2,
            prefetch_factor=CHECK_PREFETCH, worker_timeout_s=CHECK_TIMEOUT_S,
        )
        expected = len(loader)
        wanted = reference if scheduler == "static" else labels_only
        for index, want in enumerate(wanted):
            epoch = run_epoch(loader)
            tally.epoch(f"{label}[{index}]", epoch, expected, want)
            if number == 0:
                for slot, (_, pixels) in zip(want, epoch.digests):
                    slot[1] = pixels
            if epoch.error is not None:
                # One hang is the finding; each costs the timeout plus a
                # forced shutdown of the stuck workers, so stop here.
                break
        loader.close()
        tally.closed(label)
        failures[label] = tally.failed - before
    return failures

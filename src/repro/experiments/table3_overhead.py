"""Table III: profiler time and storage overheads on the IC pipeline.

Each profiler wraps the same epoch (batched loading, no trainer — the
comparison targets preprocessing visibility). LotusTrace participates via
its in-band log file; the trace-buffering profiler additionally
demonstrates its OOM failure mode on the larger dataset.
"""

from __future__ import annotations

import gc
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.datasets.synthetic import SyntheticImageNet
from repro.errors import ProfilerMemoryError, WorkerCrashError
from repro.profilers import (
    AustinLike,
    BaselineProfiler,
    LotusTraceProfiler,
    PySpyLike,
    ScaleneLike,
    TorchProfilerLike,
)
from repro.workloads import SMOKE, ScaleProfile, build_ic_pipeline


#: Unmeasured epochs before timing starts, and timed rounds per row.
WARMUP_EPOCHS = 3
ROUNDS = 3


@dataclass
class OverheadRow:
    """One Table III row."""

    profiler: str
    dataset: str
    wall_s: float
    baseline_wall_s: float
    log_bytes: int
    oom: bool = False

    @property
    def wall_overhead_pct(self) -> float:
        if self.baseline_wall_s <= 0:
            return 0.0
        return 100.0 * (self.wall_s - self.baseline_wall_s) / self.baseline_wall_s


@dataclass
class Table3Result:
    rows: List[OverheadRow] = field(default_factory=list)

    def row(self, profiler: str, dataset: Optional[str] = None) -> OverheadRow:
        for entry in self.rows:
            if entry.profiler == profiler and (
                dataset is None or entry.dataset == dataset
            ):
                return entry
        raise KeyError(f"no overhead row for {profiler!r}")


def run_ic_epoch_under(
    profiler: Optional[BaselineProfiler],
    dataset: SyntheticImageNet,
    profile: ScaleProfile,
    num_workers: int = 1,
    seed: int = 0,
) -> None:
    """One IC loading epoch with ``profiler`` wired in (None = baseline)."""
    log_file = (
        profiler.log_path if isinstance(profiler, LotusTraceProfiler) else None
    )
    if profiler is not None:
        profiler.start()
    try:
        # Characterize the per-sample pipeline, not the batched fast
        # path (DESIGN.md §7).
        bundle = build_ic_pipeline(
            dataset=dataset,
            profile=profile,
            num_workers=num_workers,
            log_file=log_file,
            seed=seed,
            pin_memory=True,
            batched_execution=False,
        )
        iterator = iter(bundle.loader)
        while True:
            wait_start = time.time_ns()
            try:
                _batch = next(iterator)
            except StopIteration:
                break
            if isinstance(profiler, TorchProfilerLike):
                profiler.record_wait(wait_start, time.time_ns() - wait_start)
    finally:
        if profiler is not None:
            profiler.stop()


def run_table3(
    profile: ScaleProfile = SMOKE,
    full_images: Optional[int] = None,
    seed: int = 0,
    log_dir: str = ".",
    torch_budget_bytes: int = 64 * 1024,
) -> Table3Result:
    """Measure all profilers on a small dataset; demonstrate the buffering
    profiler's OOM on the larger one.

    ``torch_budget_bytes`` is scaled down with the dataset so the OOM
    reproduces without a 140 GB ImageNet. After ``WARMUP_EPOCHS``
    unmeasured epochs, ``ROUNDS`` rounds each run the baseline and then
    every profiler once; every row keeps its fastest epoch.
    """
    small = SyntheticImageNet(profile.ic_images, seed=seed)
    full = SyntheticImageNet(
        full_images if full_images is not None else profile.ic_images * 3,
        seed=seed + 1,
    )

    # Live logs are per round, so the kept run's log is its own.
    factories: Dict[str, Callable[[int], BaselineProfiler]] = {
        "lotus": lambda r: LotusTraceProfiler(
            os.path.join(log_dir, f"lotus.{r}.trace")
        ),
        "scalene-like": lambda r: ScaleneLike(),
        "py-spy-like": lambda r: PySpyLike(),
        "austin-like": lambda r: AustinLike(
            os.path.join(log_dir, f"austin.live.{r}.log")
        ),
        "torch-profiler-like": lambda r: TorchProfilerLike(),
    }

    result = Table3Result()
    # The first epochs pay one-time costs (imports, numpy planning,
    # allocator growth) that would inflate whichever rows ran first.
    for _ in range(WARMUP_EPOCHS):
        run_ic_epoch_under(None, small, profile, seed=seed)
    # Interleaved rounds: slow drift in machine speed hits every row
    # alike, and keeping each row's fastest epoch stops one scheduler
    # hiccup in a sub-second epoch from deciding the row.
    baseline_small = float("inf")
    fastest: Dict[str, Tuple[float, BaselineProfiler]] = {}
    for round_index in range(ROUNDS):
        gc.collect()
        baseline_start = time.monotonic()
        run_ic_epoch_under(None, small, profile, seed=seed)
        baseline_small = min(baseline_small, time.monotonic() - baseline_start)
        for name, factory in factories.items():
            candidate = factory(round_index)
            gc.collect()
            start = time.monotonic()
            run_ic_epoch_under(candidate, small, profile, seed=seed)
            elapsed = time.monotonic() - start
            if name not in fastest or elapsed < fastest[name][0]:
                fastest[name] = (elapsed, candidate)

    for name in factories:
        wall, profiler = fastest[name]
        log_path = os.path.join(log_dir, f"{name}.log")
        log_bytes = profiler.write_log(log_path)
        result.rows.append(
            OverheadRow(
                profiler=profiler.name,
                dataset="imagenet-small",
                wall_s=wall,
                baseline_wall_s=baseline_small,
                log_bytes=log_bytes,
            )
        )

    # The buffering profiler on the larger dataset: OOM expected.
    oom_profiler = TorchProfilerLike(memory_budget_bytes=torch_budget_bytes)
    oom = False
    start = time.monotonic()
    try:
        run_ic_epoch_under(oom_profiler, full, profile, seed=seed)
    except ProfilerMemoryError:
        oom = True
    except WorkerCrashError as crash:
        # The buffer filled inside a worker thread; the loader surfaces
        # the death as a worker crash wrapping the memory error.
        if "ProfilerMemoryError" not in str(crash):
            raise
        oom = True
    wall = time.monotonic() - start
    result.rows.append(
        OverheadRow(
            profiler=oom_profiler.name,
            dataset="imagenet-full",
            wall_s=wall,
            baseline_wall_s=baseline_small,
            log_bytes=0,
            oom=oom,
        )
    )
    return result


def format_table3(result: Table3Result) -> str:
    """Render Table III."""
    lines = [
        f"{'Profiler':<22} {'Dataset':<16} {'Wall overhead':>14} {'Log storage':>12}"
    ]
    for row in result.rows:
        storage = "OOM" if row.oom else f"{row.log_bytes / 1e6:.2f}MB"
        lines.append(
            f"{row.profiler:<22} {row.dataset:<16} "
            f"{row.wall_overhead_pct:>13.1f}% {storage:>12}"
        )
    return "\n".join(lines)

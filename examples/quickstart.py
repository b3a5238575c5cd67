"""Quickstart: instrument an image pipeline with LotusTrace.

Mirrors the paper's Listing 1: declare a preprocessing pipeline with
``Compose``, point the ``log_file`` hooks at one trace file, run an epoch,
then analyze per-operation / per-batch timing and export a Chrome trace.
A second section runs a skewed-cost workload under ``scheduler="static"``
and ``scheduler="stealing"`` and diffs the two traces — the per-batch
``sched`` records (queue depth, steals, prefetch depth) show the stealing
dispatcher moving heavy batches off their round-robin home workers.

Run:  python examples/quickstart.py
"""

import os
import tempfile
import time

import numpy as np

from repro import (
    Compose,
    DataLoader,
    ImageFolder,
    Normalize,
    RandomHorizontalFlip,
    RandomResizedCrop,
    ToTensor,
    analyze_trace,
    parse_trace_file,
    write_chrome_trace,
)
from repro.core.lotustrace import compare_traces
from repro.data.dataset import Dataset
from repro.datasets import SyntheticImageNet
from repro.utils.timeunits import format_ns


class SkewedCostDataset(Dataset):
    """Heavy-tailed per-sample cost: every 4th batch of 4 costs ~10x,
    the shape a corpus of mostly-small-plus-occasionally-huge JPEGs
    produces. Values are a pure function of the index, so any scheduler
    mode yields identical bytes (the DESIGN.md §12 parity-oracle rule)."""

    def __len__(self):
        return 64

    def __getitem__(self, index):
        heavy = (index // 4) % 4 == 0
        time.sleep(0.01 if heavy else 0.001)
        rng = np.random.default_rng(1000 + index)
        return rng.standard_normal(16).astype(np.float32)


def skewed_scheduler_demo(workdir: str) -> None:
    """Run the same skewed workload under static and stealing dispatch
    and diff the traces: the ``sched[...]`` lines surface the per-batch
    scheduler records either side emitted."""
    logs = {}
    for scheduler in ("static", "stealing"):
        logs[scheduler] = os.path.join(workdir, f"sched-{scheduler}.log")
        loader = DataLoader(
            SkewedCostDataset(),
            batch_size=4,
            num_workers=4,
            prefetch_factor=2,
            worker_backend="thread",
            scheduler=scheduler,
            seed=11,
            log_file=logs[scheduler],
        )
        start = time.perf_counter()
        for _batch in loader:
            pass
        print(f"  scheduler={scheduler!r:<11} epoch took "
              f"{time.perf_counter() - start:.2f}s")

    comparison = compare_traces(
        parse_trace_file(logs["static"]),
        parse_trace_file(logs["stealing"]),
    )
    print("\ntrace diff (baseline=static -> candidate=stealing):")
    for line in comparison.format().splitlines():
        if line.startswith(("sched[", "median wait")):
            print(f"  {line}")


def main() -> None:
    workdir = tempfile.mkdtemp(prefix="lotus-quickstart-")
    train_dir = os.path.join(workdir, "train")
    custom_log_file = os.path.join(workdir, "lotustrace.log")

    # A tiny synthetic stand-in for ImageNet, laid out as an ImageFolder.
    print("generating synthetic dataset ...")
    SyntheticImageNet(48, n_classes=4, seed=0).write_image_folder(train_dir)

    # Listing 1, almost verbatim: the pipeline and loader take the same
    # log_file used by the paper's instrumented torchvision build.
    train_dataset = ImageFolder(
        train_dir,
        Compose(
            [
                RandomResizedCrop(64),
                RandomHorizontalFlip(),
                ToTensor(),
                Normalize(mean=[0.485, 0.456, 0.406], std=[0.229, 0.224, 0.225]),
            ],
            log_transform_elapsed_time=custom_log_file,
        ),
        log_file=custom_log_file,
    )
    train_loader = DataLoader(
        train_dataset,
        batch_size=8,
        shuffle=True,
        num_workers=2,
        pin_memory=True,
        log_file=custom_log_file,
    )

    print("running one epoch ...")
    for batch, labels in train_loader:
        pass  # a real job would train a model here

    analysis = analyze_trace(parse_trace_file(custom_log_file))
    print(f"\nPer-operation elapsed time over {len(analysis.batches)} batches:")
    for op in analysis.op_names():
        summary = analysis.op_summary(op)
        print(
            f"  {op:<22} avg={format_ns(summary.mean):>10} "
            f"p90={format_ns(summary.p90):>10} n={summary.count}"
        )

    waits = analysis.wait_times_ns()
    delays = analysis.delay_times_ns()
    print(f"\nmain-process wait  (median): {format_ns(sorted(waits)[len(waits) // 2])}")
    print(f"batch delay        (median): {format_ns(sorted(delays)[len(delays) // 2])}")

    viz = os.path.join(workdir, "viz_file.lotustrace")
    write_chrome_trace(parse_trace_file(custom_log_file), viz, coarse=True)
    print(f"\nChrome trace written to {viz}")
    print("open chrome://tracing and load it to see the data flow")

    # -- DESIGN.md §12: work stealing on a skewed workload -------------------
    print("\nskewed-cost workload, static vs stealing dispatch ...")
    skewed_scheduler_demo(workdir)


if __name__ == "__main__":
    main()

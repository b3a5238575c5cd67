"""End-to-end epoch benchmark of the preprocessing loader.

Usage, from the repository root::

    python3 perfbench/run.py --workload ic-cache-churn --seed 1 --seconds 20 --trace 0

One image-classification job (SJPG decode, RandomResizedCrop(96),
RandomHorizontalFlip, ToTensor, Normalize, collate, hand-off) runs
through three loader configurations on the same seeded inputs, each
pulled by one closed-loop consumer in the main process with no think
time:

* production: process workers (one per CPU), shm transport, batched
  execution, work stealing, persistent workers, the workload's cache;
* serial: ``num_workers=0``, the single-threaded baseline and the
  reference every delivered batch is checked against;
* paper: thread workers, static dispatch, per-sample execution.

``--trace 0`` runs untraced and reports the end-to-end metrics;
``--trace 1`` runs the separate traced run and reports the per-layer
metrics. Every metric is printed with its unit and sample count; the
last line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``, which holds the metrics ``BENCHMARK.json`` lists for the
mode. ``layers.json`` names, for each per-layer metric, the end-to-end
metric and workload it should move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys
import time
from multiprocessing import resource_tracker
from typing import Dict, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

#: Shares of ``--seconds`` for the timed epochs of each configuration.
#: Every loader's first epoch is untimed: it spawns workers, fills the
#: cache and the resampling-filter memo, which later epochs reuse.
PRODUCTION_SHARE = 0.3
SERIAL_SHARE = 0.35
PAPER_SHARE = 0.35
SERIAL_MIN_EPOCHS = 3
PAPER_MIN_EPOCHS = 3
#: Timed production epochs run until at least this many batch waits.
#: The tail percentile is taken for this count, not the run's, so every
#: run reports the same one (p90).
PRODUCTION_MIN_WAITS = 100
#: Fresh production loaders set up, each up to its first batch, for
#: setup_s.
SETUP_LOADERS = 8
#: Epochs of expected batches; serial and paper loaders may live this
#: long, production loaders only ``LOADER_EPOCHS``.
REFERENCE_EPOCHS = 16
#: The workload whose traced run also runs the multi-epoch check, in
#: ic-cold's setting (no cache) on its inputs, which ic-cache-churn shares.
CHECK_WORKLOAD = "ic-cache-churn"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def listed_metrics(key: str) -> Dict[str, str]:
    """Name to unit of the metrics ``BENCHMARK.json`` lists under
    ``key``; the result line carries exactly these."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {entry["name"]: entry["unit"] for entry in json.load(handle)[key]}


def metric(value: float, unit: str, count: int, note: str = "") -> dict:
    return {"value": float(value), "unit": unit, "count": count, "note": note}


def end_to_end(workload, inputs, seed: int, seconds: float, tally) -> Tuple[dict, dict]:
    from harness import (
        LOADER_EPOCHS, PAPER, PRODUCTION, SERIAL, Phase, epoch_digest,
        expected_batches, make_loader, measure_setup, percentile,
        run_interleaved, tail_percentile,
    )

    def make(config):
        return lambda: make_loader(config, workload, inputs, seed)

    reference = expected_batches(make(SERIAL), inputs.labels, REFERENCE_EPOCHS)
    start = time.perf_counter()
    setup = measure_setup(make(PRODUCTION), SETUP_LOADERS, tally, "setup")
    phase_s = {"setup": time.perf_counter() - start}
    serial = Phase(
        "serial", make(SERIAL), SERIAL_SHARE * seconds, SERIAL_MIN_EPOCHS,
        REFERENCE_EPOCHS, reference, tally,
    )
    production = Phase(
        "production", make(PRODUCTION), PRODUCTION_SHARE * seconds,
        math.ceil(PRODUCTION_MIN_WAITS / len(reference[0])), LOADER_EPOCHS,
        reference, tally, probe=True,
    )
    paper = Phase(
        "paper", make(PAPER), PAPER_SHARE * seconds, PAPER_MIN_EPOCHS,
        REFERENCE_EPOCHS, reference, tally,
    )
    start = time.perf_counter()
    run_interleaved([serial, production, paper])
    phase_s["timed"] = time.perf_counter() - start

    waits_ms = [wait * 1e3 for wait in production.waits]
    tail = tail_percentile(PRODUCTION_MIN_WAITS)
    metrics = {
        "samples_per_s": metric(
            production.samples_per_s, "1/s", len(production.epochs),
            "production; total samples over total time of the timed epochs",
        ),
        "batch_wait_p50_ms": metric(
            percentile(waits_ms, 50), "ms", len(waits_ms),
            "production; consumer blocking time inside next(), p50",
        ),
        "batch_wait_tail_ms": metric(
            percentile(waits_ms, tail), "ms", len(waits_ms),
            f"production; p{tail:g}, the highest percentile with >= 10 "
            "samples beyond it",
        ),
        # Per loader, setup is bimodal on ic-cache-churn (about 0.25 s or
        # 0.75 s), so a median flips between modes from run to run; the
        # mean moves smoothly.
        "setup_s": metric(
            statistics.fmean(setup), "s", len(setup),
            "production; mean over fresh loaders of DataLoader(...) to first batch",
        ),
        "serial_samples_per_s": metric(
            serial.samples_per_s, "1/s", len(serial.epochs), "num_workers=0",
        ),
        "paper_samples_per_s": metric(
            paper.samples_per_s, "1/s", len(paper.epochs),
            "thread backend, static, per-sample",
        ),
        "peak_rss_mb": metric(
            production.rss_mb, "MB", len(production.epochs),
            "production; summed VmHWM of main and workers, over its epochs",
        ),
        "shm_peak_mb": metric(
            production.shm_peak_bytes / 2**20, "MB", len(waits_ms),
            "production; allocated bytes of the loader's /dev/shm segments",
        ),
    }
    info = {
        "serial_epoch0_digest": epoch_digest(serial.epoch0),
        "error_rate": tally.failed / tally.attempted,
        "phase_s": {name: round(value, 2) for name, value in phase_s.items()},
    }
    return metrics, info


def per_layer(workload, inputs, seed: int, tally, units) -> Tuple[dict, dict]:
    from harness import (
        LOADER_EPOCHS, SERIAL, epoch_digest, expected_batches, make_loader,
        multi_epoch_check,
    )
    from inputs import WORKLOADS
    from traced import TRACED_EPOCHS, traced_run

    reference = expected_batches(
        lambda: make_loader(SERIAL, workload, inputs, seed), inputs.labels,
        LOADER_EPOCHS,
    )
    os.makedirs(OUT_DIR, exist_ok=True)
    log_path = os.path.join(OUT_DIR, f"trace-{workload.name}.log")
    values = traced_run(workload, inputs, seed, log_path, reference, tally)
    check = {}
    if workload.name == CHECK_WORKLOAD:
        check = multi_epoch_check(WORKLOADS["ic-cold"], inputs, seed, tally)
    metrics = {
        name: metric(
            values[name], unit, TRACED_EPOCHS,
            "per traced epoch" if unit in ("s", "count", "B") else "",
        )
        for name, unit in units.items()
    }
    info = {
        "epoch0_labels_digest": epoch_digest(reference[0]),
        "error_rate": tally.failed / tally.attempted,
        "trace_log": os.path.relpath(log_path, ROOT),
        "multi_epoch_check_failed": check,
    }
    return metrics, info


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no loader sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from harness import Tally
    from inputs import WORKLOADS, make_inputs

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"perfbench: unknown workload {args.workload!r}; choose from "
            f"{', '.join(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    inputs = make_inputs(workload, args.seed)
    tally = Tally()
    listed = listed_metrics("per_layer" if args.trace else "end_to_end")
    if args.trace:
        metrics, info = per_layer(workload, inputs, args.seed, tally, listed)
    else:
        metrics, info = end_to_end(workload, inputs, args.seed, args.seconds, tally)

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}")
    print(f"  input digest {inputs.digest}  ({len(inputs.blobs)} blobs)")
    for key, value in info.items():
        print(f"  {key} {value}")
    for note in tally.notes:
        print(f"  failure: {note}")
    for name, entry in metrics.items():
        ungated = "" if name in listed else " (ungated, see perfbench/README.md)"
        print(
            f"  {name:40s} {entry['value']:14.6g} {entry['unit']:6s} "
            f"n={entry['count']:<5d} {entry['note']}{ungated}"
        )
    # Loaders with shm start the multiprocessing resource tracker; stop it
    # and wait for it, so no process outlives the run.
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and hasattr(tracker, "_stop"):
        tracker._stop()
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": metrics[name]["value"], "unit": unit}
            for name, unit in listed.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

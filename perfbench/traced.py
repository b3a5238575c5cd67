"""The traced run: per-layer numbers and the layer ledger.

Per-layer numbers come from one production run with LotusTrace on,
kept apart from the untraced timed runs. Two sources feed it:

* the loader's own records ([T1], [T2], [T3] per op including
  ``Loader`` and ``Collation``, ``batch_transport``, ``cache_stats``,
  ``sched``), read through ``ColumnarTraceAnalysis``;
* timers of the benchmark's own around public calls the trace does not
  cover: blob-store reads (a counting wrapper around the sequence handed
  to ``BlobImageDataset``) and the consumer's ``next()``.

Records carry no epoch, and a persistent loader reuses batch ids every
epoch, so the log's lines are split by the epoch boundaries the harness
timed before they are parsed and analysed.

Traced epochs alternate with epochs of an identical untraced loader,
whose blobs go through the same read counter, so the tracing slowdown
compares epochs that share the run's conditions and costs.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from typing import Dict, List, Sequence, Tuple

import numpy as np

from harness import (
    PRODUCTION, Epoch, Tally, blob_source, make_loader, run_epoch,
)
from inputs import Inputs, Workload
from repro.core.lotustrace import (
    ColumnarTraceAnalysis,
    out_of_order_events,
    parse_trace_bytes,
)
from repro.core.lotustrace.records import COLLATION_OP_NAME
from repro.data.dataset import LOADER_OP_NAME

TRANSFORM_OPS = ("RandomResizedCrop", "RandomHorizontalFlip", "ToTensor", "Normalize")
#: Traced (and as many untraced) timed epochs per loader, after one
#: cold epoch each; fewer than ``LOADER_EPOCHS`` in all.
TRACED_EPOCHS = 3


class CountingBlobs(Sequence):
    """Counts reads, bytes and busy seconds of a blob sequence.

    The counters live in a shared array created before the loader forks
    its workers, so reads in every worker process add to the same totals.
    """

    def __init__(self, blobs: Sequence[bytes]) -> None:
        self._blobs = blobs
        self.counters = multiprocessing.Array("d", 3)

    def __len__(self) -> int:
        return len(self._blobs)

    def __getitem__(self, index: int) -> bytes:
        start = time.perf_counter()
        blob = self._blobs[index]
        busy = time.perf_counter() - start
        with self.counters.get_lock():
            self.counters[0] += 1
            self.counters[1] += len(blob)
            self.counters[2] += busy
        return blob

    def snapshot(self) -> np.ndarray:
        with self.counters.get_lock():
            return np.array(self.counters[:])


def split_log(data: bytes, epochs: List[Epoch]) -> List[bytes]:
    """Each epoch's log lines: those whose record started inside it.
    ``start_ns`` is the third field from the end of a line."""
    lines = data.splitlines(keepends=True)
    starts = np.array([int(line.rsplit(b",", 3)[1]) for line in lines])
    return [
        b"".join(
            lines[row] for row in np.flatnonzero(
                (starts >= epoch.start_ns) & (starts < epoch.end_ns)
            )
        )
        for epoch in epochs
    ]


def _ns(values) -> float:
    return float(np.sum(values)) / 1e9


def epoch_totals(analysis: ColumnarTraceAnalysis) -> Dict[str, float]:
    """One epoch's layer totals from its trace (seconds unless noted)."""
    ops = analysis.op_total_cpu_ns()
    cache = analysis.cache_stats()
    transport = analysis.transport_stats()
    sched = analysis.sched_stats()
    waits = analysis.wait_times_ns()
    flows = analysis.batches.values()
    totals = {
        "decode.busy_s": ops.get(LOADER_OP_NAME, 0) / 1e9,
        "cache.hits": sum(stats.hits for stats in cache.values()),
        "cache.misses": sum(stats.misses for stats in cache.values()),
        "cache.evictions": sum(stats.evictions for stats in cache.values()),
        "collate.busy_s": ops.get(COLLATION_OP_NAME, 0) / 1e9,
        "transport.bytes": sum(s.payload_bytes for s in transport.values()),
        "transport.copies": sum(s.copies for s in transport.values()),
        "publish.busy_s": sum(s.publish_time_ns for s in transport.values()) / 1e9,
        "sched.steals": sum(s.steals for s in sched.values()),
        "sched.depth_total": sum(s.total_queue_depth for s in sched.values()),
        "sched.batches": sum(s.batches for s in sched.values()),
        "sched.ooo": len(out_of_order_events(analysis)),
        "main.batches": len(waits),
        "worker.busy_s": _ns(analysis.preprocess_times_ns()),
        "main.wait_s": _ns(waits),
        "main.consume_s": _ns([f.consumed.duration_ns for f in flows if f.consumed]),
    }
    for op in TRANSFORM_OPS:
        totals[f"transform.{op}.busy_s"] = ops.get(op, 0) / 1e9
    return totals


def layer_metrics(
    epochs: List[Tuple[Epoch, np.ndarray, Dict[str, float]]], num_workers: int
) -> Dict[str, float]:
    """Per-layer metrics from each traced epoch's timing, fetch counts
    (reads, bytes, busy seconds) and trace totals, each a mean per
    traced epoch (shares are ratios of the summed totals)."""
    totals: Dict[str, float] = {}
    wall = consumer = 0.0
    for epoch, fetch, trace in epochs:
        wall += epoch.seconds
        consumer += epoch.seconds - sum(epoch.waits)
        row = dict(trace)
        row["fetch.reads"], row["fetch.bytes"], row["fetch.busy_s"] = fetch
        # Every read decodes unless the cache served it.
        cached = trace["cache.hits"] + trace["cache.misses"]
        row["decode.images"] = trace["cache.misses"] if cached else fetch[0]
        for name, value in row.items():
            totals[name] = totals.get(name, 0.0) + value

    metrics = {name: value / len(epochs) for name, value in totals.items()}
    hits, misses = totals["cache.hits"], totals["cache.misses"]
    metrics["cache.hit_share"] = hits / (hits + misses) if hits + misses else 0.0
    batches = totals["sched.batches"]
    metrics["sched.depth_mean"] = totals["sched.depth_total"] / batches if batches else 0.0
    metrics["sched.ooo_share"] = totals["sched.ooo"] / totals["main.batches"] if totals["main.batches"] else 0.0
    metrics["fetch.worker_share"] = totals["fetch.busy_s"] / totals["worker.busy_s"]
    metrics["worker.busy_share"] = totals["worker.busy_s"] / (num_workers * wall)
    metrics["main.wait_share"] = totals["main.wait_s"] / wall
    # Ledger. The worker layers run inside [T1] except publish, which
    # follows it; the main thread's time is [T2] wait, the loader's
    # consume bookkeeping, and the consumer's own time outside next().
    worker_layers = (
        totals["fetch.busy_s"] + totals["decode.busy_s"] + totals["collate.busy_s"]
        + sum(totals[f"transform.{op}.busy_s"] for op in TRANSFORM_OPS)
        + totals["publish.busy_s"]
    )
    worker_total = totals["worker.busy_s"] + totals["publish.busy_s"]
    metrics["ledger.worker_unattributed_share"] = 1.0 - worker_layers / worker_total
    main_layers = totals["main.wait_s"] + totals["main.consume_s"] + consumer
    metrics["ledger.main_unattributed_share"] = 1.0 - main_layers / wall
    for helper in ("sched.depth_total", "sched.batches", "sched.ooo", "main.batches"):
        del metrics[helper]
    return metrics


def traced_run(
    workload: Workload, inputs: Inputs, seed: int, log_path: str,
    reference: List[List[list]], tally: Tally,
) -> Dict[str, float]:
    """Alternate traced and untraced production epochs; return the
    per-layer metrics, the tracing slowdown and the trace's own cost."""
    if os.path.exists(log_path):
        os.unlink(log_path)
    blobs = CountingBlobs(blob_source(workload, inputs))
    traced = make_loader(PRODUCTION, workload, inputs, seed, blobs=blobs, log_file=log_path)
    plain = make_loader(
        PRODUCTION, workload, inputs, seed,
        blobs=CountingBlobs(blob_source(workload, inputs)),
    )
    timed = []
    on = off = 0.0
    for index in range(TRACED_EPOCHS + 1):
        for loader, label in ((traced, "traced"), (plain, "untraced")):
            before = blobs.snapshot()
            epoch = run_epoch(loader)
            tally.epoch(f"{label}[{index}]", epoch, len(loader), reference[index])
            if index == 0:
                continue
            if loader is traced:
                on += epoch.seconds
                timed.append((epoch, blobs.snapshot() - before))
            else:
                off += epoch.seconds
    traced.close()
    plain.close()
    tally.closed("traced")
    with open(log_path, "rb") as handle:
        slices = split_log(handle.read(), [epoch for epoch, _ in timed])
    epochs = []
    analyse_s = []
    for (epoch, fetch), data in zip(timed, slices):
        # The trace's own cost: the public columnar parse plus analysis
        # of one epoch's lines.
        start = time.perf_counter()
        totals = epoch_totals(ColumnarTraceAnalysis(parse_trace_bytes(data)))
        analyse_s.append(time.perf_counter() - start)
        epochs.append((epoch, fetch, totals))
    metrics = layer_metrics(epochs, traced.num_workers)
    metrics["trace.analyze_s"] = float(np.mean(analyse_s))
    metrics["trace.records"] = float(np.mean([data.count(b"\n") for data in slices]))
    metrics["trace.bytes"] = float(np.mean([len(data) for data in slices]))
    metrics["trace_slowdown"] = on / off
    return metrics

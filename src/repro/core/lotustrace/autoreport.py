"""Automated trace analysis — the paper's stated future work.

The conclusion of the paper lists "automated log analysis" as a planned
extension. This module implements it: given a LotusTrace log, produce a
structured diagnosis with the same reasoning the paper applies manually
in § V — bottleneck regime, out-of-order impact, per-operation ranking,
worker utilization balance, and provisioning hints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Union

import numpy as np

from repro.core.lotustrace.analysis import (
    ColumnarTraceAnalysis,
    TraceAnalysis,
    analyze_trace,
    out_of_order_events,
)
from repro.core.lotustrace.columns import KIND_CODE_PREPROCESSED, TraceColumns
from repro.core.lotustrace.records import (
    CACHE_PRIVATE,
    KIND_BATCH_PREPROCESSED,
    KIND_SAMPLE_RETRIED,
    KIND_SAMPLE_SKIPPED,
    KIND_WORKER_RESTART,
    SCHED_STATIC,
    TRANSPORT_PICKLE,
    TraceRecord,
    parse_cache_stats_name,
)
from repro.errors import TraceError
from repro.utils.timeunits import format_ns

SEVERITY_INFO = "info"
SEVERITY_NOTICE = "notice"
SEVERITY_WARNING = "warning"

#: Share of the trace span the consumer may spend blocked in [T2] waits
#: under ``scheduler="static"`` before the report recommends stealing
#: dispatch (DESIGN.md §12): past 10%, a straggler batch is stalling
#: replenish-on-consume often enough for idle workers to matter.
STATIC_WAIT_NOTICE_SHARE = 0.10

REGIME_PREPROCESSING = "preprocessing-bound"
REGIME_CONSUMER = "consumer-bound"
REGIME_BALANCED = "balanced"


@dataclass(frozen=True)
class Finding:
    """One automated observation about the trace."""

    severity: str
    category: str
    message: str

    def __str__(self) -> str:
        return f"[{self.severity}] {self.category}: {self.message}"


@dataclass
class TraceReport:
    """Structured diagnosis of one preprocessing trace."""

    regime: str
    n_batches: int
    findings: List[Finding] = field(default_factory=list)
    op_ranking: List[str] = field(default_factory=list)
    worker_busy_fraction: Dict[int, float] = field(default_factory=dict)

    def warnings(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == SEVERITY_WARNING]

    def format(self) -> str:
        lines = [
            f"batches analyzed: {self.n_batches}",
            f"regime: {self.regime}",
            "operation ranking (by total CPU time): " + ", ".join(self.op_ranking),
        ]
        if self.worker_busy_fraction:
            busy = ", ".join(
                f"w{worker}={fraction:.0%}"
                for worker, fraction in sorted(self.worker_busy_fraction.items())
            )
            lines.append(f"worker busy fractions: {busy}")
        lines.extend(str(finding) for finding in self.findings)
        return "\n".join(lines)


def _regime(analysis: TraceAnalysis) -> str:
    """Classify using median wait vs median delay.

    Long waits mean the consumer starves on preprocessing; long delays
    mean preprocessed batches queue behind the consumer (GPU in the
    paper's setting).
    """
    waits = analysis.wait_times_ns()
    delays = analysis.delay_times_ns()
    if not waits or not delays:
        return REGIME_BALANCED
    waits_sorted = sorted(waits)
    delays_sorted = sorted(delays)
    median_wait = waits_sorted[len(waits_sorted) // 2]
    median_delay = delays_sorted[len(delays_sorted) // 2]
    if median_wait > 2 * median_delay:
        return REGIME_PREPROCESSING
    if median_delay > 2 * median_wait:
        return REGIME_CONSUMER
    return REGIME_BALANCED


def _worker_busy_fractions(
    records: Iterable[TraceRecord],
) -> Dict[int, float]:
    """Fraction of the trace span each worker spent inside fetch."""
    fetches: Dict[int, int] = {}
    t_min: Optional[int] = None
    t_max: Optional[int] = None
    for record in records:
        if record.kind != KIND_BATCH_PREPROCESSED or record.worker_id < 0:
            continue
        fetches[record.worker_id] = (
            fetches.get(record.worker_id, 0) + record.duration_ns
        )
        t_min = record.start_ns if t_min is None else min(t_min, record.start_ns)
        t_max = record.end_ns if t_max is None else max(t_max, record.end_ns)
    if t_min is None or t_max is None or t_max <= t_min:
        return {}
    span = t_max - t_min
    return {worker: busy / span for worker, busy in fetches.items()}


def _worker_busy_fractions_columns(cols: TraceColumns) -> Dict[int, float]:
    """Vectorized :func:`_worker_busy_fractions` over columns.

    Same integer sums and the same final int/int division, so the
    fractions are bit-identical to the record loop's.
    """
    mask = (cols.kind == KIND_CODE_PREPROCESSED) & (cols.worker_id >= 0)
    if not mask.any():
        return {}
    workers = cols.worker_id[mask]
    durations = cols.duration_ns[mask]
    starts = cols.start_ns[mask]
    t_min = int(starts.min())
    t_max = int((starts + durations).max())
    if t_max <= t_min:
        return {}
    span = t_max - t_min
    order = np.argsort(workers, kind="stable")
    workers_sorted = workers[order]
    bounds = np.flatnonzero(np.r_[True, workers_sorted[1:] != workers_sorted[:-1]])
    totals = np.add.reduceat(durations[order], bounds)
    return {
        int(worker): int(busy) / span
        for worker, busy in zip(workers_sorted[bounds].tolist(), totals.tolist())
    }


def _trace_span_ns(records: Union[List[TraceRecord], TraceColumns]) -> int:
    """Wall-clock span covered by the trace (first start to last end)."""
    if isinstance(records, TraceColumns):
        if len(records.start_ns) == 0:
            return 0
        ends = records.start_ns + records.duration_ns
        return int(ends.max() - records.start_ns.min())
    t_min: Optional[int] = None
    t_max: Optional[int] = None
    for record in records:
        t_min = record.start_ns if t_min is None else min(t_min, record.start_ns)
        t_max = record.end_ns if t_max is None else max(t_max, record.end_ns)
    if t_min is None or t_max is None:
        return 0
    return t_max - t_min


def generate_report(
    records: Union[Iterable[TraceRecord], TraceColumns],
    wait_threshold_ns: Optional[int] = None,
    variance_warning_pct: float = 25.0,
) -> TraceReport:
    """Diagnose a trace and return a :class:`TraceReport`.

    Args:
        records: parsed LotusTrace records, or a columnar table from
            the vectorized parser / ``InMemoryTraceLog.columns()``.
        wait_threshold_ns: waits above this are flagged; default is 2x
            the median batch preprocessing time.
        variance_warning_pct: std-as-%-of-mean above which per-batch time
            variability is flagged (provisioning hazard, Takeaway 3).
    """
    if not isinstance(records, TraceColumns):
        records = list(records)
    analysis = analyze_trace(records)
    if analysis.num_batches() == 0:
        raise TraceError("trace contains no batch records")

    findings: List[Finding] = []
    regime = _regime(analysis)
    if regime == REGIME_PREPROCESSING:
        findings.append(
            Finding(
                SEVERITY_WARNING,
                "bottleneck",
                "the consumer waits on preprocessing for most batches; "
                "consider more DataLoader workers, offline preprocessing, "
                "or caching decoded inputs",
            )
        )
    elif regime == REGIME_CONSUMER:
        findings.append(
            Finding(
                SEVERITY_INFO,
                "bottleneck",
                "preprocessed batches queue behind the consumer (GPU-bound "
                "training); preprocessing capacity could be reduced",
            )
        )

    # Per-batch variance (Takeaway 3).
    summary = analysis.preprocess_summary()
    if summary.std_pct_of_mean > variance_warning_pct:
        findings.append(
            Finding(
                SEVERITY_WARNING,
                "variance",
                f"per-batch preprocessing time is highly variable "
                f"(std = {summary.std_pct_of_mean:.0f}% of mean, IQR = "
                f"{format_ns(summary.iqr)}); static resource provisioning "
                f"will under- or over-shoot",
            )
        )

    # Out-of-order arrivals (Takeaway 4).
    ooo = out_of_order_events(analysis)
    if ooo:
        worst = max(ooo, key=lambda event: event.delay_ns)
        fraction = len(ooo) / analysis.num_batches()
        severity = SEVERITY_WARNING if fraction > 0.25 else SEVERITY_NOTICE
        findings.append(
            Finding(
                severity,
                "out-of-order",
                f"{len(ooo)}/{analysis.num_batches()} batches arrived out of "
                f"order (worst sat ready for {format_ns(worst.delay_ns)}); "
                f"the shared data queue serializes consumption behind the "
                f"slowest outstanding batch",
            )
        )

    # Dominant operation.
    totals = analysis.op_total_cpu_ns()
    ranking = sorted(totals, key=totals.get, reverse=True)
    if ranking:
        top = ranking[0]
        total_cpu = sum(totals.values())
        share = totals[top] / total_cpu if total_cpu else 0.0
        if share > 0.5:
            findings.append(
                Finding(
                    SEVERITY_NOTICE,
                    "hot-operation",
                    f"{top} accounts for {share:.0%} of preprocessing CPU "
                    f"time; it is the optimization target",
                )
            )

    # Worker balance.
    if isinstance(analysis, ColumnarTraceAnalysis):
        busy = _worker_busy_fractions_columns(analysis.columns)
    elif isinstance(records, TraceColumns):
        busy = _worker_busy_fractions(records.to_records())
    else:
        busy = _worker_busy_fractions(records)
    if len(busy) > 1:
        values = list(busy.values())
        spread = max(values) - min(values)
        if spread > 0.3:
            findings.append(
                Finding(
                    SEVERITY_NOTICE,
                    "worker-imbalance",
                    f"worker busy fractions differ by {spread:.0%}; input "
                    f"size skew or index assignment is uneven "
                    f"(cf. SpeedyLoader-style load balancing)",
                )
            )

    # Long waits.
    threshold = (
        wait_threshold_ns
        if wait_threshold_ns is not None
        else int(2 * summary.median)
    )
    if threshold > 0 and analysis.wait_times_ns():
        frac_long = analysis.fraction_waits_over(threshold)
        if frac_long > 0.25:
            findings.append(
                Finding(
                    SEVERITY_NOTICE,
                    "long-waits",
                    f"{frac_long:.0%} of batches kept the consumer waiting "
                    f"longer than {format_ns(threshold)}",
                )
            )

    # Batch transport (DESIGN.md §10): traces without transport records
    # (single-process loaders, pre-§10 logs) produce no finding.
    transport = analysis.transport_stats()
    for stats in transport.values():
        mib = stats.payload_bytes / (1024.0 * 1024.0)
        findings.append(
            Finding(
                SEVERITY_INFO,
                "transport",
                f"{stats.batches} batches shipped over the {stats.transport} "
                f"carrier ({mib:.1f} MiB, {stats.copies} copies, publish "
                f"time {format_ns(stats.publish_time_ns)})",
            )
        )
    pickle_stats = transport.get(TRANSPORT_PICKLE)
    if pickle_stats is not None and pickle_stats.payload_bytes > 0:
        findings.append(
            Finding(
                SEVERITY_NOTICE,
                "transport",
                f"the process backend pickled "
                f"{pickle_stats.payload_bytes / (1024.0 * 1024.0):.1f} MiB "
                f"of batch payload through multiprocessing queues; "
                f"transport='shm' ships descriptors over shared-memory "
                f"slabs and removes the serialize/deserialize tax",
            )
        )

    # Decoded-sample cache (DESIGN.md §11): traces without cache records
    # (no CachingLoader) produce no finding.
    cache = analysis.cache_stats()
    for stats in cache.values():
        pinned_mib = stats.max_pinned_bytes / (1024.0 * 1024.0)
        findings.append(
            Finding(
                SEVERITY_INFO,
                "decode-cache",
                f"the {stats.mode} decoded-sample cache served "
                f"{stats.hits} hits / {stats.misses} misses "
                f"({stats.hit_rate:.0%} hit rate, "
                f"{stats.cross_worker_hits} cross-worker) over "
                f"{stats.batches} batches, with {stats.evictions} "
                f"evictions and {pinned_mib:.1f} MiB peak pinned",
            )
        )
    if CACHE_PRIVATE in cache:
        private_workers = {
            record.worker_id
            for record in analysis.cache_records
            if parse_cache_stats_name(record.name)[0] == CACHE_PRIVATE
        }
        if len(private_workers) >= 2:
            findings.append(
                Finding(
                    SEVERITY_NOTICE,
                    "decode-cache",
                    f"{len(private_workers)} workers each keep a private "
                    f"decoded-sample cache, so the same image may be "
                    f"decoded once per worker; cache='shared' puts one "
                    f"arena in shared memory and decodes each image once "
                    f"per machine",
                )
            )

    # Batch scheduler (DESIGN.md §12): traces without sched records
    # (single-process loaders, pre-§12 logs) produce no finding.
    sched = analysis.sched_stats()
    for stats in sched.values():
        if stats.min_chosen_depth == stats.max_chosen_depth:
            depth = f"in-flight depth {stats.min_chosen_depth}"
        else:
            depth = (
                f"in-flight depth {stats.min_chosen_depth}-"
                f"{stats.max_chosen_depth}"
            )
        findings.append(
            Finding(
                SEVERITY_INFO,
                "scheduler",
                f"the {stats.mode} scheduler dispatched {stats.batches} "
                f"batches with {stats.steals} steals (queue depth mean "
                f"{stats.mean_queue_depth:.1f} / max "
                f"{stats.max_queue_depth}, {depth})",
            )
        )
    static_sched = sched.get(SCHED_STATIC)
    if static_sched is not None and static_sched.batches > 0:
        span = _trace_span_ns(records)
        wait_total = sum(analysis.wait_times_ns())
        if span > 0 and wait_total / span > STATIC_WAIT_NOTICE_SHARE:
            findings.append(
                Finding(
                    SEVERITY_NOTICE,
                    "scheduler",
                    f"the consumer spent {wait_total / span:.0%} of the "
                    f"epoch blocked in [T2] waits under scheduler="
                    f"'static'; replenish-on-consume lets one straggler "
                    f"freeze dispatch — scheduler='stealing' keeps "
                    f"idle workers fed and yields bit-identical batches",
                )
            )

    # Fault-tolerance activity (DESIGN.md §8): clean traces carry no
    # fault records, so these findings never appear for them.
    fault_counts = analysis.fault_counts()
    restarts = fault_counts.get(KIND_WORKER_RESTART, 0)
    skipped = fault_counts.get(KIND_SAMPLE_SKIPPED, 0)
    retried = fault_counts.get(KIND_SAMPLE_RETRIED, 0)
    if restarts:
        findings.append(
            Finding(
                SEVERITY_WARNING,
                "worker-restarts",
                f"{restarts} worker restart(s) during the epoch; replayed "
                f"batches inflate wait times and may hide systematic "
                f"worker crashes or hangs",
            )
        )
    if skipped:
        findings.append(
            Finding(
                SEVERITY_WARNING,
                "skipped-samples",
                f"{skipped} sample(s) dropped by the skip_sample policy; "
                f"epoch statistics cover fewer samples than the dataset",
            )
        )
    if retried:
        findings.append(
            Finding(
                SEVERITY_NOTICE,
                "sample-retries",
                f"{retried} per-sample retry(ies) absorbed transient input "
                f"faults; retry backoff is included in the affected "
                f"batches' preprocessing time",
            )
        )

    return TraceReport(
        regime=regime,
        n_batches=analysis.num_batches(),
        findings=findings,
        op_ranking=ranking,
        worker_busy_fraction=busy,
    )

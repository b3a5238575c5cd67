"""Span reconstruction from LotusTrace records.

A trace has three batch-level span families (paper § III-C):

* ``SBatchPreprocessed_idx`` — preprocessing of batch ``idx`` on a worker;
* ``SBatchWait_idx`` — the main process waiting for batch ``idx``;
* ``SBatchConsumed_idx`` — the main process consuming batch ``idx``;

plus per-operation ``S<TransformName>`` spans at the finer granularity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Union

from repro.core.lotustrace.columns import KIND_TO_CODE, TraceColumns
from repro.core.lotustrace.records import (
    KIND_BATCH_CONSUMED,
    KIND_BATCH_PREPROCESSED,
    KIND_BATCH_TRANSPORT,
    KIND_BATCH_WAIT,
    KIND_CACHE_STATS,
    KIND_OP,
    KIND_SAMPLE_RETRIED,
    KIND_SAMPLE_SKIPPED,
    KIND_SCHED,
    KIND_WORKER_HEARTBEAT,
    KIND_WORKER_RESTART,
    MAIN_PROCESS_WORKER_ID,
    TraceRecord,
)
from repro.errors import TraceError

_KIND_PREFIX = {
    KIND_BATCH_PREPROCESSED: "SBatchPreprocessed",
    KIND_BATCH_WAIT: "SBatchWait",
    KIND_BATCH_CONSUMED: "SBatchConsumed",
    # Fault-tolerance spans (DESIGN.md §8): zero-width markers on the
    # affected track, labeled like the batch spans so Chrome Trace sorts
    # them alongside the batch they interrupted.
    KIND_WORKER_RESTART: "SWorkerRestart",
    KIND_SAMPLE_SKIPPED: "SSampleSkipped",
    KIND_SAMPLE_RETRIED: "SSampleRetried",
    KIND_WORKER_HEARTBEAT: "SHeartbeat",
    # Batch hand-off spans (DESIGN.md §10): the worker-side publish cost
    # of moving one collated batch to the main process.
    KIND_BATCH_TRANSPORT: "SBatchTransport",
    # Decoded-sample cache accounting spans (DESIGN.md §11): zero-width
    # per-batch markers carrying the hit/miss deltas in their name.
    KIND_CACHE_STATS: "SCacheStats",
    # Batch-scheduler accounting spans (DESIGN.md §12): zero-width
    # per-yield markers on the main track carrying queue depth, steal
    # delta, and per-worker prefetch depth in their name.
    KIND_SCHED: "SSched",
}


def span_name_parts() -> Dict[int, str]:
    """Span-name prefixes keyed by numeric kind code (columnar emitter)."""
    return {KIND_TO_CODE[kind]: prefix for kind, prefix in _KIND_PREFIX.items()}


def span_name(record: TraceRecord) -> str:
    """The paper's span label for ``record``."""
    if record.kind == KIND_OP:
        return f"S{record.name}"
    try:
        prefix = _KIND_PREFIX[record.kind]
    except KeyError:
        raise TraceError(f"record kind has no span name: {record.kind!r}") from None
    return f"{prefix}_{record.batch_id}"


@dataclass(frozen=True)
class Span:
    """A visualizable span on a process track."""

    name: str
    track: str
    batch_id: int
    start_ns: int
    duration_ns: int
    kind: str
    out_of_order: bool = False

    @property
    def end_ns(self) -> int:
        return self.start_ns + self.duration_ns


def _track(record: TraceRecord) -> str:
    if record.worker_id == MAIN_PROCESS_WORKER_ID:
        return "main"
    return f"worker:{record.worker_id}"


def build_spans(
    records: Union[Iterable[TraceRecord], TraceColumns],
    include_ops: bool = True,
) -> List[Span]:
    """Convert records to spans, coarse (batch) or fine (batch + op).

    ``include_ops=False`` gives the paper's "coarse" visualization level;
    True adds the per-operation spans. A :class:`TraceColumns` table is
    accepted as well (rows materialize in line order, which the stable
    sort below puts into the same draw order as the record path).
    """
    if isinstance(records, TraceColumns):
        records = records.to_records()
    spans = []
    for record in sorted(records, key=lambda r: r.start_ns):
        if record.kind == KIND_OP and not include_ops:
            continue
        spans.append(
            Span(
                name=span_name(record),
                track=_track(record),
                batch_id=record.batch_id,
                start_ns=record.start_ns,
                duration_ns=record.duration_ns,
                kind=record.kind,
                out_of_order=record.out_of_order,
            )
        )
    return spans

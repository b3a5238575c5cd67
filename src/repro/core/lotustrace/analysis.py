"""Analysis over LotusTrace records: wait/delay times, variance, OOO events.

Implements the metrics behind the paper's evaluation:

* **wait time** — how long the main process was idle waiting for a
  preprocessed batch ([T2]; Figure 5a);
* **delay time** — how long a batch sat ready before being consumed
  (arrow length in Figure 2; Figure 5b);
* per-batch preprocessing time distributions (Figure 4, Table II);
* out-of-order arrival detection (Figure 3, Takeaway 4).

Two engines compute them (see :mod:`~repro.core.lotustrace.engine`):
the default columnar engine runs grouped numpy reductions over
:class:`~repro.core.lotustrace.columns.TraceColumns`; the records
engine walks ``TraceRecord`` lists and is retained as the parity
oracle. Both attribute op records to batches the same way: a
non-negative ``batch_id`` carried on the record wins, otherwise the op
is matched by time containment against the ``batch_preprocessed``
spans of its worker (bisection over spans sorted by start, using a
prefix maximum of span ends — equivalent to the first-match linear
scan, in O(log n) per op). Both fold the counter kinds (batch transport,
decoded-sample cache, scheduler) through one reduction table,
:data:`COUNTER_REDUCTIONS`.
"""

from __future__ import annotations

import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import (
    Any, ClassVar, Dict, Iterable, List, Optional, Sequence, Tuple, Union,
)

import numpy as np

from repro.core.lotustrace.columns import (
    KIND_CODE_CONSUMED,
    KIND_CODE_OP,
    KIND_CODE_PREPROCESSED,
    KIND_CODE_WAIT,
    TraceColumns,
)
from repro.core.lotustrace.engine import ENGINE_RECORDS, current_engine
from repro.core.lotustrace.records import (
    COUNTER_TAGS,
    FAULT_KIND_CODES,
    FAULT_KINDS,
    KIND_BATCH_CONSUMED,
    KIND_BATCH_PREPROCESSED,
    KIND_BATCH_TRANSPORT,
    KIND_BATCH_WAIT,
    KIND_CACHE_STATS,
    KIND_OP,
    KIND_SAMPLE_SKIPPED,
    KIND_SCHED,
    KIND_STRINGS,
    KIND_TO_CODE,
    TraceRecord,
    parse_counter_name,
)
from repro.errors import TraceError
from repro.utils.stats import Summary, fraction_below, summarize
from repro.utils.timeunits import format_ns

_MIB = 1024.0 * 1024.0


@dataclass
class BatchFlow:
    """The three records describing one batch's journey."""

    batch_id: int
    preprocessed: Optional[TraceRecord] = None
    wait: Optional[TraceRecord] = None
    consumed: Optional[TraceRecord] = None

    @property
    def preprocess_time_ns(self) -> Optional[int]:
        """[T1] — worker CPU-side elapsed time for this batch."""
        return self.preprocessed.duration_ns if self.preprocessed else None

    @property
    def wait_time_ns(self) -> Optional[int]:
        """[T2] — main-process wait (1 us marker when out of order)."""
        return self.wait.duration_ns if self.wait else None

    @property
    def delay_time_ns(self) -> Optional[int]:
        """Time between preprocessing finishing and consumption starting.

        Large delays with a GPU busy indicate a GPU bottleneck; large
        delays with the main process busy pinning other batches indicate
        the out-of-order effect of § V-C2.
        """
        if self.preprocessed is None or self.consumed is None:
            return None
        return max(0, self.consumed.start_ns - self.preprocessed.end_ns)

    @property
    def arrived_out_of_order(self) -> bool:
        return bool(self.wait and self.wait.out_of_order)


@dataclass(frozen=True)
class TransportStats:
    """Aggregated batch hand-off cost for one carrier mode (DESIGN.md §10)."""

    label: ClassVar[str] = "transport"

    transport: str
    batches: int
    payload_bytes: int
    copies: int
    publish_time_ns: int

    @property
    def bytes_per_batch(self) -> float:
        return self.payload_bytes / self.batches if self.batches else 0.0

    def describe(self) -> str:
        return (
            f"{self.batches} batches, {self.payload_bytes / _MIB:.1f} MiB, "
            f"{self.copies} copies, {format_ns(self.publish_time_ns)} publish"
        )


@dataclass(frozen=True)
class CacheTraceStats:
    """Aggregated decoded-sample cache activity for one cache mode
    (DESIGN.md §11): summed per-batch counters, peak pinned bytes."""

    label: ClassVar[str] = "cache"

    mode: str
    batches: int
    hits: int
    misses: int
    cross_worker_hits: int
    evictions: int
    max_pinned_bytes: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def describe(self) -> str:
        return (
            f"{self.hits} hits / {self.misses} misses "
            f"({self.hit_rate:.0%} hit rate, {self.cross_worker_hits} "
            f"cross-worker), {self.evictions} evictions, "
            f"{self.max_pinned_bytes / _MIB:.1f} MiB pinned peak"
        )


@dataclass(frozen=True)
class SchedTraceStats:
    """Aggregated batch-scheduler activity for one scheduler mode
    (DESIGN.md §12): summed steal deltas, queue-depth max and total, and
    the per-worker depth range (one point at ``prefetch_factor`` for
    current loaders)."""

    label: ClassVar[str] = "sched"

    mode: str
    batches: int
    steals: int
    max_queue_depth: int
    total_queue_depth: int
    min_chosen_depth: int
    max_chosen_depth: int

    @property
    def mean_queue_depth(self) -> float:
        return self.total_queue_depth / self.batches if self.batches else 0.0

    def describe(self) -> str:
        depth = f"depth {self.min_chosen_depth}"
        if self.min_chosen_depth != self.max_chosen_depth:
            depth += f"-{self.max_chosen_depth}"
        return (
            f"{self.batches} batches, {self.steals} steals, "
            f"queue mean {self.mean_queue_depth:.1f} / max "
            f"{self.max_queue_depth}, {depth}"
        )


#: Source of a stats field that is the records' summed ``duration_ns``
#: rather than a tag of their name.
DURATION = "duration_ns"

#: How each counter kind's stats fields reduce over its records:
#: ``(field, reduction, source)``, with ``source`` a name tag or
#: :data:`DURATION`. ``batches`` is always the record count.
COUNTER_REDUCTIONS = {
    KIND_BATCH_TRANSPORT: (TransportStats, (
        ("payload_bytes", "sum", "b"),
        ("copies", "sum", "c"),
        ("publish_time_ns", "sum", DURATION),
    )),
    KIND_CACHE_STATS: (CacheTraceStats, (
        ("hits", "sum", "h"),
        ("misses", "sum", "m"),
        ("cross_worker_hits", "sum", "x"),
        ("evictions", "sum", "e"),
        ("max_pinned_bytes", "max", "p"),
    )),
    KIND_SCHED: (SchedTraceStats, (
        ("steals", "sum", "s"),
        ("max_queue_depth", "max", "q"),
        ("total_queue_depth", "sum", "q"),
        ("min_chosen_depth", "min", "d"),
        ("max_chosen_depth", "max", "d"),
    )),
}

_REDUCE = {"sum": operator.add, "max": max, "min": min}

#: A run of same-named counter records: ``(name, count, duration_total)``.
CounterGroup = Tuple[str, int, int]


def fold_counter_groups(kind: str, groups: Iterable[CounterGroup]) -> Dict[str, Any]:
    """Per-mode stats of one counter kind, keyed by mode.

    Every record in a group has the group's name, so a tag contributes
    ``value * count`` to a sum and ``value`` to a min or max; the
    duration arrives already summed. Both engines call this: the records
    engine with one group per record, the columnar one with one group
    per interned name.
    """
    stats_cls, rows = COUNTER_REDUCTIONS[kind]
    tags = COUNTER_TAGS[kind]
    totals: Dict[str, List[Optional[int]]] = {}
    for name, count, duration_ns in groups:
        mode, *values = parse_counter_name(kind, name)
        by_tag = dict(zip(tags, values))
        acc = totals.get(mode)
        if acc is None:
            acc = totals[mode] = [0] + [None] * len(rows)
        acc[0] += count
        for i, (_, reduction, source) in enumerate(rows, 1):
            if source == DURATION:
                value = duration_ns
            elif reduction == "sum":
                value = by_tag[source] * count
            else:
                value = by_tag[source]
            acc[i] = value if acc[i] is None else _REDUCE[reduction](acc[i], value)
    return {
        mode: stats_cls(
            mode, acc[0], **{row[0]: value for row, value in zip(rows, acc[1:])}
        )
        for mode, acc in totals.items()
    }


#: Kinds that make up a batch's flow; every other non-op kind is
#: bookkeeping kept aside, since routing it into the flows would
#: fabricate phantom batches (e.g. batch -1).
_FLOW_KINDS = (KIND_BATCH_PREPROCESSED, KIND_BATCH_WAIT, KIND_BATCH_CONSUMED)
_BOOKKEEPING_KINDS = frozenset(KIND_STRINGS) - {KIND_OP, *_FLOW_KINDS}


def _check_non_flow(kind: str) -> None:
    if kind not in _BOOKKEEPING_KINDS:
        raise TraceError(f"not a bookkeeping record kind: {kind!r}")


@dataclass
class TraceAnalysis:
    """Aggregated view over one trace."""

    batches: Dict[int, BatchFlow]
    op_durations: Dict[str, List[int]]
    op_batch_ids: Dict[str, List[int]] = field(default_factory=dict)
    #: Fault (§8) and counter (§10-§12) records by kind, in record order.
    other_records: Dict[str, List[TraceRecord]] = field(default_factory=dict)

    # -- per-batch series ------------------------------------------------------
    def preprocess_times_ns(self) -> List[int]:
        return [
            flow.preprocess_time_ns
            for flow in self._ordered()
            if flow.preprocess_time_ns is not None
        ]

    def wait_times_ns(self) -> List[int]:
        return [
            flow.wait_time_ns
            for flow in self._ordered()
            if flow.wait_time_ns is not None
        ]

    def delay_times_ns(self) -> List[int]:
        return [
            flow.delay_time_ns
            for flow in self._ordered()
            if flow.delay_time_ns is not None
        ]

    def num_batches(self) -> int:
        """Number of distinct batch ids with any batch-level record."""
        return len(self.batches)

    def _ordered(self) -> List[BatchFlow]:
        return [self.batches[k] for k in sorted(self.batches)]

    # -- aggregates ----------------------------------------------------------
    def preprocess_summary(self) -> Summary:
        return summarize(self.preprocess_times_ns())

    def total_preprocess_cpu_ns(self) -> int:
        """Total worker CPU-seconds spent preprocessing (Figure 6b input)."""
        return sum(self.preprocess_times_ns())

    def fraction_waits_over(self, threshold_ns: int) -> float:
        """Fraction of batches whose main-process wait exceeded threshold."""
        waits = self.wait_times_ns()
        if not waits:
            raise TraceError("trace has no wait records")
        return 1.0 - fraction_below(waits, threshold_ns + 1)

    def fraction_delays_over(self, threshold_ns: int) -> float:
        """Fraction of batches delayed more than threshold after ready."""
        delays = self.delay_times_ns()
        if not delays:
            raise TraceError("trace has no complete batch flows")
        return 1.0 - fraction_below(delays, threshold_ns + 1)

    def op_summary(self, name: str) -> Summary:
        try:
            durations = self.op_durations[name]
        except KeyError:
            raise TraceError(f"no op records for {name!r}") from None
        return summarize(durations)

    def op_names(self) -> List[str]:
        return sorted(self.op_durations)

    def op_total_cpu_ns(self) -> Dict[str, int]:
        """Total CPU time per operation across the trace (Figure 6b/6e)."""
        return {name: sum(values) for name, values in self.op_durations.items()}

    # -- bookkeeping records: faults (§8) and counters (§10-§12) -------------
    def records_of(self, kind: str) -> List[TraceRecord]:
        """Records of one fault or counter kind, in record order."""
        _check_non_flow(kind)
        return self.other_records.get(kind, [])

    def fault_counts(self) -> Dict[str, int]:
        """Count of fault records per kind (kinds absent from the trace
        are absent from the dict, so clean traces give ``{}``)."""
        return {
            kind: len(records)
            for kind, records in self.other_records.items()
            if kind in FAULT_KINDS
        }

    def skipped_sample_indices(self) -> List[int]:
        """Dataset indices dropped by the ``skip_sample`` policy, in
        record order (the index rides in the record name, ``sample=N``)."""
        return [
            int(record.name.partition("=")[2])
            for record in self.records_of(KIND_SAMPLE_SKIPPED)
        ]

    def counter_stats(self, kind: str) -> Dict[str, Any]:
        """Per-mode stats of one counter kind (see
        :data:`COUNTER_REDUCTIONS`); ``{}`` when the trace has none."""
        return fold_counter_groups(kind, self._counter_groups(kind))

    def _counter_groups(self, kind: str) -> Iterable[CounterGroup]:
        # One group per record: the per-record oracle.
        return ((r.name, 1, r.duration_ns) for r in self.records_of(kind))

    def transport_stats(self) -> Dict[str, TransportStats]:
        """Per-carrier hand-off totals (DESIGN.md §10), by transport mode."""
        return self.counter_stats(KIND_BATCH_TRANSPORT)

    def cache_stats(self) -> Dict[str, CacheTraceStats]:
        """Per-mode decoded-sample cache totals (DESIGN.md §11)."""
        return self.counter_stats(KIND_CACHE_STATS)

    def sched_stats(self) -> Dict[str, SchedTraceStats]:
        """Per-mode scheduler totals (DESIGN.md §12)."""
        return self.counter_stats(KIND_SCHED)


class _SpanIndex:
    """Bisection index over one worker's fetch spans, sorted by start.

    ``containing_batch`` returns exactly what the first-match linear scan
    over start-sorted spans returns: with ``prefmax[i]`` the running
    maximum of span ends, the smallest ``i`` with
    ``prefmax[i] >= op.end_ns - 1`` is the first span satisfying the end
    condition (its own end *is* that prefix max), every earlier span
    fails it, and ``i <= j`` (``j`` the last span starting at or before
    the op) guarantees the start condition — spans after ``j`` fail it.
    """

    def __init__(self, spans: Sequence[TraceRecord]) -> None:
        self._starts = [span.start_ns for span in spans]
        self._batch_ids = [span.batch_id for span in spans]
        prefmax: List[int] = []
        running = None
        for span in spans:
            running = span.end_ns if running is None else max(running, span.end_ns)
            prefmax.append(running)
        self._prefmax = prefmax

    def containing_batch(self, op: TraceRecord) -> int:
        j = bisect_right(self._starts, op.start_ns) - 1
        if j < 0:
            return -1
        i = bisect_left(self._prefmax, op.end_ns - 1)
        return self._batch_ids[i] if i <= j else -1


_EMPTY_SPAN_INDEX = _SpanIndex(())


def _analyze_records(records: List[TraceRecord]) -> TraceAnalysis:
    """The record-list engine (parity oracle for the columnar path)."""
    batches: Dict[int, BatchFlow] = {}
    op_records: List[TraceRecord] = []
    other_records: Dict[str, List[TraceRecord]] = {}
    fetch_spans: Dict[int, List[TraceRecord]] = {}

    for record in records:
        if record.kind == KIND_OP:
            op_records.append(record)
            continue
        if record.kind not in _FLOW_KINDS:
            other_records.setdefault(record.kind, []).append(record)
            continue
        flow = batches.setdefault(record.batch_id, BatchFlow(record.batch_id))
        if record.kind == KIND_BATCH_PREPROCESSED:
            flow.preprocessed = record
            fetch_spans.setdefault(record.worker_id, []).append(record)
        elif record.kind == KIND_BATCH_WAIT:
            flow.wait = record
        elif record.kind == KIND_BATCH_CONSUMED:
            flow.consumed = record

    span_index = {
        worker: _SpanIndex(sorted(spans, key=lambda r: r.start_ns))
        for worker, spans in fetch_spans.items()
    }

    op_durations: Dict[str, List[int]] = {}
    op_batch_ids: Dict[str, List[int]] = {}
    for record in op_records:
        op_durations.setdefault(record.name, []).append(record.duration_ns)
        op_batch_ids.setdefault(record.name, []).append(
            record.batch_id
            if record.batch_id >= 0
            else span_index.get(
                record.worker_id, _EMPTY_SPAN_INDEX
            ).containing_batch(record)
        )
    return TraceAnalysis(
        batches=batches,
        op_durations=op_durations,
        op_batch_ids=op_batch_ids,
        other_records=other_records,
    )


def _containing_batch(op: TraceRecord, spans: Iterable[TraceRecord]) -> int:
    """Batch of the first start-ordered span containing ``op`` (or -1)."""
    ordered = sorted(spans, key=lambda r: r.start_ns)
    return _SpanIndex(ordered).containing_batch(op)


def _last_row_per_batch(cols: TraceColumns, code: int):
    """(sorted unique batch ids, row of the *last* record per batch).

    Matches the record engine's dict semantics, where a later record of
    the same kind and batch id overwrites an earlier one.
    """
    rows = np.flatnonzero(cols.kind == code)
    if rows.size == 0:
        return np.zeros(0, dtype=np.int64), rows
    ids = cols.batch_id[rows]
    order = np.argsort(ids, kind="stable")
    ids_sorted = ids[order]
    last = np.flatnonzero(np.r_[ids_sorted[1:] != ids_sorted[:-1], True])
    return ids_sorted[last], rows[order[last]]


class ColumnarTraceAnalysis(TraceAnalysis):
    """Vectorized :class:`TraceAnalysis` over :class:`TraceColumns`.

    The per-batch table, op grouping, and op→batch attribution are
    grouped numpy reductions; ``batches`` / ``op_durations`` /
    ``op_batch_ids`` are materialized lazily (and cached) only when a
    consumer actually asks for the record-shaped dicts.
    """

    def __init__(self, columns: TraceColumns) -> None:
        self.columns = columns
        # Unique non-op batch ids (sorted) with the last pre/wait/consume
        # row per batch aligned to them (-1 = missing).
        pre_b, pre_r = _last_row_per_batch(columns, KIND_CODE_PREPROCESSED)
        wait_b, wait_r = _last_row_per_batch(columns, KIND_CODE_WAIT)
        cons_b, cons_r = _last_row_per_batch(columns, KIND_CODE_CONSUMED)
        ubatch = np.unique(np.concatenate((pre_b, wait_b, cons_b)))
        self._ubatch = ubatch

        def align(ids, rows):
            aligned = np.full(ubatch.shape, -1, dtype=np.int64)
            aligned[np.searchsorted(ubatch, ids)] = rows
            return aligned

        self._pre_row = align(pre_b, pre_r)
        self._wait_row = align(wait_b, wait_r)
        self._cons_row = align(cons_b, cons_r)

        # Op rows grouped by interned name (stable: record order within).
        op_rows = np.flatnonzero(columns.kind == KIND_CODE_OP)
        name_ids = columns.name_id[op_rows]
        n_names = len(columns.names)
        if op_rows.size and n_names <= 64:
            # Counting-group: one boolean scan per interned name beats a
            # full stable argsort when the name table is small (it
            # always is — names are transform class names).
            groups = [
                np.flatnonzero(name_ids == nid) for nid in range(n_names)
            ]
            order = np.concatenate([g for g in groups if g.size])
        else:
            order = np.argsort(name_ids, kind="stable")
        self._op_rows_sorted = op_rows[order]
        names_sorted = name_ids[order]
        if op_rows.size:
            starts = np.flatnonzero(
                np.r_[True, names_sorted[1:] != names_sorted[:-1]]
            )
        else:
            starts = np.zeros(0, dtype=np.int64)
        self._op_group_starts = starts
        self._op_group_names = [
            columns.names[nid] for nid in names_sorted[starts].tolist()
        ]
        self._op_resolved_sorted = self._attribute_ops(op_rows)[order]

    # -- attribution -----------------------------------------------------------
    def _attribute_ops(self, op_rows: np.ndarray) -> np.ndarray:
        """Batch id per op row (aligned with ``op_rows``): a carried
        non-negative id wins, else searchsorted containment against the
        worker's start-sorted fetch spans (prefix-max of ends)."""
        cols = self.columns
        resolved = cols.batch_id[op_rows].copy()
        need = np.flatnonzero(resolved < 0)
        if need.size == 0:
            return resolved
        pre_rows = np.flatnonzero(cols.kind == KIND_CODE_PREPROCESSED)
        if pre_rows.size == 0:
            resolved[need] = -1
            return resolved
        # Sort spans by (worker, start) keeping record order on ties.
        span_order = np.lexsort(
            (np.arange(pre_rows.size), cols.start_ns[pre_rows],
             cols.worker_id[pre_rows])
        )
        spans = pre_rows[span_order]
        span_worker = cols.worker_id[spans]
        span_start = cols.start_ns[spans]
        span_end = cols.start_ns[spans] + cols.duration_ns[spans]
        span_batch = cols.batch_id[spans]
        workers, wstarts = np.unique(span_worker, return_index=True)
        wbounds = np.r_[wstarts, span_worker.size]

        rows = op_rows[need]
        op_worker = cols.worker_id[rows]
        op_start = cols.start_ns[rows]
        op_end = op_start + cols.duration_ns[rows]
        result = np.full(need.shape, -1, dtype=np.int64)
        # Group the unresolved ops by worker and bisect per group; the
        # python loop is over distinct workers, not ops. With the usual
        # handful of workers one boolean scan per worker is cheaper than
        # a stable argsort of every unresolved op.
        if workers.size <= 64:
            selections = [
                np.flatnonzero(op_worker == w) for w in workers.tolist()
            ]
        else:
            op_order = np.argsort(op_worker, kind="stable")
            ow_sorted = op_worker[op_order]
            group_lo = np.searchsorted(ow_sorted, workers, side="left")
            group_hi = np.searchsorted(ow_sorted, workers, side="right")
            selections = [
                op_order[group_lo[widx]: group_hi[widx]]
                for widx in range(workers.size)
            ]
        for widx in range(workers.size):
            sel = selections[widx]
            if sel.size == 0:
                continue
            lo, hi = wbounds[widx], wbounds[widx + 1]
            starts = span_start[lo:hi]
            prefmax = np.maximum.accumulate(span_end[lo:hi])
            j = np.searchsorted(starts, op_start[sel], side="right") - 1
            i = np.searchsorted(prefmax, op_end[sel] - 1, side="left")
            hit = (i <= j) & (j >= 0)
            result[sel[hit]] = span_batch[lo:hi][i[hit]]
        resolved[need] = result
        return resolved

    # -- lazy record-shaped views ---------------------------------------------
    @property
    def batches(self) -> Dict[int, BatchFlow]:  # type: ignore[override]
        cached = self.__dict__.get("_batches_cache")
        if cached is None:
            cols = self.columns
            cached = {}
            for bid, pre, wait, cons in zip(
                self._ubatch.tolist(), self._pre_row.tolist(),
                self._wait_row.tolist(), self._cons_row.tolist(),
            ):
                cached[bid] = BatchFlow(
                    bid,
                    preprocessed=cols.record_at(pre) if pre >= 0 else None,
                    wait=cols.record_at(wait) if wait >= 0 else None,
                    consumed=cols.record_at(cons) if cons >= 0 else None,
                )
            self.__dict__["_batches_cache"] = cached
        return cached

    @property
    def op_durations(self) -> Dict[str, List[int]]:  # type: ignore[override]
        cached = self.__dict__.get("_op_durations_cache")
        if cached is None:
            durations = self.columns.duration_ns[self._op_rows_sorted]
            bounds = np.r_[self._op_group_starts, self._op_rows_sorted.size]
            cached = {
                name: durations[bounds[g]: bounds[g + 1]].tolist()
                for g, name in enumerate(self._op_group_names)
            }
            self.__dict__["_op_durations_cache"] = cached
        return cached

    @property
    def op_batch_ids(self) -> Dict[str, List[int]]:  # type: ignore[override]
        cached = self.__dict__.get("_op_batch_ids_cache")
        if cached is None:
            bounds = np.r_[self._op_group_starts, self._op_rows_sorted.size]
            cached = {
                name: self._op_resolved_sorted[bounds[g]: bounds[g + 1]].tolist()
                for g, name in enumerate(self._op_group_names)
            }
            self.__dict__["_op_batch_ids_cache"] = cached
        return cached

    def records_of(self, kind: str) -> List[TraceRecord]:
        _check_non_flow(kind)
        cache = self.__dict__.setdefault("_records_of_cache", {})
        cached = cache.get(kind)
        if cached is None:
            cols = self.columns
            rows = np.flatnonzero(cols.kind == KIND_TO_CODE[kind])
            cached = cache[kind] = [cols.record_at(row) for row in rows.tolist()]
        return cached

    def _counter_groups(self, kind: str) -> Iterable[CounterGroup]:
        """One group per interned name: counts and summed durations by
        ``np.bincount`` over name ids, so each distinct name parses once."""
        cols = self.columns
        rows = np.flatnonzero(cols.kind == KIND_TO_CODE[kind])
        if rows.size == 0:
            return ()
        name_ids = cols.name_id[rows]
        counts = np.bincount(name_ids, minlength=len(cols.names))
        durations = np.bincount(
            name_ids, weights=cols.duration_ns[rows].astype(np.float64),
            minlength=len(cols.names),
        ).astype(np.int64)
        return [
            (cols.names[nid], int(counts[nid]), int(durations[nid]))
            for nid in np.flatnonzero(counts).tolist()
        ]

    def fault_counts(self) -> Dict[str, int]:
        counts = np.bincount(self.columns.kind, minlength=len(KIND_STRINGS))
        return {
            KIND_STRINGS[code]: int(counts[code])
            for code in FAULT_KIND_CODES
            if counts[code]
        }

    # -- vectorized series -----------------------------------------------------
    def num_batches(self) -> int:
        return int(self._ubatch.size)

    def preprocess_times_ns(self) -> List[int]:
        rows = self._pre_row[self._pre_row >= 0]
        return self.columns.duration_ns[rows].tolist()

    def wait_times_ns(self) -> List[int]:
        rows = self._wait_row[self._wait_row >= 0]
        return self.columns.duration_ns[rows].tolist()

    def delay_times_ns(self) -> List[int]:
        have = (self._pre_row >= 0) & (self._cons_row >= 0)
        pre = self._pre_row[have]
        cons = self._cons_row[have]
        cols = self.columns
        ready = cols.start_ns[pre] + cols.duration_ns[pre]
        delays = np.maximum(cols.start_ns[cons] - ready, 0)
        return delays.tolist()

    def op_names(self) -> List[str]:
        return sorted(self._op_group_names)

    def op_total_cpu_ns(self) -> Dict[str, int]:
        if self._op_rows_sorted.size == 0:
            return {}
        durations = self.columns.duration_ns[self._op_rows_sorted]
        totals = np.add.reduceat(durations, self._op_group_starts)
        return dict(zip(self._op_group_names, totals.tolist()))

    def total_preprocess_cpu_ns(self) -> int:
        rows = self._pre_row[self._pre_row >= 0]
        return int(self.columns.duration_ns[rows].sum())

    # -- OOO (consumed by out_of_order_events) ---------------------------------
    def _ooo_events(self) -> List["OutOfOrderEvent"]:
        cols = self.columns
        has_wait = self._wait_row >= 0
        ooo = np.zeros(self._ubatch.shape, dtype=bool)
        ooo[has_wait] = cols.out_of_order[self._wait_row[has_wait]]
        events = []
        for idx in np.flatnonzero(ooo).tolist():
            pre, wait, cons = (
                int(self._pre_row[idx]),
                int(self._wait_row[idx]),
                int(self._cons_row[idx]),
            )
            ready = (
                int(cols.start_ns[pre] + cols.duration_ns[pre]) if pre >= 0 else 0
            )
            delay = 0
            if pre >= 0 and cons >= 0:
                delay = max(0, int(cols.start_ns[cons]) - ready)
            events.append(
                OutOfOrderEvent(
                    batch_id=int(self._ubatch[idx]),
                    ready_ns=ready,
                    requested_ns=int(cols.start_ns[wait]),
                    delay_ns=delay,
                )
            )
        return events


TraceInput = Union[Iterable[TraceRecord], TraceColumns]


def analyze_trace(records: TraceInput) -> TraceAnalysis:
    """Build a :class:`TraceAnalysis` from raw records or columns.

    Accepts a :class:`TraceColumns` table (from the vectorized parser or
    ``InMemoryTraceLog.columns()``) or any iterable of records. The
    active :func:`~repro.core.lotustrace.engine.analysis_engine` decides
    which implementation runs; both return the same analysis.

    Op records are associated to batches by their carried ``batch_id``
    when non-negative (e.g. collation, which runs with the batch id in
    scope), otherwise by time containment within a
    ``batch_preprocessed`` span on the same worker — transforms inside
    ``Compose.__call__`` do not know their batch id.
    """
    if isinstance(records, TraceColumns):
        if current_engine() == ENGINE_RECORDS:
            return _analyze_records(records.to_records())
        # Memoize on the (immutable once built) columns table: the CLI
        # path analyzes and then reports on the same parse, and the
        # report re-enters analyze_trace. The records oracle above is
        # deliberately not cached — it must stay an independent check.
        cached = getattr(records, "_analysis_cache", None)
        if cached is None:
            cached = ColumnarTraceAnalysis(records)
            records._analysis_cache = cached
        return cached
    records = records if isinstance(records, list) else list(records)
    if current_engine() == ENGINE_RECORDS:
        return _analyze_records(records)
    return ColumnarTraceAnalysis(TraceColumns.from_records(records))


@dataclass(frozen=True)
class OutOfOrderEvent:
    """A batch that was ready before the main process asked for it."""

    batch_id: int
    ready_ns: int
    requested_ns: int
    delay_ns: int


def out_of_order_events(analysis: TraceAnalysis) -> List[OutOfOrderEvent]:
    """Batches whose wait record carries the out-of-order marker."""
    if isinstance(analysis, ColumnarTraceAnalysis):
        return analysis._ooo_events()
    events = []
    for flow in analysis._ordered():
        if not flow.arrived_out_of_order:
            continue
        ready = flow.preprocessed.end_ns if flow.preprocessed else 0
        requested = flow.wait.start_ns if flow.wait else 0
        events.append(
            OutOfOrderEvent(
                batch_id=flow.batch_id,
                ready_ns=ready,
                requested_ns=requested,
                delay_ns=flow.delay_time_ns or 0,
            )
        )
    return events


def per_op_stats(records: TraceInput) -> Dict[str, Summary]:
    """Per-operation elapsed-time summaries (Table II rows)."""
    return {
        name: summarize(durations)
        for name, durations in analyze_trace(records).op_durations.items()
    }

"""LotusTrace record model.

Each record is one instrumentation event: a per-image transform ([T3]), a
per-batch preprocessing span ([T1]), a main-process wait ([T2]), or a
batch consumption marker. Records are written as single CSV lines so the
per-log overhead stays at two timestamps plus one formatted write.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import TraceError
from repro.utils.timeunits import NS_PER_US

KIND_OP = "op"
KIND_BATCH_PREPROCESSED = "batch_preprocessed"
KIND_BATCH_WAIT = "batch_wait"
KIND_BATCH_CONSUMED = "batch_consumed"

# Fault-tolerance record kinds (DESIGN.md §8). Clean runs never emit
# them, so pre-existing traces and the [T1]/[T2]/[T3] hot paths are
# untouched; fault-injected runs carry their recovery history in-band.
KIND_WORKER_RESTART = "worker_restart"
KIND_SAMPLE_SKIPPED = "sample_skipped"
KIND_SAMPLE_RETRIED = "sample_retried"
KIND_WORKER_HEARTBEAT = "heartbeat"

# Batch-transport record kind (DESIGN.md §10): one record per batch
# hand-off from a worker to the main process, carrying the carrier mode,
# payload bytes, and copy count in the name field (see
# :func:`format_transport_name`). Emitted by multi-worker loaders on
# every backend so per-backend transport cost is directly comparable.
KIND_BATCH_TRANSPORT = "batch_transport"

# Decoded-sample cache record kind (DESIGN.md §11): one record per batch
# from every carrier (process/thread workers and the single-process
# iterator) when the loader runs with ``cache=`` enabled, carrying the
# cache mode and this batch's hit/miss/cross-hit/eviction deltas plus
# the arena's pinned-byte gauge in the name field (see
# :func:`format_cache_stats_name`).
KIND_CACHE_STATS = "cache_stats"

# Batch-scheduler record kind (DESIGN.md §12): one record per *yielded*
# batch, emitted by the main process under every scheduler mode
# (``static`` included, so the autoreport can tell a straggler-bound
# static run from one that already steals). The scheduler mode, the
# dispatched-but-unconsumed queue depth after the yield, this yield's
# steal delta, and the per-worker prefetch depth ride in the name field
# (see :func:`format_sched_name`).
KIND_SCHED = "sched"

#: Record kinds emitted only by the fault-tolerance layer.
FAULT_KINDS = frozenset(
    (
        KIND_WORKER_RESTART,
        KIND_SAMPLE_SKIPPED,
        KIND_SAMPLE_RETRIED,
        KIND_WORKER_HEARTBEAT,
    )
)

_KINDS = (
    frozenset(
        (KIND_OP, KIND_BATCH_PREPROCESSED, KIND_BATCH_WAIT, KIND_BATCH_CONSUMED)
    )
    | FAULT_KINDS
    | frozenset((KIND_BATCH_TRANSPORT, KIND_CACHE_STATS, KIND_SCHED))
)

#: Transport-mode tokens carried in ``batch_transport`` record names.
TRANSPORT_INLINE = "inline"
TRANSPORT_PICKLE = "pickle"
TRANSPORT_SHM = "shm"


def format_transport_name(transport: str, payload_bytes: int, copies: int) -> str:
    """Encode a transport record's payload into the record name field.

    The CSV record schema has no spare integer columns, so the carrier
    mode, bytes moved, and copy count ride in the name as
    ``mode;b<bytes>;c<copies>`` — comma-free, so the line format and
    both parsers are untouched. Names intern well in the columnar
    store: a steady-state epoch produces one name per (mode, batch
    shape), not one per record.
    """
    return f"{transport};b{int(payload_bytes)};c{int(copies)}"


def parse_transport_name(name: str) -> "tuple[str, int, int]":
    """Decode ``(transport, payload_bytes, copies)`` from a record name.

    Raises :class:`TraceError` on names not produced by
    :func:`format_transport_name`.
    """
    parts = name.split(";")
    try:
        mode, raw_bytes, raw_copies = parts
        if not (raw_bytes.startswith("b") and raw_copies.startswith("c")):
            raise ValueError(name)
        return mode, int(raw_bytes[1:]), int(raw_copies[1:])
    except ValueError as exc:
        raise TraceError(f"malformed transport record name: {name!r}") from exc


#: Cache-mode tokens carried in ``cache_stats`` record names.
CACHE_PRIVATE = "private"
CACHE_SHARED = "shared"


def format_cache_stats_name(
    mode: str,
    hits: int,
    misses: int,
    cross_hits: int,
    evictions: int,
    pinned_bytes: int,
) -> str:
    """Encode one batch's cache accounting into the record name field.

    Mirrors :func:`format_transport_name`: the CSV schema has no spare
    integer columns, so the per-batch deltas ride in the name as
    ``mode;h<hits>;m<misses>;x<cross>;e<evictions>;p<pinned>`` —
    comma-free, so the line format and both parsers are untouched.
    Steady warm epochs (all hits, constant pinned gauge) produce one
    interned name per batch shape, like transport records.
    """
    return (
        f"{mode};h{int(hits)};m{int(misses)};x{int(cross_hits)}"
        f";e{int(evictions)};p{int(pinned_bytes)}"
    )


def parse_cache_stats_name(name: str) -> "tuple[str, int, int, int, int, int]":
    """Decode ``(mode, hits, misses, cross_hits, evictions, pinned_bytes)``.

    Raises :class:`TraceError` on names not produced by
    :func:`format_cache_stats_name`.
    """
    parts = name.split(";")
    try:
        mode, raw_h, raw_m, raw_x, raw_e, raw_p = parts
        prefixes = ("h", "m", "x", "e", "p")
        raws = (raw_h, raw_m, raw_x, raw_e, raw_p)
        if not all(raw.startswith(tag) for tag, raw in zip(prefixes, raws)):
            raise ValueError(name)
        return (mode,) + tuple(int(raw[1:]) for raw in raws)
    except ValueError as exc:
        raise TraceError(f"malformed cache_stats record name: {name!r}") from exc


#: Scheduler-mode tokens carried in ``sched`` record names (and accepted
#: by ``DataLoader(scheduler=...)``). The parser is mode-agnostic, so
#: traces holding modes no longer offered still parse and aggregate.
SCHED_STATIC = "static"
SCHED_STEALING = "stealing"


def format_sched_name(
    mode: str, queue_depth: int, steals: int, chosen_depth: int
) -> str:
    """Encode one yield's scheduler accounting into the record name field.

    Mirrors :func:`format_cache_stats_name`: the CSV schema has no spare
    integer columns, so the per-yield values ride in the name as
    ``mode;q<queue_depth>;s<steals>;d<chosen_depth>`` — comma-free, so
    the line format and both parsers are untouched. ``steals`` is this
    yield's *delta* (batches dispatched off their round-robin home since
    the previous yield), so totals aggregate by summation.
    """
    return f"{mode};q{int(queue_depth)};s{int(steals)};d{int(chosen_depth)}"


def parse_sched_name(name: str) -> "tuple[str, int, int, int]":
    """Decode ``(mode, queue_depth, steals, chosen_depth)``.

    Raises :class:`TraceError` on names not produced by
    :func:`format_sched_name`.
    """
    parts = name.split(";")
    try:
        mode, raw_q, raw_s, raw_d = parts
        raws = (raw_q, raw_s, raw_d)
        if not all(raw.startswith(tag) for tag, raw in zip("qsd", raws)):
            raise ValueError(name)
        return (mode,) + tuple(int(raw[1:]) for raw in raws)
    except ValueError as exc:
        raise TraceError(f"malformed sched record name: {name!r}") from exc


#: ``worker_id`` used for records emitted by the main process.
MAIN_PROCESS_WORKER_ID = -1

#: Op-record name for batch collation (Table II's C(k) column). Lives
#: here (not in the dataloader) so the batched fetcher can emit the same
#: record without importing the dataloader module.
COLLATION_OP_NAME = "Collation"

#: Out-of-order batches were already cached when the main process asked for
#: them; the paper marks their wait records with a 1 us duration.
OOO_MARKER_DURATION_NS = 1 * NS_PER_US


@dataclass(frozen=True)
class TraceRecord:
    """One LotusTrace event.

    Attributes:
        kind: one of the ``KIND_*`` constants.
        name: transform class name for op records, span label otherwise.
        batch_id: batch index, or -1 for op records not tied to a batch
            (association is recovered from time containment in analysis).
        worker_id: DataLoader worker index, or MAIN_PROCESS_WORKER_ID.
        pid: OS process id of the emitting process.
        start_ns: event start, ``time.time_ns()``.
        duration_ns: elapsed nanoseconds.
        out_of_order: for wait records, whether the batch arrived before
            it was requested (duration is then the 1 us marker).
    """

    kind: str
    name: str
    batch_id: int
    worker_id: int
    pid: int
    start_ns: int
    duration_ns: int
    out_of_order: bool = False

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise TraceError(f"unknown record kind: {self.kind!r}")
        if self.duration_ns < 0:
            raise TraceError(f"negative duration: {self.duration_ns}")

    @property
    def end_ns(self) -> int:
        return self.start_ns + self.duration_ns

    def to_line(self) -> str:
        """Serialize to one CSV line (no trailing newline)."""
        return (
            f"{self.kind},{self.name},{self.batch_id},{self.worker_id},"
            f"{self.pid},{self.start_ns},{self.duration_ns},"
            f"{int(self.out_of_order)}"
        )

    @classmethod
    def from_line(cls, line: str) -> "TraceRecord":
        """Parse a line produced by :meth:`to_line`.

        Raises :class:`TraceError` on malformed input.
        """
        parts = line.rstrip("\n").split(",")
        if len(parts) != 8:
            raise TraceError(f"malformed trace line ({len(parts)} fields): {line!r}")
        kind, name, batch_id, worker_id, pid, start_ns, duration_ns, ooo = parts
        try:
            return cls(
                kind=kind,
                name=name,
                batch_id=int(batch_id),
                worker_id=int(worker_id),
                pid=int(pid),
                start_ns=int(start_ns),
                duration_ns=int(duration_ns),
                out_of_order=bool(int(ooo)),
            )
        except ValueError as exc:
            raise TraceError(f"malformed trace line: {line!r}") from exc

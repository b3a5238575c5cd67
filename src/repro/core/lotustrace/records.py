"""LotusTrace record model.

Each record is one instrumentation event: a per-image transform ([T3]), a
per-batch preprocessing span ([T1]), a main-process wait ([T2]), or a
batch consumption marker, plus the fault and counter bookkeeping kinds
declared in :data:`KIND_TABLE`. Records are written as single CSV lines
so the per-log overhead stays at two timestamps plus one formatted write.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import TraceError
from repro.utils.timeunits import NS_PER_US


@dataclass(frozen=True)
class TraceKind:
    """One record kind: its log string, its Chrome span prefix (``None``
    for op records, whose span is named after the transform), whether
    the fault-tolerance layer emits it, and, for counter kinds, the
    ordered one-letter tags of the integers its name carries."""

    kind: str
    span_prefix: Optional[str]
    fault: bool = False
    tags: str = ""


#: Every record kind, in kind-code order: a kind's numeric code in the
#: columnar store is its index here, so entries are only ever appended
#: (codes 0-10 are persisted in analyses and parity tests).
KIND_TABLE = (
    # The paper's records: [T3] ops, [T1] fetch, [T2] wait, consumption.
    TraceKind("op", None),
    TraceKind("batch_preprocessed", "SBatchPreprocessed"),
    TraceKind("batch_wait", "SBatchWait"),
    TraceKind("batch_consumed", "SBatchConsumed"),
    # Fault tolerance (DESIGN.md §8): zero-width markers that clean runs
    # never emit, so clean traces and the [T1]/[T2]/[T3] paths are as
    # before; fault-injected runs carry their recovery history in-band.
    TraceKind("worker_restart", "SWorkerRestart", fault=True),
    TraceKind("sample_skipped", "SSampleSkipped", fault=True),
    TraceKind("sample_retried", "SSampleRetried", fault=True),
    TraceKind("heartbeat", "SHeartbeat", fault=True),
    # Counter kinds: integers ride in the name as ``mode;<tag><int>;...``
    # (see :func:`format_counter_name`). ``batch_transport`` (§10): one
    # per worker-to-main hand-off, payload bytes and copy count, with
    # the publish cost as duration. ``cache_stats`` (§11): one per
    # fetched batch under ``cache=``, hit/miss/cross-hit/eviction
    # deltas and the pinned-bytes gauge. ``sched`` (§12): one per
    # yielded batch from the main process, queue depth after the
    # yield, the yield's steal delta and the per-worker prefetch depth.
    TraceKind("batch_transport", "SBatchTransport", tags="bc"),
    TraceKind("cache_stats", "SCacheStats", tags="hmxep"),
    TraceKind("sched", "SSched", tags="qsd"),
)

#: code -> kind string, and its inverse.
KIND_STRINGS = tuple(entry.kind for entry in KIND_TABLE)
KIND_TO_CODE = {kind: code for code, kind in enumerate(KIND_STRINGS)}

(
    KIND_OP,
    KIND_BATCH_PREPROCESSED,
    KIND_BATCH_WAIT,
    KIND_BATCH_CONSUMED,
    KIND_WORKER_RESTART,
    KIND_SAMPLE_SKIPPED,
    KIND_SAMPLE_RETRIED,
    KIND_WORKER_HEARTBEAT,
    KIND_BATCH_TRANSPORT,
    KIND_CACHE_STATS,
    KIND_SCHED,
) = KIND_STRINGS

#: Record kinds emitted only by the fault-tolerance layer.
FAULT_KINDS = frozenset(entry.kind for entry in KIND_TABLE if entry.fault)
FAULT_KIND_CODES = tuple(
    code for code, entry in enumerate(KIND_TABLE) if entry.fault
)

#: Counter kind -> ordered integer tags of its name.
COUNTER_TAGS = {entry.kind: entry.tags for entry in KIND_TABLE if entry.tags}

#: Mode tokens carried in ``batch_transport`` / ``cache_stats`` /
#: ``sched`` names. The parser is mode-agnostic, so traces holding
#: modes no longer offered (``adaptive`` scheduling) still aggregate.
TRANSPORT_INLINE = "inline"
TRANSPORT_PICKLE = "pickle"
TRANSPORT_SHM = "shm"
CACHE_PRIVATE = "private"
CACHE_SHARED = "shared"
SCHED_STATIC = "static"
SCHED_STEALING = "stealing"


def format_counter_name(kind: str, mode: str, *values: int) -> str:
    """Encode a counter record's mode and integers into its name field.

    The CSV schema has no spare integer columns, so the values ride in
    the name as ``mode;<tag><int>;...`` in the kind's tag order — e.g.
    ``shm;b1048576;c1`` — comma-free, so the line format and both
    parsers are untouched. Counter names intern well in the columnar
    store: steady epochs repeat a handful of names.
    """
    tags = COUNTER_TAGS[kind]
    if len(values) != len(tags):
        raise TraceError(
            f"{kind} takes {len(tags)} values ({tags}), got {len(values)}"
        )
    return ";".join([mode] + [f"{tag}{int(v)}" for tag, v in zip(tags, values)])


def parse_counter_name(kind: str, name: str) -> Tuple:
    """Decode ``(mode, *values)`` from a ``kind`` counter record's name.

    Raises :class:`TraceError` on names not produced by
    :func:`format_counter_name` for the same kind.
    """
    tags = COUNTER_TAGS[kind]
    mode, *fields = name.split(";")
    try:
        if len(fields) != len(tags) or not all(
            field.startswith(tag) for tag, field in zip(tags, fields)
        ):
            raise ValueError(name)
        return (mode,) + tuple(int(field[1:]) for field in fields)
    except ValueError as exc:
        raise TraceError(f"malformed {kind} record name: {name!r}") from exc


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
        if self.kind not in KIND_TO_CODE:
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

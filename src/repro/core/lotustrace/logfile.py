"""LotusTrace log writing and parsing.

The writer is deliberately minimal: formatting one CSV line and appending
it to an in-memory buffer that is flushed to the file in chunks. It keeps
no tracer state beyond the pending lines and does no additional
computation — the property that gives LotusTrace its ~zero wall-time
overhead (paper § III-B, Table III). Chunked flushing keeps the per-record
cost to a string append; the file-system write is paid once per
``buffer_bytes`` of trace data instead of once per line.

Worker processes and the main process may share one log file: each opens
it in append mode and flushes whole lines in a single ``os.write`` on an
``O_APPEND`` descriptor, which POSIX serializes so lines stay intact.
Readers see records after a ``flush()`` (the DataLoader flushes at epoch
boundaries and workers on shutdown) or ``close()``.
"""

from __future__ import annotations

import os
import threading
import weakref
from typing import Iterable, List, Optional, Union

from repro.core.lotustrace.columns import (
    ParseStats,
    TraceColumns,
    parse_trace_bytes,
    parse_trace_file_columns,
)
from repro.core.lotustrace.engine import ENGINE_RECORDS, current_engine
from repro.core.lotustrace.records import TraceRecord
from repro.errors import TraceError

PathLike = Union[str, os.PathLike]

#: Default in-memory buffer size before the writer spills to the file.
DEFAULT_BUFFER_BYTES = 32 * 1024

# Every live writer, so epoch boundaries (and forked worker shutdown) can
# spill buffers they don't hold a direct reference to — e.g. the writers a
# dataset or transform chain opened from the same log path.
_writers: "weakref.WeakSet[LotusLogWriter]" = weakref.WeakSet()


def flush_all_writers() -> None:
    """Flush every live :class:`LotusLogWriter` in this process.

    Called by the DataLoader at epoch boundaries (and before spawning
    workers, so forked children never inherit a non-empty buffer and
    re-write the parent's pending lines) and by process-backed workers on
    shutdown.
    """
    for writer in list(_writers):
        writer.flush()


class LotusLogWriter:
    """Appends :class:`TraceRecord` lines to a log file, buffered in memory.

    Thread-safe; safe to share between thread-backed DataLoader workers.
    Process-backed workers should each construct their own writer for the
    same path (append mode keeps lines intact). Records become visible to
    readers when the buffer spills (every ``buffer_bytes`` of formatted
    lines), on :meth:`flush`, or on :meth:`close`.
    """

    def __init__(
        self, path: PathLike, buffer_bytes: int = DEFAULT_BUFFER_BYTES
    ) -> None:
        if buffer_bytes < 1:
            raise TraceError(f"buffer_bytes must be >= 1, got {buffer_bytes}")
        self._path = os.fspath(path)
        self._lock = threading.Lock()
        self._fd: Optional[int] = os.open(
            self._path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )
        self._buffer: List[str] = []
        self._buffered_bytes = 0
        self._buffer_limit = buffer_bytes
        self._closed = False
        _writers.add(self)

    @property
    def path(self) -> str:
        return self._path

    def _flush_locked(self) -> None:
        if self._buffer and self._fd is not None:
            data = "".join(self._buffer).encode("utf-8")
            self._buffer.clear()
            self._buffered_bytes = 0
            # One os.write of whole lines: O_APPEND keeps concurrent
            # appenders (worker processes) from tearing lines apart.
            os.write(self._fd, data)

    def write(self, record: TraceRecord) -> None:
        if self._closed:
            raise TraceError(f"writer for {self._path} is closed")
        line = record.to_line() + "\n"
        with self._lock:
            self._buffer.append(line)
            self._buffered_bytes += len(line)
            if self._buffered_bytes >= self._buffer_limit:
                self._flush_locked()

    def flush(self) -> None:
        with self._lock:
            if not self._closed:
                self._flush_locked()

    def close(self) -> None:
        with self._lock:
            if not self._closed:
                self._flush_locked()
                assert self._fd is not None
                os.close(self._fd)
                self._fd = None
                self._closed = True

    def __enter__(self) -> "LotusLogWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass


class InMemoryTraceLog:
    """Writer-compatible sink that keeps records in a list (for tests)."""

    def __init__(self) -> None:
        self._records: List[TraceRecord] = []
        self._lock = threading.Lock()

    @property
    def path(self) -> str:
        return "<memory>"

    def write(self, record: TraceRecord) -> None:
        with self._lock:
            self._records.append(record)

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass

    def records(self) -> List[TraceRecord]:
        with self._lock:
            return list(self._records)

    def columns(self) -> TraceColumns:
        """Snapshot the sink as a columnar table (for vectorized analysis)."""
        return TraceColumns.from_records(self.records())

    def __enter__(self) -> "InMemoryTraceLog":
        return self

    def __exit__(self, *exc_info) -> None:
        pass


TraceSink = Union[LotusLogWriter, InMemoryTraceLog]


def open_trace_log(target: Union[PathLike, TraceSink, None]) -> Optional[TraceSink]:
    """Normalize a user-supplied log target to a writer.

    Accepts a path (opens a :class:`LotusLogWriter`), a
    :class:`LotusLogWriter` or :class:`InMemoryTraceLog` (returned
    unchanged), or None (tracing disabled). Any other object with a
    ``write`` method — an open file handle, a duck-typed wrapper —
    raises :class:`TraceError` instead of being corrupted later by
    non-string :class:`TraceRecord` writes.
    """
    if target is None:
        return None
    if isinstance(target, (LotusLogWriter, InMemoryTraceLog)):
        return target
    if hasattr(target, "write"):
        raise TraceError(
            f"trace log target {type(target).__name__} is not a path, "
            "LotusLogWriter, or InMemoryTraceLog"
        )
    return LotusLogWriter(target)


def parse_trace_lines(
    lines: Iterable[str],
    errors: str = "raise",
    stats: Optional[ParseStats] = None,
) -> List[TraceRecord]:
    """Parse trace lines; blank lines are always skipped.

    ``errors="raise"`` (default) propagates :class:`TraceError` on the
    first malformed line. ``errors="skip"`` drops malformed lines —
    e.g. the truncated tail a process-backed worker leaves behind when
    killed mid-append — counting them in ``stats.skipped_lines`` when a
    :class:`~repro.core.lotustrace.columns.ParseStats` is given.
    """
    if errors not in ("raise", "skip"):
        raise TraceError(f"unknown errors mode: {errors!r}")
    records = []
    for line in lines:
        if not line.strip():
            continue
        try:
            records.append(TraceRecord.from_line(line))
        except TraceError:
            if errors == "raise":
                raise
            if stats is not None:
                stats.skipped_lines += 1
    return records


def parse_trace_file(
    path: PathLike,
    errors: str = "raise",
    stats: Optional[ParseStats] = None,
) -> List[TraceRecord]:
    """Read and parse a LotusTrace log file into records.

    The active :func:`~repro.core.lotustrace.engine.analysis_engine`
    picks the decoder: the default columnar engine parses the file in
    vectorized chunks and materializes records from the columns; the
    records engine parses line by line. Skip/raise semantics (see
    :func:`parse_trace_lines`) are identical. Callers that feed the
    records straight into ``analyze_trace``/``to_chrome_trace`` should
    prefer :func:`parse_trace_file_columns` and pass the columns through
    — that skips record materialization entirely.
    """
    if current_engine() == ENGINE_RECORDS:
        with open(path, "r", encoding="utf-8") as handle:
            return parse_trace_lines(handle, errors=errors, stats=stats)
    return parse_trace_file_columns(path, errors=errors, stats=stats).to_records()

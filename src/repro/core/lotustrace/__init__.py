"""LotusTrace: fine-grained timing instrumentation for preprocessing.

Captures the paper's three measurements with two timestamps per event:

* **[T1]** per-batch preprocessing time, measured around the DataLoader
  worker's ``fetch`` call;
* **[T2]** main-process wait time per batch, measured around
  ``_next_data``, with a 1 µs marker for out-of-order batches that were
  already cached when requested;
* **[T3]** per-operation elapsed time, measured inside
  ``Compose.__call__``.

Records carry batch and worker/process IDs so the asynchronous main↔worker
data flow can be reconstructed (:mod:`~repro.core.lotustrace.spans`),
analyzed (:mod:`~repro.core.lotustrace.analysis`), and exported to Chrome
Trace Viewer JSON (:mod:`~repro.core.lotustrace.chrometrace`).
"""

from repro.core.lotustrace.analysis import (
    BatchFlow,
    CacheTraceStats,
    ColumnarTraceAnalysis,
    SchedTraceStats,
    TraceAnalysis,
    TransportStats,
    analyze_trace,
    out_of_order_events,
    per_op_stats,
)
from repro.core.lotustrace.columns import (
    ParseStats,
    TraceColumns,
    parse_trace_bytes,
    parse_trace_file_columns,
)
from repro.core.lotustrace.engine import (
    ENGINE_COLUMNAR,
    ENGINE_RECORDS,
    analysis_engine,
    current_engine,
)
from repro.core.lotustrace.autoreport import Finding, TraceReport, generate_report
from repro.core.lotustrace.compare import (
    OpDelta,
    TraceComparison,
    compare_traces,
)
from repro.core.lotustrace.chrometrace import (
    augment_profiler_trace,
    to_chrome_trace,
    write_chrome_trace,
)
from repro.core.lotustrace.logfile import (
    InMemoryTraceLog,
    LotusLogWriter,
    open_trace_log,
    parse_trace_file,
    parse_trace_lines,
)
from repro.core.lotustrace.records import (
    CACHE_PRIVATE,
    CACHE_SHARED,
    FAULT_KINDS,
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
    OOO_MARKER_DURATION_NS,
    SCHED_STATIC,
    SCHED_STEALING,
    TRANSPORT_INLINE,
    TRANSPORT_PICKLE,
    TRANSPORT_SHM,
    TraceRecord,
    format_counter_name,
    parse_counter_name,
)
from repro.core.lotustrace.spans import Span, build_spans, span_name

__all__ = [
    "BatchFlow",
    "CACHE_PRIVATE",
    "CACHE_SHARED",
    "CacheTraceStats",
    "ColumnarTraceAnalysis",
    "ENGINE_COLUMNAR",
    "ENGINE_RECORDS",
    "Finding",
    "InMemoryTraceLog",
    "ParseStats",
    "TraceColumns",
    "analysis_engine",
    "current_engine",
    "parse_trace_bytes",
    "parse_trace_file_columns",
    "TraceReport",
    "generate_report",
    "FAULT_KINDS",
    "KIND_BATCH_CONSUMED",
    "KIND_BATCH_PREPROCESSED",
    "KIND_BATCH_TRANSPORT",
    "KIND_BATCH_WAIT",
    "KIND_CACHE_STATS",
    "KIND_OP",
    "KIND_SAMPLE_RETRIED",
    "KIND_SAMPLE_SKIPPED",
    "KIND_SCHED",
    "KIND_WORKER_HEARTBEAT",
    "KIND_WORKER_RESTART",
    "LotusLogWriter",
    "MAIN_PROCESS_WORKER_ID",
    "OOO_MARKER_DURATION_NS",
    "OpDelta",
    "SCHED_STATIC",
    "SCHED_STEALING",
    "SchedTraceStats",
    "Span",
    "TraceComparison",
    "compare_traces",
    "TRANSPORT_INLINE",
    "TRANSPORT_PICKLE",
    "TRANSPORT_SHM",
    "TraceAnalysis",
    "TraceRecord",
    "TransportStats",
    "analyze_trace",
    "format_counter_name",
    "parse_counter_name",
    "augment_profiler_trace",
    "build_spans",
    "open_trace_log",
    "out_of_order_events",
    "parse_trace_file",
    "parse_trace_lines",
    "per_op_stats",
    "span_name",
    "to_chrome_trace",
    "write_chrome_trace",
]

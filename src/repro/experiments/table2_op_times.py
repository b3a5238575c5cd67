"""Table II: per-operation elapsed time statistics for IC, IS, OD.

For each pipeline: average and P90 elapsed time per operation per sample,
plus the fraction of operation executions under 10 ms and under 100 us —
the numbers motivating fine-grained (sub-sampling-interval) tracing.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field
from typing import Dict, List

from repro.core.lotustrace import analyze_trace, parse_trace_file_columns
from repro.data.backends import PROCESS_BACKEND
from repro.utils.blas import blas_thread_limit
from repro.utils.stats import Summary, fraction_below
from repro.utils.timeunits import ms_to_ns, ns_to_ms, us_to_ns
from repro.workloads import (
    SMOKE,
    ScaleProfile,
    build_ic_pipeline,
    build_is_pipeline,
    build_od_pipeline,
)

THRESHOLD_10MS_NS = ms_to_ns(10)
THRESHOLD_100US_NS = us_to_ns(100)


@dataclass
class OpRow:
    """One Table II cell group for one operation."""

    op: str
    avg_ms: float
    p90_ms: float
    pct_under_10ms: float
    pct_under_100us: float
    count: int


@dataclass
class Table2Result:
    pipelines: Dict[str, List[OpRow]] = field(default_factory=dict)

    def row(self, pipeline: str, op: str) -> OpRow:
        for entry in self.pipelines[pipeline]:
            if entry.op == op:
                return entry
        raise KeyError(f"no op {op!r} in pipeline {pipeline!r}")


def _rows_from_analysis(analysis) -> List[OpRow]:
    rows = []
    for op in analysis.op_names():
        durations = analysis.op_durations[op]
        summary = analysis.op_summary(op)
        rows.append(
            OpRow(
                op=op,
                avg_ms=ns_to_ms(summary.mean),
                p90_ms=ns_to_ms(summary.p90),
                pct_under_10ms=100.0 * fraction_below(durations, THRESHOLD_10MS_NS),
                pct_under_100us=100.0 * fraction_below(durations, THRESHOLD_100US_NS),
                count=summary.count,
            )
        )
    return rows


def run_table2(
    profile: ScaleProfile = SMOKE,
    num_workers: int = 2,
    seed: int = 0,
) -> Table2Result:
    """Run IC/IS/OD traced epochs and compute Table II rows.

    Workers are processes with one BLAS thread each, the paper's PyTorch
    setup (PyTorch gives every loader worker one intra-op thread). On
    thread workers a short op's elapsed time absorbs the other workers'
    interpreter time through the GIL, and with a full BLAS thread pool
    per caller the matmul-based ops measure core oversubscription: on a
    2-core host RandomResizedCrop's mean swung 1-6 ms run to run.
    """
    result = Table2Result()
    # Table II is per-operation-per-sample timing — run the per-sample
    # engine, not the batched fast path (DESIGN.md §7).
    builders = {
        "IC": build_ic_pipeline,
        "IS": build_is_pipeline,
        "OD": build_od_pipeline,
    }
    # Forked workers inherit the BLAS limit.
    with tempfile.TemporaryDirectory() as log_dir, blas_thread_limit(1):
        for name, builder in builders.items():
            log_path = os.path.join(log_dir, f"{name}.log")
            bundle = builder(
                profile=profile,
                num_workers=num_workers,
                log_file=log_path,
                seed=seed,
                batched_execution=False,
                worker_backend=PROCESS_BACKEND,
            )
            bundle.run_epoch()
            bundle.log_target.close()
            analysis = analyze_trace(parse_trace_file_columns(log_path))
            result.pipelines[name] = _rows_from_analysis(analysis)
    return result


def format_table2(result: Table2Result) -> str:
    """Render Table II."""
    lines = []
    for pipeline, rows in result.pipelines.items():
        lines.append(pipeline)
        lines.append(
            f"  {'Op':<26} {'Avg ms':>8} {'P90 ms':>8} {'<10ms %':>8} {'<100us %':>9}"
        )
        for row in rows:
            lines.append(
                f"  {row.op:<26} {row.avg_ms:>8.3f} {row.p90_ms:>8.3f} "
                f"{row.pct_under_10ms:>8.2f} {row.pct_under_100us:>9.2f}"
            )
    return "\n".join(lines)

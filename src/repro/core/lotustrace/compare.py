"""Trace comparison: quantify the effect of a pipeline change.

Given two LotusTrace logs — a baseline run and a candidate run (more
workers, a decode cache, different batch size, ...) — report per-operation
CPU-time deltas and wait/delay shifts. This is the analysis a
practitioner performs after acting on Lotus's findings, e.g. verifying
that caching eliminated the Loader cost without disturbing the rest of
the pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Union

from repro.core.lotustrace.analysis import COUNTER_REDUCTIONS, analyze_trace
from repro.core.lotustrace.columns import TraceColumns
from repro.core.lotustrace.records import TraceRecord
from repro.errors import TraceError
from repro.utils.timeunits import format_ns

TraceInput = Union[Iterable[TraceRecord], TraceColumns]


@dataclass(frozen=True)
class OpDelta:
    """One operation's change between runs."""

    op: str
    baseline_total_ns: int
    candidate_total_ns: int

    @property
    def delta_ns(self) -> int:
        return self.candidate_total_ns - self.baseline_total_ns

    @property
    def ratio(self) -> float:
        """candidate / baseline total CPU time (inf for new ops)."""
        if self.baseline_total_ns == 0:
            return float("inf") if self.candidate_total_ns else 1.0
        return self.candidate_total_ns / self.baseline_total_ns


@dataclass
class TraceComparison:
    op_deltas: List[OpDelta] = field(default_factory=list)
    baseline_batches: int = 0
    candidate_batches: int = 0
    baseline_median_wait_ns: float = 0.0
    candidate_median_wait_ns: float = 0.0
    baseline_median_delay_ns: float = 0.0
    candidate_median_delay_ns: float = 0.0
    #: Counter-kind totals (DESIGN.md §10-§12) per side: kind -> mode ->
    #: stats, ``{}`` for a kind the trace does not carry.
    baseline_counters: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    candidate_counters: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    def delta_for(self, op: str) -> OpDelta:
        for delta in self.op_deltas:
            if delta.op == op:
                return delta
        raise TraceError(f"no delta for operation {op!r}")

    def biggest_regression(self) -> Optional[OpDelta]:
        grew = [d for d in self.op_deltas if d.delta_ns > 0]
        return max(grew, key=lambda d: d.delta_ns) if grew else None

    def biggest_improvement(self) -> Optional[OpDelta]:
        shrank = [d for d in self.op_deltas if d.delta_ns < 0]
        return min(shrank, key=lambda d: d.delta_ns) if shrank else None

    def format(self) -> str:
        lines = [
            f"{'operation':<26} {'baseline':>12} {'candidate':>12} {'ratio':>7}"
        ]
        for delta in sorted(
            self.op_deltas, key=lambda d: d.baseline_total_ns, reverse=True
        ):
            ratio = "new" if delta.ratio == float("inf") else f"{delta.ratio:.2f}x"
            lines.append(
                f"{delta.op:<26} {format_ns(delta.baseline_total_ns):>12} "
                f"{format_ns(delta.candidate_total_ns):>12} {ratio:>7}"
            )
        lines.append(
            f"median wait : {format_ns(self.baseline_median_wait_ns)} -> "
            f"{format_ns(self.candidate_median_wait_ns)}"
        )
        lines.append(
            f"median delay: {format_ns(self.baseline_median_delay_ns)} -> "
            f"{format_ns(self.candidate_median_delay_ns)}"
        )
        # One line per (counter kind, mode) seen in either run, so (say)
        # the pickle and shm carriers, a private and the shared cache, or
        # static and stealing dispatch read side by side.
        for kind, (stats_cls, _) in COUNTER_REDUCTIONS.items():
            base = self.baseline_counters.get(kind, {})
            cand = self.candidate_counters.get(kind, {})
            for mode in sorted(set(base) | set(cand)):
                lines.append(
                    f"{stats_cls.label}[{mode}]: {_describe(base.get(mode))}"
                    f" -> {_describe(cand.get(mode))}"
                )
        return "\n".join(lines)


def _describe(stats: Optional[Any]) -> str:
    return "absent" if stats is None else stats.describe()


def _median(values: List[int]) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[len(ordered) // 2])


def compare_traces(
    baseline: TraceInput,
    candidate: TraceInput,
) -> TraceComparison:
    """Compare two runs' traces; operations are matched by name.

    Accepts record lists or :class:`TraceColumns` tables; under the
    default engine the per-op totals and wait/delay series come from
    grouped vectorized reductions.
    """
    base = analyze_trace(baseline)
    cand = analyze_trace(candidate)
    if base.num_batches() == 0 and cand.num_batches() == 0:
        raise TraceError("both traces are empty")
    base_totals = base.op_total_cpu_ns()
    cand_totals = cand.op_total_cpu_ns()
    ops = sorted(set(base_totals) | set(cand_totals))
    return TraceComparison(
        op_deltas=[
            OpDelta(
                op=op,
                baseline_total_ns=base_totals.get(op, 0),
                candidate_total_ns=cand_totals.get(op, 0),
            )
            for op in ops
        ],
        baseline_batches=base.num_batches(),
        candidate_batches=cand.num_batches(),
        baseline_median_wait_ns=_median(base.wait_times_ns()),
        candidate_median_wait_ns=_median(cand.wait_times_ns()),
        baseline_median_delay_ns=_median(base.delay_times_ns()),
        candidate_median_delay_ns=_median(cand.delay_times_ns()),
        baseline_counters={
            kind: base.counter_stats(kind) for kind in COUNTER_REDUCTIONS
        },
        candidate_counters={
            kind: cand.counter_stats(kind) for kind in COUNTER_REDUCTIONS
        },
    )

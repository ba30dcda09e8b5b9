"""Batch experiment runner.

The papers never report single runs: the HPCAsia evaluation uses "20
instances [per species count] to reduce the factor influenced by
distance matrix", and the NSC report's tables quote the *median*,
*average* and *worst* times over 10 datasets precisely because B&B
effort is so instance-dependent.  :class:`BatchRunner` packages that
methodology: run one or more construction methods over a batch of
matrices and aggregate cost/time/effort statistics.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.api import construct_tree
from repro.matrix.distance_matrix import DistanceMatrix
from repro.obs.metrics import NULL_METRICS
from repro.obs.recorder import NullRecorder

__all__ = ["MethodAggregate", "BatchReport", "BatchRunner"]


@dataclass(frozen=True)
class MethodAggregate:
    """Median / mean / worst statistics for one method over a batch."""

    method: str
    runs: int
    median_seconds: float
    mean_seconds: float
    worst_seconds: float
    median_cost: float
    mean_cost: float
    worst_cost: float
    #: Total branch-and-bound nodes expanded over the batch (0 for pure
    #: heuristics; the papers' "effort" axis).
    total_nodes_expanded: int = 0

    def row(self) -> str:
        """One table row in the NSC-report style."""
        return (
            f"{self.method:<18} runs={self.runs:<3} "
            f"time median={self.median_seconds:.4f}s "
            f"mean={self.mean_seconds:.4f}s worst={self.worst_seconds:.4f}s | "
            f"cost median={self.median_cost:.2f} worst={self.worst_cost:.2f} | "
            f"nodes={self.total_nodes_expanded}"
        )


def _effort_of(details) -> int:
    """Branch-and-bound nodes expanded, for any method's result details."""
    if details is None:
        return 0
    stats = getattr(details, "stats", None)
    if stats is not None:  # BBUResult
        return stats.nodes_expanded
    reports = getattr(details, "reports", None)
    if reports is not None:  # CompactResult
        return sum(r.nodes_expanded for r in reports)
    return getattr(details, "total_nodes_expanded", 0)  # ParallelResult


@dataclass
class BatchReport:
    """Per-instance measurements plus per-method aggregates."""

    methods: List[str]
    #: seconds[method][i] / costs[method][i] for instance i.
    seconds: Dict[str, List[float]] = field(default_factory=dict)
    costs: Dict[str, List[float]] = field(default_factory=dict)
    #: nodes expanded per instance (0 for heuristic methods).
    effort: Dict[str, List[int]] = field(default_factory=dict)

    def aggregate(self, method: str) -> MethodAggregate:
        times = self.seconds[method]
        costs = self.costs[method]
        return MethodAggregate(
            method=method,
            runs=len(times),
            median_seconds=statistics.median(times),
            mean_seconds=statistics.fmean(times),
            worst_seconds=max(times),
            median_cost=statistics.median(costs),
            mean_cost=statistics.fmean(costs),
            worst_cost=max(costs),
            total_nodes_expanded=sum(self.effort.get(method, [])),
        )

    def aggregates(self) -> List[MethodAggregate]:
        return [self.aggregate(method) for method in self.methods]

    def table(self) -> str:
        """The full comparison table as text."""
        return "\n".join(agg.row() for agg in self.aggregates())

    def cost_ratio(self, method: str, baseline: str) -> List[float]:
        """Per-instance cost ratios ``method / baseline``.

        A zero-cost baseline (degenerate or singleton instance) yields
        ``inf`` -- or ``nan`` when the method's cost is also zero --
        instead of raising ``ZeroDivisionError``.
        """
        ratios = []
        for a, b in zip(self.costs[method], self.costs[baseline]):
            if b == 0:
                ratios.append(math.nan if a == 0 else math.inf)
            else:
                ratios.append(a / b)
        return ratios


class BatchRunner:
    """Run construction methods over a batch of matrices.

    ``method_options`` maps a method name to the keyword arguments its
    engine should receive (e.g. ``{"compact": {"max_exact_size": 16}}``).
    A custom ``clock`` is injectable for deterministic tests; the same
    clock drives the engines' internal timing (their recorder inherits
    it), so per-run and per-subproblem timings are mutually consistent.
    An optional ``recorder`` threads through to every engine: each run
    executes inside a ``batch.run`` span and per-method effort arrives as
    ``batch.nodes_expanded`` counters.
    """

    def __init__(
        self,
        methods: Sequence[str],
        *,
        method_options: Dict[str, dict] = None,
        clock: Callable[[], float] = time.perf_counter,
        recorder: Optional[NullRecorder] = None,
    ) -> None:
        if not methods:
            raise ValueError("need at least one method")
        self.methods = list(methods)
        self.method_options = dict(method_options or {})
        self.clock = clock
        # No recorder given: still route engine timing through our clock
        # via a null recorder, so an injected clock governs *all* timing.
        # It feeds no registry, so no metric span reads that clock either.
        self.recorder = recorder or NullRecorder(clock, metrics=NULL_METRICS)

    def run(self, matrices: Sequence[DistanceMatrix]) -> BatchReport:
        """Execute every method on every matrix."""
        if not matrices:
            raise ValueError("need at least one matrix")
        rec = self.recorder
        report = BatchReport(methods=list(self.methods))
        for method in self.methods:
            report.seconds[method] = []
            report.costs[method] = []
            report.effort[method] = []
        for instance, matrix in enumerate(matrices):
            for method in self.methods:
                options = self.method_options.get(method, {})
                start = self.clock()
                with rec.span(
                    "batch.run", method=method, instance=instance, n=matrix.n
                ):
                    result = construct_tree(
                        matrix, method, recorder=rec, **options
                    )
                elapsed = self.clock() - start
                effort = _effort_of(result.details)
                if rec.enabled:
                    rec.counter(
                        "batch.nodes_expanded", effort, method=method
                    )
                report.seconds[method].append(elapsed)
                report.costs[method].append(result.cost)
                report.effort[method].append(effort)
        return report

"""Live search-progress telemetry for the B&B inner loop.

A long exact solve is a black box between "submitted" and "done": spans
and counters only land after the search settles.  :class:`ProgressTracker`
turns the branch-and-bound loop into a telemetry *stream* -- periodic
snapshots of the incumbent/bound convergence, the shape production MIP
solvers log as the "gap" trace:

``{incumbent_cost, best_lower_bound, gap, nodes_expanded, nodes_created,
open_size, elapsed}``

Design constraints, mirroring the recorder's:

1. **Zero-cost when off.**  The solver guards every tick behind
   ``if tracker is not None``; with no tracker installed the hot loop
   allocates nothing and calls nothing.
2. **Throttled when on.**  ``tick()`` fires a report only when the
   reporting interval has elapsed *or* the incumbent improved by more
   than ``min_delta`` -- the expensive work (the open-list lower-bound
   scan, the event emission) happens only on firing reports.
3. **Deterministic when tested.**  The clock is injectable, so the
   gating behaviour is reproducible in tests.

Snapshots ride the existing schema-v1 trace stream as ``bnb.progress``
*counter* events (value 1, snapshot in ``attrs``) -- so they flow through
the :class:`~repro.obs.streaming.StreamingRecorder`, cross-process
``ingest``, and trace-id filtering with zero reader changes, and
``counter_totals["bnb.progress"]`` is simply the heartbeat count; the
``bnb.gap`` / ``bnb.nodes_per_second`` gauges derive from the same
events.  Firing reports also invoke an optional ``sink`` callback (how
worker processes stream snapshots to the parent mid-``call()``).

The tracker reaches the solver ambiently through
:func:`progress_context`, mirroring ``trace_context``, so
``construct_tree`` and the service scheduler need no signature churn.
"""

from __future__ import annotations

import contextvars
import math
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, Optional

__all__ = [
    "ProgressTracker",
    "progress_context",
    "current_progress",
    "format_progress_line",
]

#: The ambient progress tracker.  A ``contextvars`` var so each scheduler
#: worker thread sees the tracker of the job it is executing, with zero
#: signature churn in ``construct_tree`` / the engines.
_PROGRESS: "contextvars.ContextVar[Optional[ProgressTracker]]" = (
    contextvars.ContextVar("repro_progress", default=None)
)


def current_progress() -> Optional["ProgressTracker"]:
    """The tracker of the enclosing :func:`progress_context`, or ``None``."""
    return _PROGRESS.get()


@contextmanager
def progress_context(
    tracker: Optional["ProgressTracker"],
) -> Iterator[Optional["ProgressTracker"]]:
    """Bind ``tracker`` as the ambient progress sink for the block.

    Every :class:`~repro.bnb.sequential.BranchAndBoundSolver` solve inside
    the block drives the tracker from its inner loop.  ``None`` is a
    no-op, so call sites can pass an optional tracker unconditionally.
    """
    if tracker is None:
        yield None
        return
    token = _PROGRESS.set(tracker)
    try:
        yield tracker
    finally:
        _PROGRESS.reset(token)


def format_progress_line(snapshot: Dict[str, object]) -> str:
    """One human-readable line for a snapshot (``--progress`` / ``watch``)."""
    incumbent = snapshot.get("incumbent_cost")
    lb = snapshot.get("best_lower_bound")
    gap = snapshot.get("gap")
    expanded = snapshot.get("nodes_expanded", 0)
    nps = snapshot.get("nodes_per_second")
    elapsed = snapshot.get("elapsed", 0.0)
    inc_text = "inf" if incumbent is None else f"{float(incumbent):.6g}"
    lb_text = "-inf" if lb is None else f"{float(lb):.6g}"
    gap_text = "?" if gap is None else f"{100.0 * float(gap):.2f}%"
    if nps is None:
        elapsed_f = float(elapsed or 0.0)
        nps = float(expanded) / elapsed_f if elapsed_f > 0 else 0.0
    return (
        f"[bnb] incumbent={inc_text} bound={lb_text} gap={gap_text} "
        f"expanded={int(expanded)} open={int(snapshot.get('open_size', 0))} "
        f"{float(nps):,.0f} nodes/s elapsed={float(elapsed):.2f}s"
    )


def _frontier_bound(open_nodes) -> float:
    """The smallest lower bound of a non-empty open list: a sequence of
    nodes, or a search that reports it (``min_lower_bound()``, the
    native core's C-owned stack)."""
    reader = getattr(open_nodes, "min_lower_bound", None)
    if reader is not None:
        return reader()
    return min(node.lower_bound for node in open_nodes)


class ProgressTracker:
    """Throttled incumbent/bound snapshot stream for one B&B solve.

    The solver calls :meth:`tick` once per loop iteration (cheap: one
    clock read and two comparisons when gated closed) and :meth:`final`
    once when the search settles (always fires, so every tracked solve
    yields at least one snapshot).  A tracker is single-solve state;
    create a fresh one per job.

    Parameters
    ----------
    interval_seconds:
        Minimum seconds between interval-triggered reports.
    min_delta:
        An incumbent improvement larger than this fires a report
        immediately, regardless of the interval.
    recorder:
        Optional recorder; firing reports emit ``bnb.progress`` counter
        events (value 1, snapshot attrs).  Its metrics registry derives
        the ``bnb.gap`` and ``bnb.nodes_per_second`` gauges from them,
        trace on or off.
    sink:
        Optional callable receiving each snapshot dict (the worker
        process's bridge to the parent; the CLI's stderr printer).
    clock:
        Injectable time source (default ``time.perf_counter``).
    """

    __slots__ = (
        "interval_seconds",
        "min_delta",
        "recorder",
        "sink",
        "clock",
        "latest",
        "reports",
        "_t0",
        "_next_report",
        "_last_incumbent",
        "_best_lb",
    )

    def __init__(
        self,
        *,
        interval_seconds: float = 0.25,
        min_delta: float = 0.0,
        recorder=None,
        sink: Optional[Callable[[Dict[str, object]], None]] = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        if interval_seconds < 0:
            raise ValueError("interval_seconds must be >= 0")
        self.interval_seconds = float(interval_seconds)
        self.min_delta = float(min_delta)
        self.recorder = recorder
        self.sink = sink
        self.clock = clock
        self.latest: Optional[Dict[str, object]] = None
        self.reports = 0
        self._t0: Optional[float] = None
        self._next_report = -math.inf
        self._last_incumbent = math.inf
        self._best_lb = -math.inf

    # ------------------------------------------------------------------
    # driving (solver side)
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Anchor the solve clock.  Idempotent; ``tick`` calls it lazily."""
        if self._t0 is None:
            self._t0 = self.clock()
            self._next_report = self._t0 + self.interval_seconds

    def tick(self, incumbent: float, stats, open_nodes) -> None:
        """One inner-loop heartbeat; reports only when a gate opens.

        ``stats`` is the solver's ``SearchStats`` (read for
        ``nodes_expanded`` / ``nodes_created``); ``open_nodes`` the live
        open list (or a sized search with ``min_lower_bound()``), scanned
        for the best lower bound *only* when a report actually fires.
        """
        if self._t0 is None:
            self.start()
        now = self.clock()
        # Gate closed while the interval hasn't elapsed and the incumbent
        # hasn't improved by more than min_delta (>=: an unchanged
        # incumbent never fires on the delta gate).
        if (
            now < self._next_report
            and incumbent >= self._last_incumbent - self.min_delta
        ):
            return
        self._report(incumbent, stats, open_nodes, now, final=False)

    def final(self, incumbent: float, stats, open_nodes=()) -> None:
        """Unconditional closing report; guarantees >= 1 snapshot.

        With an empty ``open_nodes`` (search exhausted or pruned dry) the
        lower bound closes onto the incumbent and the gap reads 0.
        """
        if self._t0 is None:
            self.start()
        self._report(incumbent, stats, open_nodes, self.clock(), final=True)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _report(
        self, incumbent: float, stats, open_nodes, now: float, *, final: bool
    ) -> None:
        self._next_report = now + self.interval_seconds
        self._last_incumbent = incumbent
        elapsed = now - self._t0
        # The global lower bound is the weakest open node's; scanned only
        # here (a firing report), never per tick.  Clamped monotone
        # non-decreasing and never above the incumbent.
        if open_nodes:
            lb = _frontier_bound(open_nodes)
        elif final:
            lb = incumbent
        else:
            lb = self._best_lb
        if lb > self._best_lb:
            self._best_lb = lb
        lb = min(self._best_lb, incumbent)
        if math.isinf(incumbent):
            gap = math.inf if math.isinf(lb) else 1.0
        elif math.isinf(lb):
            gap = 1.0
        else:
            denom = abs(incumbent)
            gap = max(0.0, incumbent - lb) / denom if denom > 0 else 0.0
        expanded = int(getattr(stats, "nodes_expanded", 0))
        nps = expanded / elapsed if elapsed > 0 else 0.0
        snapshot: Dict[str, object] = {
            "incumbent_cost": None if math.isinf(incumbent) else incumbent,
            "best_lower_bound": None if math.isinf(lb) else lb,
            "gap": None if math.isinf(gap) else gap,
            "nodes_expanded": expanded,
            "nodes_created": int(getattr(stats, "nodes_created", 0)),
            "open_size": len(open_nodes),
            "elapsed": elapsed,
            "nodes_per_second": nps,
            "final": final,
        }
        self.latest = snapshot
        self.reports += 1
        if self.recorder is not None:
            self.recorder.counter("bnb.progress", 1, **snapshot)
        if self.sink is not None:
            self.sink(snapshot)

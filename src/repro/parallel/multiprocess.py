"""Real multi-core execution of the parallel branch-and-bound.

The simulator in :mod:`repro.parallel.simulator` models the papers'
cluster; this module actually runs the same master/slave decomposition on
local cores, serving as an end-to-end check that the decomposition logic
is sound:

* the master (the calling thread) relabels the matrix, seeds the UPGMM
  upper bound and pre-branches the BBT to ``2 * p`` nodes
  (:meth:`~repro.bnb.sequential.SearchCore.prebranch`);
* the frontier is dealt cyclically into ``p`` shares; the calling thread
  searches share 0 itself and one :class:`threading.Thread` per further
  share searches the rest;
* every worker runs the sequential solver's depth-first driver
  (:meth:`~repro.bnb.sequential.SearchCore.depth_first`) on its share.
  On the native search core the threads run in parallel: the core keeps
  no global state and ``ctypes`` releases the GIL for each call.  Between
  strides of 64 loop iterations a worker lowers its bound to the shared
  one and stops if another worker raised; after an improving stride it
  publishes its bound under a lock (the "global upper bound broadcast");
* the master joins every thread, offers each worker's best topology to
  its incumbent and verifies ``|tree.cost() - cost| < 1e-9`` on receipt.

Where the native core cannot run (the 3-3 filter, more than 62 species,
no C compiler) the threads run the Python search, which holds the GIL:
the result is the same exact optimum, but on one core.

A worker that raises sets the stop flag, so the others end at their next
stride; the master joins every thread before it returns or raises, and
reports the failure as a :class:`RuntimeError` naming the worker and
carrying its traceback.
"""

from __future__ import annotations

import threading
import traceback
from dataclasses import dataclass
from typing import List, Optional

from repro.bnb.sequential import (
    BranchAndBoundSolver,
    Incumbent,
    SearchCore,
    SearchStats,
)
from repro.bnb.topology import PartialTopology
from repro.matrix.distance_matrix import DistanceMatrix
from repro.obs.progress import current_progress
from repro.obs.recorder import (
    NullRecorder,
    as_recorder,
    current_trace_id,
    trace_context,
)
from repro.tree.ultrametric import UltrametricTree

__all__ = ["MultiprocessResult", "multiprocess_mut"]

#: The master pre-branches to this many open nodes per worker (the
#: papers use 2).
_PREBRANCH_FACTOR = 2

#: Seconds between the master's progress ticks while it waits for the
#: other workers.
_JOIN_POLL_SECONDS = 0.005


@dataclass
class MultiprocessResult:
    """Outcome of a real multi-core run."""

    tree: UltrametricTree
    cost: float
    nodes_expanded: int
    nodes_pruned: int
    n_workers: int
    initial_upper_bound: float


class _Board:
    """What the workers share: the global upper bound and the stop flag."""

    def __init__(self, upper_bound: float) -> None:
        self.upper_bound = upper_bound
        self.stop = False
        self.lock = threading.Lock()

    def poll(self, search) -> bool:
        """The between-stride hook: adopt a lower published bound, and
        go on unless a worker raised."""
        published = self.upper_bound
        if published < search.upper_bound:
            search.upper_bound = published
        return not self.stop

    def publish(self, search) -> None:
        """The improving-stride hook."""
        with self.lock:
            if search.upper_bound < self.upper_bound:
                self.upper_bound = search.upper_bound


class _Worker:
    """One share of the frontier, and what searching it produced."""

    def __init__(self, worker_id: int, nodes: List[PartialTopology]) -> None:
        self.worker_id = worker_id
        # The depth-first driver pops the last node first: lowest bound.
        self.nodes = sorted(nodes, key=lambda t: -t.lower_bound)
        self.stats = SearchStats()
        self.best: Optional[PartialTopology] = None
        self.error: Optional[Exception] = None
        self.start = self.end = 0.0
        self.done = False
        self.search = None  # set while the caller's thread reads it live

    def run(
        self, core: SearchCore, board: _Board, clock, between=None
    ) -> None:
        self.start = clock()
        try:
            with core.depth_first(
                self.nodes, board.upper_bound, self.stats,
                between=between or board.poll, improved=board.publish,
            ) as search:
                # Only this worker's own improvements count as its result.
                if self.stats.ub_updates:
                    self.best = search.best()
        except Exception as exc:  # noqa: BLE001 - re-raised by the master
            board.stop = True
            self.error = exc
        self.end = clock()
        self.done = True


class _Searching:
    """The search as the progress tracker reads it, as both the stats and
    the open nodes.  A worker's search is read live while it runs on the
    caller's thread (worker 0, where the tracker ticks); another share
    counts with its starting nodes until its worker is done, since no
    node below them bounds lower than they do."""

    def __init__(self, master: SearchStats, workers: List[_Worker]):
        self.master = master
        self.workers = workers

    def _parts(self):
        for worker in self.workers:
            if worker.search is not None:
                yield worker.search
            elif not worker.done:
                yield worker.nodes

    def __len__(self) -> int:
        return sum(len(part) for part in self._parts())

    def min_lower_bound(self) -> float:
        # A share's starting nodes are sorted by falling bound.
        return min(
            part[-1].lower_bound if isinstance(part, list)
            else part.min_lower_bound()
            for part in self._parts() if len(part)
        )

    def _total(self, name: str) -> int:
        return getattr(self.master, name) + sum(
            getattr(w.stats if w.search is None else w.search.stats, name)
            for w in self.workers
        )

    @property
    def nodes_expanded(self) -> int:
        return self._total("nodes_expanded")

    @property
    def nodes_created(self) -> int:
        return self.nodes_expanded + self._total("nodes_pruned") + len(self)


def multiprocess_mut(
    matrix: DistanceMatrix,
    n_workers: int = 4,
    *,
    lower_bound: str = "minfront",
    relationship_33: bool = False,
    enforce_all_33: bool = False,
    use_kernel: bool = True,
    recorder: Optional[NullRecorder] = None,
    trace_id: Optional[str] = None,
) -> MultiprocessResult:
    """Exact minimum ultrametric tree using ``n_workers`` worker threads.

    Falls back to the sequential solver for tiny inputs or ``n_workers=1``.
    With a ``recorder``, the run executes inside an ``mp.solve`` span,
    and each worker contributes an ``mp.worker`` span (its thread's start
    to its finish, recorded by the master after the join -- the same
    per-worker interval model as the simulator's trace) and its
    expand/prune counters.

    ``trace_id`` correlates the run with an originating request; it
    defaults to the ambient :func:`~repro.obs.recorder.current_trace_id`
    (set by the serving layer around each job) and is stamped on the
    ``mp.solve`` and every ``mp.worker`` span.
    """
    if n_workers < 1:
        raise ValueError("n_workers must be positive")
    rec = as_recorder(recorder)
    if trace_id is None:
        trace_id = current_trace_id()
    with trace_context(trace_id), rec.span(
        "mp.solve", n=matrix.n, workers=n_workers
    ):
        return _multiprocess_impl(
            matrix,
            n_workers,
            rec,
            lower_bound=lower_bound,
            relationship_33=relationship_33,
            enforce_all_33=enforce_all_33,
            use_kernel=use_kernel,
        )


def _multiprocess_impl(
    matrix: DistanceMatrix,
    n_workers: int,
    rec: NullRecorder,
    **options,
) -> MultiprocessResult:
    """The run inside the ``mp.solve`` span; ``options`` are the search
    options :class:`SearchCore` and the sequential solver share."""
    if matrix.n < 4 or n_workers == 1:
        seq = BranchAndBoundSolver(recorder=rec, **options).solve(matrix)
        return MultiprocessResult(
            tree=seq.tree,
            cost=seq.cost,
            nodes_expanded=seq.stats.nodes_expanded,
            nodes_pruned=seq.stats.nodes_pruned,
            n_workers=1,
            initial_upper_bound=seq.stats.initial_upper_bound,
        )

    core = SearchCore(matrix, **options)
    # Resolve (and, on first use, build) the native core once, before
    # the workers start.
    core.native_library()
    # ``master`` keeps the global best: the pre-branch's incumbent, later
    # offered every worker's result.
    frontier, master = core.prebranch(_PREBRANCH_FACTOR * n_workers)
    expanded = master.stats.nodes_expanded
    pruned = master.stats.nodes_pruned

    workers = [
        _Worker(worker_id, frontier[worker_id::n_workers])
        for worker_id in range(min(n_workers, len(frontier)))
    ]
    # The parallel master reports progress after pre-branching (the
    # frontier's bounds are the global lower bound), while the workers
    # search, and once they are done.
    tracker = current_progress()
    searching = _Searching(master.stats, workers)
    if not frontier:
        if tracker is not None:
            tracker.final(master.upper_bound, searching, searching)
        return _result(core, master, expanded, pruned, n_workers)
    board = _Board(master.upper_bound)
    between = None
    if tracker is not None:
        tracker.tick(master.upper_bound, searching, searching)

        def between(search) -> bool:
            workers[0].search = search
            go_on = board.poll(search)
            tracker.tick(search.upper_bound, searching, searching)
            return go_on

    threads: List[threading.Thread] = []
    try:
        for worker in workers[1:]:
            thread = threading.Thread(
                target=worker.run, args=(core, board, rec.clock),
                name=f"repro-mp-worker-{worker.worker_id}", daemon=True,
            )
            thread.start()
            threads.append(thread)
        try:
            workers[0].run(core, board, rec.clock, between)
        finally:
            workers[0].search = None  # closed with its ``with`` block
        for thread in threads if tracker is not None else ():
            while thread.is_alive():
                thread.join(_JOIN_POLL_SECONDS)
                tracker.tick(board.upper_bound, searching, searching)
    except BaseException:
        board.stop = True
        raise
    finally:
        for thread in threads:
            thread.join()

    for worker in workers:
        if worker.error is not None:
            error = worker.error
            trace = "".join(traceback.format_exception(
                type(error), error, error.__traceback__
            ))
            raise RuntimeError(
                f"branch-and-bound worker {worker.worker_id} raised:\n{trace}"
            ) from worker.error

    for worker in workers:
        worker_id = worker.worker_id
        expanded += worker.stats.nodes_expanded
        pruned += worker.stats.nodes_pruned
        if rec.enabled:
            rec.add_span("mp.worker", worker.start, worker.end, worker=worker_id)
            rec.counter(
                "mp.nodes_expanded", worker.stats.nodes_expanded,
                worker=worker_id,
            )
            rec.counter(
                "mp.nodes_pruned", worker.stats.nodes_pruned, worker=worker_id
            )
        best = worker.best
        if best is not None and master.offer(best):
            realised = best.to_tree(core.labels).cost()
            if abs(realised - best.cost) > 1e-9:
                raise RuntimeError(
                    f"worker {worker_id} reported cost {best.cost!r} but "
                    f"its tree realises {realised!r}"
                )

    if tracker is not None:
        tracker.final(master.upper_bound, searching, searching)
    return _result(core, master, expanded, pruned, n_workers)


def _result(
    core: SearchCore, master: Incumbent, expanded: int, pruned: int,
    n_workers: int,
) -> MultiprocessResult:
    best = master.topology
    return MultiprocessResult(
        tree=core.seed if best is None else best.to_tree(core.labels),
        cost=master.upper_bound,
        nodes_expanded=expanded,
        nodes_pruned=pruned,
        n_workers=n_workers,
        initial_upper_bound=core.seed_cost,
    )

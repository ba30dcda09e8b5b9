"""Real multi-core execution of the parallel branch-and-bound.

The simulator in :mod:`repro.parallel.simulator` models the papers'
cluster; this module actually runs the same master/slave decomposition on
local cores with :mod:`multiprocessing`, serving as an end-to-end sanity
check that the decomposition logic is sound:

* the master (parent process) relabels the matrix, seeds the UPGMM upper
  bound and pre-branches the BBT to ``2 * p`` nodes
  (:meth:`~repro.bnb.sequential.SearchCore.prebranch`);
* the frontier is dispatched cyclically to ``p`` worker processes;
* workers run the sequential solver's depth-first driver
  (:meth:`~repro.bnb.sequential.SearchCore.depth_first`, on the native
  search core when it can run) on their share, publishing improved
  upper bounds through a shared ``multiprocessing.Value`` (the "global
  upper bound broadcast") that every worker polls between strides of
  64 loop iterations;
* the master gathers per-worker optima and returns the global best.

Production hardening (vs. the original prototype):

* **Start-method portability** -- ``fork`` is used where available (it is
  the cheapest), falling back to ``spawn`` on platforms without it
  (Windows) or when the caller asks; every worker argument is picklable,
  so both start methods produce identical results.
* **Exact result transport** -- workers ship their best topology as a
  :meth:`~repro.bnb.topology.PartialTopology.to_payload` tuple whose
  floats survive pickling bit-exactly (the prototype round-tripped
  through a 12-digit Newick string, so the re-parsed tree's cost could
  disagree with the reported cost).  The master re-materialises the tree
  and verifies ``|tree.cost() - cost| < 1e-9`` on receipt.
* **Liveness supervision** -- the master polls the result queue with a
  timeout and watches worker exit codes, so a worker killed by the OOM
  killer or a signal raises a :class:`RuntimeError` naming the dead
  worker instead of blocking forever on ``Queue.get()``.  Worker-side
  exceptions travel back as formatted tracebacks.  All processes are
  terminated and joined in a ``finally`` block.
"""

from __future__ import annotations

import multiprocessing
import traceback
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.bnb.sequential import (
    BranchAndBoundSolver,
    Incumbent,
    SearchCore,
    SearchStats,
)
from repro.bnb.topology import PartialTopology
from repro.matrix.distance_matrix import DistanceMatrix
from repro.obs.progress import current_progress
from repro.parallel.executor import gather_one_per_worker
from repro.obs.recorder import (
    NullRecorder,
    as_recorder,
    current_trace_id,
    trace_context,
)
from repro.tree.ultrametric import UltrametricTree

__all__ = ["MultiprocessResult", "multiprocess_mut", "select_start_method"]

#: The master pre-branches to this many open nodes per worker (the
#: papers use 2).
_PREBRANCH_FACTOR = 2
#: Seconds between liveness checks while the master waits for results.
_POLL_TIMEOUT = 0.25
#: Consecutive empty polls tolerated after every pending worker exited
#: cleanly (exit code 0) without its result arriving, before the master
#: gives up.  Covers the short window in which a finished worker's queue
#: feeder thread has written the payload but the pipe is not yet readable.
_LOST_RESULT_GRACE = 20


def select_start_method(preferred: Optional[str] = None) -> str:
    """Pick a :mod:`multiprocessing` start method that exists here.

    ``fork`` is preferred where the platform offers it (cheapest, shares
    the parent's pages); otherwise ``spawn``.  Passing ``preferred``
    forces that method, raising :class:`ValueError` if the platform does
    not support it (e.g. ``fork`` on Windows).
    """
    available = multiprocessing.get_all_start_methods()
    if preferred is not None:
        if preferred not in available:
            raise ValueError(
                f"start method {preferred!r} is not available on this "
                f"platform; choose from {available}"
            )
        return preferred
    return "fork" if "fork" in available else "spawn"


@dataclass
class MultiprocessResult:
    """Outcome of a real multi-process run."""

    tree: UltrametricTree
    cost: float
    nodes_expanded: int
    nodes_pruned: int
    n_workers: int
    initial_upper_bound: float
    #: Resolved multiprocessing start method ("fork"/"spawn"), or
    #: "sequential" when the input was solved in-process.
    start_method: str = "fork"


def _worker_main(
    worker_id: int,
    core: SearchCore,
    payloads: List[tuple],
    shared_ub,
    result_queue,
    trace_id: Optional[str] = None,
) -> None:
    """DFS-complete a share of the frontier (runs in a child process).

    Every argument is picklable so the function works under both the
    ``fork`` and ``spawn`` start methods.  Results (or a formatted
    traceback on failure) are reported through ``result_queue`` as
    ``(kind, worker_id, cost_or_traceback, payload, counters)`` tuples.
    ``trace_id`` is the originating request's correlation id; the worker
    echoes it back inside ``counters`` so the master stamps each
    ``mp.worker`` span with an id that genuinely crossed the process
    boundary (not one re-read from master-side state).

    Between strides the worker lowers its bound to the shared one, and
    publishes its own improvements as soon as a stride makes one.
    """
    stats = SearchStats()

    def poll(search) -> bool:
        published = shared_ub.value
        if published < search.upper_bound:
            search.upper_bound = published
        return True

    def publish(search) -> None:
        with shared_ub.get_lock():
            if search.upper_bound < shared_ub.value:
                shared_ub.value = search.upper_bound

    try:
        nodes = sorted(
            (PartialTopology.from_payload(p, core.half) for p in payloads),
            key=lambda t: -t.lower_bound,
        )
        with core.depth_first(
            nodes, shared_ub.value, stats, between=poll, improved=publish
        ) as search:
            # Only this worker's own improvements count as its result.
            best = search.best() if stats.ub_updates else None
        message = ("result", worker_id) + (
            (None, None) if best is None else (best.cost, best.to_payload())
        )
    except Exception:
        message = ("error", worker_id, traceback.format_exc(), None)
    counters = {
        "expanded": stats.nodes_expanded,
        "pruned": stats.nodes_pruned,
        "trace_id": trace_id,
    }
    result_queue.put(message + (counters,))


def _gather_results(
    processes: Dict[int, "multiprocessing.process.BaseProcess"],
    result_queue,
    arrivals: Optional[Dict[int, float]] = None,
    clock=None,
) -> List[tuple]:
    """Collect one message per worker, supervising worker liveness.

    Thin wrapper over the reusable supervision primitive
    :func:`repro.parallel.executor.gather_one_per_worker` (the logic
    started life here and was extracted for the serving layer's process
    backend).  Raises a typed :class:`~repro.parallel.executor.
    WorkerCrashed` / :class:`~repro.parallel.executor.RemoteTaskError`
    (both ``RuntimeError`` subclasses) naming the worker when one dies
    without reporting or ships back an exception traceback.
    """
    return gather_one_per_worker(
        processes,
        result_queue,
        arrivals=arrivals,
        clock=clock,
        poll_timeout=_POLL_TIMEOUT,
        lost_result_grace=_LOST_RESULT_GRACE,
        what="branch-and-bound worker",
    )


def multiprocess_mut(
    matrix: DistanceMatrix,
    n_workers: int = 4,
    *,
    lower_bound: str = "minfront",
    relationship_33: bool = False,
    enforce_all_33: bool = False,
    use_kernel: bool = True,
    start_method: Optional[str] = None,
    recorder: Optional[NullRecorder] = None,
    trace_id: Optional[str] = None,
) -> MultiprocessResult:
    """Exact minimum ultrametric tree using real worker processes.

    Falls back to the sequential solver for tiny inputs or ``n_workers=1``.
    ``start_method`` forces a :mod:`multiprocessing` start method
    (``"fork"``/``"spawn"``/``"forkserver"``); by default the cheapest
    method the platform supports is used (see :func:`select_start_method`).
    With a ``recorder``, the run executes inside an ``mp.solve`` span,
    each worker process contributes an ``mp.worker`` span (master-side
    wall clock, process start to result arrival -- the same per-worker
    interval model as the simulator's trace) and its expand/prune
    counters.

    ``trace_id`` correlates the run with an originating request; it
    defaults to the ambient :func:`~repro.obs.recorder.current_trace_id`
    (set by the serving layer around each job), is shipped to every
    worker process, and comes back stamped on that worker's ``mp.worker``
    span -- end-to-end request-to-worker correlation.
    """
    if n_workers < 1:
        raise ValueError("n_workers must be positive")
    rec = as_recorder(recorder)
    method = select_start_method(start_method)
    if trace_id is None:
        trace_id = current_trace_id()
    with trace_context(trace_id), rec.span(
        "mp.solve", n=matrix.n, workers=n_workers, start_method=method
    ):
        return _multiprocess_impl(
            matrix,
            n_workers,
            method,
            rec,
            trace_id,
            lower_bound=lower_bound,
            relationship_33=relationship_33,
            enforce_all_33=enforce_all_33,
            use_kernel=use_kernel,
        )


def _multiprocess_impl(
    matrix: DistanceMatrix,
    n_workers: int,
    method: str,
    rec: NullRecorder,
    trace_id: Optional[str],
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
            start_method="sequential",
        )

    core = SearchCore(matrix, **options)
    # Resolve the native core before forking, so workers inherit it.
    core.native_library()
    # ``master`` keeps the global best: the pre-branch's incumbent, later
    # offered every worker's result.
    frontier, master = core.prebranch(_PREBRANCH_FACTOR * n_workers)
    expanded = master.stats.nodes_expanded
    pruned = master.stats.nodes_pruned

    # The parallel master reports progress at its natural heartbeat
    # points: after pre-branching (the frontier's bounds are the global
    # lower bound) and on each worker-result arrival (the shared upper
    # bound carries workers' live incumbent improvements).
    tracker = current_progress()

    def report(incumbent: float, open_nodes=(), final: bool = False) -> None:
        if tracker is not None:
            stats = SearchStats(
                nodes_expanded=expanded,
                nodes_created=expanded + pruned + len(open_nodes),
            )
            (tracker.final if final else tracker.tick)(
                incumbent, stats, open_nodes
            )

    if not frontier:
        report(master.upper_bound, final=True)
        return _result(core, master, expanded, pruned, n_workers, method)
    report(master.upper_bound, frontier)

    shares: List[List[tuple]] = [[] for _ in range(n_workers)]
    for index, node in enumerate(frontier):
        shares[index % n_workers].append(node.to_payload())

    ctx = multiprocessing.get_context(method)
    shared_ub = ctx.Value("d", master.upper_bound)
    result_queue = ctx.Queue()
    processes: Dict[int, "multiprocessing.process.BaseProcess"] = {}
    starts: Dict[int, float] = {}
    arrivals: Dict[int, float] = {}
    try:
        for worker_id, share in enumerate(shares):
            if not share:
                continue
            proc = ctx.Process(
                target=_worker_main,
                args=(worker_id, core, share, shared_ub, result_queue, trace_id),
                daemon=True,
            )
            starts[worker_id] = rec.clock()
            proc.start()
            processes[worker_id] = proc

        for message in _gather_results(
            processes, result_queue, arrivals=arrivals, clock=rec.clock
        ):
            _, worker_id, cost, payload, counters = message
            expanded += counters["expanded"]
            pruned += counters["pruned"]
            report(min(master.upper_bound, shared_ub.value))
            if rec.enabled:
                # Stamp the trace id that round-tripped through the
                # worker process, not the master-side ambient one.
                span_attrs = {"worker": worker_id}
                if counters.get("trace_id") is not None:
                    span_attrs["trace_id"] = counters["trace_id"]
                rec.add_span(
                    "mp.worker",
                    starts[worker_id],
                    arrivals.get(worker_id, rec.clock()),
                    **span_attrs,
                )
                rec.counter(
                    "mp.nodes_expanded", counters["expanded"], worker=worker_id
                )
                rec.counter(
                    "mp.nodes_pruned", counters["pruned"], worker=worker_id
                )
            if payload is not None and master.offer(
                PartialTopology.from_payload(payload, core.half)
            ):
                realised = master.topology.to_tree(core.labels).cost()
                if abs(realised - cost) > 1e-9:
                    raise RuntimeError(
                        f"worker {worker_id} reported cost {cost!r} but its "
                        f"tree realises {realised!r} (lossy transport?)"
                    )
    finally:
        for proc in processes.values():
            if proc.is_alive():
                proc.terminate()
        for proc in processes.values():
            proc.join(timeout=5.0)
        result_queue.close()

    report(master.upper_bound, final=True)
    return _result(core, master, expanded, pruned, n_workers, method)


def _result(
    core: SearchCore, master: Incumbent, expanded: int, pruned: int,
    n_workers: int, method: str,
) -> MultiprocessResult:
    best = master.topology
    return MultiprocessResult(
        tree=core.seed if best is None else best.to_tree(core.labels),
        cost=master.upper_bound,
        nodes_expanded=expanded,
        nodes_pruned=pruned,
        n_workers=n_workers,
        initial_upper_bound=core.seed_cost,
        start_method=method,
    )

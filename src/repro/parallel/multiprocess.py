"""Real multi-core execution of the parallel branch-and-bound.

The simulator in :mod:`repro.parallel.simulator` models the papers'
cluster; this module actually runs the same master/slave decomposition on
local cores with :mod:`multiprocessing`, serving as an end-to-end sanity
check that the decomposition logic is sound:

* the master (parent process) relabels the matrix, seeds the UPGMM upper
  bound and pre-branches the BBT to ``prebranch_factor * p`` nodes;
* the frontier is dispatched cyclically to ``p`` worker processes;
* workers run the sequential DFS on their share -- in the native search
  core (:mod:`repro.bnb.native`) when it is available -- publishing
  improved upper bounds through a shared ``multiprocessing.Value`` (the
  "global upper bound broadcast") that every worker polls every
  ``poll_interval`` expansions (loop iterations in the native core);
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

import heapq
import multiprocessing
import traceback
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.bnb import native
from repro.bnb.bounds import search_context
from repro.bnb.kernel import BranchKernel, expand_positions
from repro.bnb.relationship import insertion_is_consistent
from repro.bnb.topology import PartialTopology
from repro.bnb.sequential import BranchAndBoundSolver, SearchStats
from repro.heuristics.upgma import upgmm
from repro.matrix.distance_matrix import DistanceMatrix
from repro.matrix.maxmin import apply_maxmin
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

_EPS = 1e-9
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
    payloads: List[tuple],
    half: List[List[float]],
    tails: List[float],
    values: List[List[float]],
    check_33: bool,
    enforce_all_33: bool,
    shared_ub,
    result_queue,
    poll_interval: int,
    trace_id: Optional[str] = None,
    use_kernel: bool = True,
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
    """
    expanded = 0
    pruned = 0
    try:
        topologies = [PartialTopology.from_payload(p, half) for p in payloads]
        stack = sorted(topologies, key=lambda t: -t.lower_bound)
        plain = use_kernel and not check_33
        lib = native.library_for(len(values)) if plain else None
        if lib is not None:
            best, expanded, pruned = _native_share(
                lib, stack, half, tails, shared_ub, poll_interval
            )
        else:
            best, expanded, pruned = _python_share(
                stack, half, tails, values, check_33, enforce_all_33,
                shared_ub, poll_interval, use_kernel,
            )

        counters = {
            "expanded": expanded, "pruned": pruned, "trace_id": trace_id,
        }
        if best is None:
            result_queue.put(("result", worker_id, None, None, counters))
        else:
            result_queue.put(
                ("result", worker_id, best.cost, best.to_payload(), counters)
            )
    except Exception:
        result_queue.put(
            (
                "error",
                worker_id,
                traceback.format_exc(),
                None,
                {"expanded": expanded, "pruned": pruned, "trace_id": trace_id},
            )
        )


def _publish(shared_ub, cost: float) -> None:
    """Lower the shared upper bound to ``cost`` if that improves it."""
    with shared_ub.get_lock():
        if cost < shared_ub.value:
            shared_ub.value = cost


def _native_share(
    lib, stack, half, tails, shared_ub, poll_interval: int
) -> Tuple[Optional[PartialTopology], int, int]:
    """DFS-complete ``stack`` in the native core.

    The shared upper bound is polled every ``poll_interval`` loop
    iterations (the stride) and published after every improving
    expansion.  Returns ``(best, expanded, pruned)``.
    """
    with native.NativeSearch(
        lib, half, tails, stack, shared_ub.value,
        keep_margin=-_EPS, eps=_EPS,
    ) as search:
        header = search.header
        while True:
            published = shared_ub.value
            if published < header.upper_bound:
                header.upper_bound = published
            status = search.run(poll_interval)
            if status == native.IMPROVED:
                _publish(shared_ub, header.upper_bound)
            elif status == native.EXHAUSTED:
                break
        # Only this worker's own improvements count as its result.
        best = search.best() if header.ub_updates else None
        return best, header.nodes_expanded, header.nodes_pruned


def _python_share(
    stack, half, tails, values, check_33: bool, enforce_all_33: bool,
    shared_ub, poll_interval: int, use_kernel: bool,
) -> Tuple[Optional[PartialTopology], int, int]:
    """The reference worker loop (3-3 filter, scalar path, no C core)."""
    kernel = BranchKernel(half) if use_kernel else None
    if kernel is not None and not kernel.supported:
        kernel = None  # oversized matrix: scalar fallback
    expanded = 0
    pruned = 0
    local_ub = shared_ub.value
    best: Optional[PartialTopology] = None
    n = len(values)
    while stack:
        node = stack.pop()
        if expanded % poll_interval == 0:
            published = shared_ub.value
            if published < local_ub:
                local_ub = published
        if node.lower_bound > local_ub - _EPS:
            pruned += 1
            continue
        expanded += 1
        s = node.next_species
        tail = tails[s + 1]
        survivors, cut = expand_positions(
            node, tail, local_ub - _EPS, kernel
        )
        pruned += cut
        if check_33:
            children = [
                child for child in survivors
                if insertion_is_consistent(
                    child, values, s, check_all_pairs=enforce_all_33
                )
            ]
        else:
            children = survivors
        if node.num_leaves + 1 == n:
            for child in children:
                if child.cost < local_ub - _EPS:
                    local_ub = child.cost
                    best = child
                    _publish(shared_ub, local_ub)
        else:
            children.sort(key=lambda c: -c.lower_bound)
            stack.extend(children)
    return best, expanded, pruned


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
    prebranch_factor: int = 2,
    poll_interval: int = 64,
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
            lower_bound,
            relationship_33,
            enforce_all_33,
            prebranch_factor,
            poll_interval,
            method,
            rec,
            trace_id,
            use_kernel,
        )


def _multiprocess_impl(
    matrix: DistanceMatrix,
    n_workers: int,
    lower_bound: str,
    relationship_33: bool,
    enforce_all_33: bool,
    prebranch_factor: int,
    poll_interval: int,
    method: str,
    rec: NullRecorder,
    trace_id: Optional[str] = None,
    use_kernel: bool = True,
) -> MultiprocessResult:
    if matrix.n < 4 or n_workers == 1:
        seq = BranchAndBoundSolver(
            lower_bound=lower_bound,
            relationship_33=relationship_33,
            enforce_all_33=enforce_all_33,
            use_kernel=use_kernel,
            recorder=rec,
        ).solve(matrix)
        return MultiprocessResult(
            tree=seq.tree,
            cost=seq.cost,
            nodes_expanded=seq.stats.nodes_expanded,
            nodes_pruned=seq.stats.nodes_pruned,
            n_workers=1,
            initial_upper_bound=seq.stats.initial_upper_bound,
            start_method="sequential",
        )

    ordered, _ = apply_maxmin(matrix)
    labels = ordered.labels
    values = [list(map(float, row)) for row in ordered.values]
    half, tails = search_context(ordered, lower_bound)
    check_33 = relationship_33 or enforce_all_33
    kernel = BranchKernel(half) if use_kernel else None
    if kernel is not None and not kernel.supported:
        kernel = None  # oversized matrix: scalar fallback
    if use_kernel and not check_33:
        # Resolve the native core before forking, so workers inherit it.
        native.library_for(matrix.n)

    seed = upgmm(ordered)
    upper_bound = seed.cost()
    best_tree: UltrametricTree = seed
    best_cost = upper_bound

    # Master pre-branching (same as the simulator's master phase): a heap
    # keyed by lower bound replaces the prototype's full re-sort per
    # iteration; ties pop the most recently created child first.
    root = PartialTopology.initial(half)
    root.lower_bound = root.cost + tails[2]
    queue: List[Tuple[float, int, PartialTopology]] = [
        (root.lower_bound, 0, root)
    ]
    heap_seq = 0
    target = prebranch_factor * n_workers
    expanded = 0
    pruned = 0
    n = matrix.n
    while queue and len(queue) < target:
        _, _, node = heapq.heappop(queue)
        if node.lower_bound > upper_bound - _EPS:
            pruned += 1
            continue
        expanded += 1
        s = node.next_species
        tail = tails[s + 1]
        survivors, cut = expand_positions(
            node, tail, upper_bound - _EPS, kernel
        )
        pruned += cut
        for child in survivors:
            if check_33 and not insertion_is_consistent(
                child, values, s, check_all_pairs=enforce_all_33
            ):
                continue
            if child.is_complete:
                if child.cost < upper_bound - _EPS:
                    upper_bound = child.cost
                    best_cost = child.cost
                    best_tree = child.to_tree(labels)
            else:
                heap_seq -= 1
                heapq.heappush(queue, (child.lower_bound, heap_seq, child))

    # The parallel master reports progress at its natural heartbeat
    # points: after pre-branching (the frontier's bounds are the global
    # lower bound) and on each worker-result arrival (the shared upper
    # bound carries workers' live incumbent improvements).
    tracker = current_progress()
    master_stats = SearchStats()

    frontier = [entry[2] for entry in queue]
    if not frontier:
        if tracker is not None:
            master_stats.nodes_expanded = expanded
            master_stats.nodes_created = expanded + pruned
            tracker.final(best_cost, master_stats)
        return MultiprocessResult(
            tree=best_tree,
            cost=best_cost,
            nodes_expanded=expanded,
            nodes_pruned=pruned,
            n_workers=n_workers,
            initial_upper_bound=seed.cost(),
            start_method=method,
        )

    if tracker is not None:
        master_stats.nodes_expanded = expanded
        master_stats.nodes_created = expanded + pruned + len(frontier)
        tracker.tick(upper_bound, master_stats, frontier)

    frontier.sort(key=lambda t: t.lower_bound)
    shares: List[List[tuple]] = [[] for _ in range(n_workers)]
    for index, node in enumerate(frontier):
        shares[index % n_workers].append(node.to_payload())

    ctx = multiprocessing.get_context(method)
    shared_ub = ctx.Value("d", upper_bound)
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
                args=(
                    worker_id,
                    share,
                    half,
                    tails,
                    values,
                    check_33,
                    enforce_all_33,
                    shared_ub,
                    result_queue,
                    poll_interval,
                    trace_id,
                    use_kernel,
                ),
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
            if tracker is not None:
                master_stats.nodes_expanded = expanded
                master_stats.nodes_created = expanded + pruned
                tracker.tick(
                    min(best_cost, shared_ub.value), master_stats, ()
                )
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
            if cost is not None and cost < best_cost - _EPS:
                tree = PartialTopology.from_payload(payload, half).to_tree(
                    labels
                )
                realised = tree.cost()
                if abs(realised - cost) > 1e-9:
                    raise RuntimeError(
                        f"worker {worker_id} reported cost {cost!r} but its "
                        f"tree realises {realised!r} (lossy transport?)"
                    )
                best_cost = cost
                best_tree = tree
    finally:
        for proc in processes.values():
            if proc.is_alive():
                proc.terminate()
        for proc in processes.values():
            proc.join(timeout=5.0)
        result_queue.close()

    if tracker is not None:
        master_stats.nodes_expanded = expanded
        master_stats.nodes_created = expanded + pruned
        tracker.final(best_cost, master_stats)
    return MultiprocessResult(
        tree=best_tree,
        cost=best_cost,
        nodes_expanded=expanded,
        nodes_pruned=pruned,
        n_workers=n_workers,
        initial_upper_bound=seed.cost(),
        start_method=method,
    )

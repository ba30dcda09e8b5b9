"""Algorithm BBU: sequential branch-and-bound for minimum ultrametric trees.

The solver follows the pseudo-code both papers reproduce from Wu, Chao &
Tang (1999):

1. relabel the species into a max-min permutation;
2. create the BBT root -- the unique topology over species 1 and 2;
3. run UPGMM, store its cost as the initial upper bound UB;
4. depth-first search: branch by grafting the next species onto every
   edge (children visited best-lower-bound first), delete nodes with
   ``LB >= UB``, update UB whenever a cheaper complete tree appears.

The optional 3-3 relationship constraint (Step 4 of the parallel paper)
filters children as they are generated.

Every exact engine runs on this module's :class:`SearchCore`: the
set-up above, one expansion step, and the frontier drivers over it
(depth-first, the masters' heap pre-branch; the simulator's pools call
the step directly).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, List, Optional, Sequence, Tuple

from repro.bnb import native
from repro.bnb.bounds import LOWER_BOUNDS, search_context
from repro.bnb.kernel import BranchKernel, expand_positions
from repro.bnb.relationship import insertion_is_consistent
from repro.bnb.topology import PartialTopology
from repro.heuristics.upgma import upgmm
from repro.matrix.distance_matrix import DistanceMatrix
from repro.matrix.maxmin import apply_maxmin
from repro.obs.progress import ProgressTracker, current_progress
from repro.obs.recorder import NullRecorder, as_recorder
from repro.tree.ultrametric import UltrametricTree

__all__ = [
    "SearchStats", "BBUResult", "Incumbent", "SearchCore",
    "BranchAndBoundSolver", "exact_mut",
]

#: Cost tolerance of every incumbent comparison and of the default
#: prune margin (``LB > UB - _EPS`` is pruned).
_EPS = 1e-9

#: Loop iterations (pops) per stride when a between-stride hook must run
#: often: progress ticks (whose own time gate is authoritative) and the
#: multiprocess workers' poll of the shared upper bound.
_STRIDE = 64

#: Loop iterations per stride when no hook needs to run often: about
#: 10 ms of native search between two points where Python may step in.
_QUIET_STRIDE = 16384


@dataclass
class SearchStats:
    """Counters describing one branch-and-bound run."""

    nodes_created: int = 0
    nodes_expanded: int = 0
    nodes_pruned: int = 0
    nodes_filtered_33: int = 0
    ub_updates: int = 0
    initial_upper_bound: float = 0.0
    best_cost: float = float("inf")
    elapsed_seconds: float = 0.0
    max_open_size: int = 0
    node_limit_hit: bool = False

    def merge(self, other: "SearchStats") -> None:
        """Accumulate another run's counters (used by the pipeline).

        ``best_cost`` folds as a minimum (the best tree any merged run
        found) and ``initial_upper_bound`` as a sum over subproblems --
        dropping them (the old behaviour) made pipeline-aggregated stats
        report a ``0.0`` seed bound and an ``inf`` best cost.
        """
        self.nodes_created += other.nodes_created
        self.nodes_expanded += other.nodes_expanded
        self.nodes_pruned += other.nodes_pruned
        self.nodes_filtered_33 += other.nodes_filtered_33
        self.ub_updates += other.ub_updates
        self.initial_upper_bound += other.initial_upper_bound
        self.best_cost = min(self.best_cost, other.best_cost)
        self.elapsed_seconds += other.elapsed_seconds
        self.max_open_size = max(self.max_open_size, other.max_open_size)
        self.node_limit_hit = self.node_limit_hit or other.node_limit_hit


@dataclass
class BBUResult:
    """Outcome of a branch-and-bound run."""

    tree: UltrametricTree
    cost: float
    stats: SearchStats
    optimal: bool = True
    #: All cost-optimal trees, populated when ``collect_all`` is set.
    all_trees: List[UltrametricTree] = field(default_factory=list)
    #: The search's best complete topology behind ``tree`` (``None`` when
    #: the UPGMM seed is returned because no search node matched it).
    topology: Optional[PartialTopology] = None


class Incumbent:
    """An upper bound, the topology that set it, and the counters of the
    search that lowers it.

    :meth:`SearchCore.step` offers it every complete tree it builds; the
    masters also offer it the workers' results.
    """

    __slots__ = ("upper_bound", "topology", "stats")

    def __init__(
        self, upper_bound: float, stats: Optional[SearchStats] = None
    ) -> None:
        self.upper_bound = upper_bound
        self.topology: Optional[PartialTopology] = None
        self.stats = SearchStats() if stats is None else stats

    def offer(self, child: PartialTopology) -> bool:
        """Take ``child`` if it beats the bound by more than ``_EPS``."""
        if child.cost < self.upper_bound - _EPS:
            self.upper_bound = child.cost
            self.topology = child
            self.stats.ub_updates += 1
            return True
        return False


class SearchCore:
    """One solve's search: the set-up done once, and the BBU step.

    The set-up relabels the species (max-min unless ``use_maxmin`` is
    off), reads the cached half matrix and tail bounds, runs UPGMM for
    the seed upper bound and builds the root.  A two-species matrix has
    nothing to search: its ``seed`` is the exact tree.  ``use_kernel``
    selects the NumPy kernel (built on first use) and allows the native
    core; the 3-3 options add the filter to every step.
    """

    def __init__(
        self,
        matrix: DistanceMatrix,
        lower_bound: str = "minfront",
        *,
        use_maxmin: bool = True,
        relationship_33: bool = False,
        enforce_all_33: bool = False,
        use_kernel: bool = True,
    ) -> None:
        ordered = apply_maxmin(matrix)[0] if use_maxmin else matrix
        self.n = ordered.n
        self.labels = ordered.labels
        self.values = [list(map(float, row)) for row in ordered.values]
        self.check_33 = relationship_33 or enforce_all_33
        self.enforce_all_33 = enforce_all_33
        self.use_kernel = use_kernel
        if self.n == 2:
            self.seed = UltrametricTree.join(
                UltrametricTree.leaf(self.labels[0]),
                UltrametricTree.leaf(self.labels[1]),
                self.values[0][1] / 2.0,
            )
            self.seed_cost = self.seed.cost()
            return
        # Cached per matrix identity: solving the same (relabelled)
        # matrix again -- pipeline subproblems, fallbacks, repeated
        # benchmark solves -- reuses the half-matrix and tail bounds.
        self.half, self.tails = search_context(ordered, lower_bound)
        self.seed = upgmm(ordered)
        self.seed_cost = self.seed.cost()
        self.root = PartialTopology.initial(self.half)
        self.root.lower_bound = self.root.cost + self.tails[2]

    @cached_property
    def kernel(self) -> Optional[BranchKernel]:
        """The batched kernel, or ``None`` for the scalar path."""
        if not self.use_kernel:
            return None
        kernel = BranchKernel(self.half)
        return kernel if kernel.supported else None  # oversized: scalar

    def native_library(self):
        """The native core if it can run this search, else ``None``.

        It runs the plain search only: the kernel's branching, no 3-3
        filter, the kernel's species range and a loadable library.
        """
        if not self.use_kernel or self.check_33:
            return None
        return native.library_for(self.n)

    # ------------------------------------------------------------------
    def step(
        self,
        node: PartialTopology,
        incumbent: Incumbent,
        margin: float = -_EPS,
    ) -> Optional[List[PartialTopology]]:
        """One BBU step on ``node`` against ``incumbent``'s bound.

        Returns ``None`` when ``LB > UB + margin`` prunes ``node``.
        Otherwise ``node`` is expanded: children cut by the same bound
        are counted as pruned, the 3-3 filter counts its rejections in
        ``nodes_filtered_33``, and the survivors are returned in
        position order -- except complete trees, which are offered to
        ``incumbent`` instead (so the list is then empty).
        """
        stats = incumbent.stats
        threshold = incumbent.upper_bound + margin
        if node.lower_bound > threshold:
            stats.nodes_pruned += 1
            return None
        stats.nodes_expanded += 1
        s = node.next_species
        stats.nodes_created += node.num_positions()
        children, cut = expand_positions(
            node, self.tails[s + 1], threshold, self.kernel
        )
        stats.nodes_pruned += cut
        if self.check_33:
            kept = [
                child for child in children
                if insertion_is_consistent(
                    child, self.values, s, check_all_pairs=self.enforce_all_33
                )
            ]
            stats.nodes_filtered_33 += len(children) - len(kept)
            children = kept
        if s + 1 < self.n:
            return children
        for child in children:
            incumbent.offer(child)
        return []

    # ------------------------------------------------------------------
    def depth_first(
        self,
        nodes: Sequence[PartialTopology],
        upper_bound: float,
        stats: SearchStats,
        *,
        between: Callable[[object], bool],
        improved: Optional[Callable[[object], None]] = None,
        margin: float = -_EPS,
        stride: int = _STRIDE,
        limit: Optional[int] = None,
        optima: Optional[List[PartialTopology]] = None,
    ) -> object:
        """Search below ``nodes`` (the last one first); return the search.

        The native core runs it when it can (:meth:`native_library`, no
        ``optima`` to gather, a node the starting bound keeps), else
        :class:`_StackSearch`, which decides identically.  Before every
        stride of ``stride`` pops ``between(search)`` runs (``False``
        stops the search), and after an improving stride
        ``improved(search)``.  ``limit`` caps ``nodes_expanded``;
        ``stats`` receives the counters.  The returned search gives
        ``upper_bound``, ``best()`` and the open nodes (``len``,
        ``min_lower_bound()``); use it in a ``with`` block, whose exit
        frees the native core's memory.
        """
        lib = None if optima is not None else self.native_library()
        if lib is not None and any(
            node.lower_bound <= upper_bound + margin for node in nodes
        ):
            search = native.NativeSearch(
                lib, self.half, self.tails, nodes, upper_bound,
                keep_margin=margin, eps=_EPS,
            )
        else:
            search = _StackSearch(
                self, nodes, upper_bound, margin, stats, optima
            )
        try:
            while len(search) and between(search):
                status = search.run(stride, limit)
                if status == native.IMPROVED and improved is not None:
                    improved(search)
        except BaseException:
            search.close()
            raise
        header = search.stats
        if header is not stats:  # the native core's C header
            for name in (
                "nodes_created", "nodes_expanded", "nodes_pruned",
                "ub_updates", "max_open_size",
            ):
                setattr(stats, name, getattr(header, name))
        return search

    def prebranch(
        self,
        target: int,
        charge: Optional[Callable[[PartialTopology, bool], None]] = None,
    ) -> Tuple[List[PartialTopology], Incumbent]:
        """The masters' pre-branch: best lower bound first until
        ``target`` nodes are open (the papers' Steps 1-5).

        A heap keyed by lower bound; ties pop the most recently created
        child first.  Returns the open nodes sorted by lower bound and
        the incumbent, whose stats count the master's work.
        ``charge(node, expanded)`` sees every popped node (the
        simulator's clock).
        """
        incumbent = Incumbent(self.seed_cost)
        queue: List[Tuple[float, int, PartialTopology]] = [
            (self.root.lower_bound, 0, self.root)
        ]
        pushed = 0
        while queue and len(queue) < target:
            node = heapq.heappop(queue)[2]
            children = self.step(node, incumbent)
            if charge is not None:
                charge(node, children is not None)
            for child in children or ():
                pushed -= 1
                heapq.heappush(queue, (child.lower_bound, pushed, child))
        frontier = sorted(
            (entry[2] for entry in queue), key=lambda t: t.lower_bound
        )
        return frontier, incumbent


class _StackSearch(Incumbent):
    """The depth-first search as a Python stack.

    It has :class:`native.NativeSearch`'s interface and makes its
    decisions: the same pops, prunes and child order, a run that returns
    right after an improving expansion, the incumbent log, and the
    "seed matched" record (the first complete tree that ties the
    starting bound becomes ``best()``).  It also runs what the C core
    does not: the 3-3 filter, the scalar reference path, and gathering
    every optimal tree into ``optima`` (the solver then passes a
    ``+_EPS`` margin, so ties survive the bound cut).
    """

    __slots__ = ("core", "open", "margin", "optima", "improvements")

    def __init__(
        self,
        core: SearchCore,
        nodes: Sequence[PartialTopology],
        upper_bound: float,
        margin: float,
        stats: SearchStats,
        optima: Optional[List[PartialTopology]],
    ) -> None:
        super().__init__(upper_bound, stats)
        self.core = core
        self.open = list(nodes)
        self.margin = margin
        self.optima = optima
        self.improvements: List[PartialTopology] = []
        stats.nodes_created += len(self.open)

    def __enter__(self) -> "_StackSearch":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Nothing to free; the native search frees its C memory here."""

    def __len__(self) -> int:
        return len(self.open)

    def min_lower_bound(self) -> float:
        return min(node.lower_bound for node in self.open)

    def best(self) -> Optional[PartialTopology]:
        return self.topology

    def incumbents(self) -> List[PartialTopology]:
        return self.improvements

    def offer(self, child: PartialTopology) -> bool:
        cost = child.cost
        improved = super().offer(child)
        optima = self.optima
        if improved:
            self.improvements.append(child)
            if optima is not None:
                optima[:] = [t for t in optima if t.cost <= cost + _EPS]
        if cost <= self.upper_bound + _EPS:
            if optima is not None:
                optima.append(child)
            if self.topology is None or (
                optima is not None and cost < self.topology.cost - _EPS
            ):
                self.topology = child
        return improved

    def run(self, max_iterations: int, expansion_limit: Optional[int] = None) -> int:
        """Pop up to ``max_iterations`` nodes (``NativeSearch.run``)."""
        stats = self.stats
        stack = self.open
        self.improvements = []
        for _ in range(max_iterations):
            if not stack:
                return native.EXHAUSTED
            if expansion_limit is not None and stats.nodes_expanded >= expansion_limit:
                return native.LIMIT
            children = self.core.step(stack.pop(), self, self.margin)
            if children:
                children.sort(key=lambda c: -c.lower_bound)
                stack.extend(children)
                if len(stack) > stats.max_open_size:
                    stats.max_open_size = len(stack)
            elif self.improvements:
                return native.IMPROVED
        return native.STRIDE


class BranchAndBoundSolver:
    """Configurable Algorithm-BBU solver.

    Parameters
    ----------
    lower_bound:
        One of ``"trivial"``, ``"minlink"``, ``"minfront"`` (default;
        the paper's bound).
    use_maxmin:
        Relabel species into max-min order first (BBU Step 1).  Turning
        this off is only useful for the ablation benchmark.
    relationship_33:
        Apply the 3-3 relationship constraint when inserting the third
        species (the parallel paper's Step 4).
    enforce_all_33:
        Generalize the constraint to every insertion.  Heuristic: may
        prune the optimum on non-ultrametric inputs.
    node_limit:
        Abort after expanding this many BBT nodes; the best tree found so
        far is returned with ``optimal=False``.
    use_kernel:
        Branch with the batched NumPy kernel
        (:class:`repro.bnb.kernel.BranchKernel`): every insertion
        position's cost and lower bound is evaluated as one array
        operation and only survivors of the bound cut are materialised.
        Decisions are bit-identical to the scalar path (the kernel
        module documents the proof), so this is purely a speed knob;
        ``False`` keeps the original per-child scalar loop, which also
        serves as the differential-test reference.  Matrices beyond the
        kernel's species limit fall back to the scalar path silently.
    collect_all:
        Also gather *every* optimal tree (within ``1e-9`` of the optimum),
        mirroring the papers' "results set".
    on_incumbent:
        Optional callback ``(cost, tree)`` fired whenever the search
        finds a strictly better complete tree — anytime progress
        reporting for long runs (the UPGMM seed is reported first).
    recorder:
        Optional :class:`repro.obs.Recorder`.  Each solve runs inside a
        ``bnb.solve`` span and emits its search counters
        (``bnb.nodes_expanded``, ``bnb.nodes_pruned``,
        ``bnb.ub_updates``, ...) plus bound-effectiveness statistics on
        completion -- the counters aggregate the run's ``SearchStats``
        once at the end, so the per-node hot loop is untouched.
    progress:
        Optional :class:`repro.obs.progress.ProgressTracker` ticked
        between strides of the search (throttled incumbent/bound/gap
        snapshots).  When ``None`` the ambient
        :func:`repro.obs.progress.current_progress` tracker is used if
        one is bound; with neither, the search runs in long strides and
        the hot loop pays nothing for progress.
    """

    def __init__(
        self,
        *,
        lower_bound: str = "minfront",
        use_maxmin: bool = True,
        relationship_33: bool = False,
        enforce_all_33: bool = False,
        use_kernel: bool = True,
        node_limit: Optional[int] = None,
        collect_all: bool = False,
        on_incumbent: Optional[
            Callable[[float, UltrametricTree], None]
        ] = None,
        recorder: Optional[NullRecorder] = None,
        progress: Optional[ProgressTracker] = None,
    ) -> None:
        if lower_bound not in LOWER_BOUNDS:
            raise ValueError(
                f"unknown lower bound {lower_bound!r}; "
                f"choose from {sorted(LOWER_BOUNDS)}"
            )
        self.lower_bound = lower_bound
        self.use_maxmin = use_maxmin
        self.relationship_33 = relationship_33
        self.enforce_all_33 = enforce_all_33
        self.use_kernel = use_kernel
        self.node_limit = node_limit
        self.collect_all = collect_all
        self.on_incumbent = on_incumbent
        self.recorder = as_recorder(recorder)
        self.progress = progress

    # ------------------------------------------------------------------
    def solve(self, matrix: DistanceMatrix) -> BBUResult:
        """Construct a minimum ultrametric tree for ``matrix``."""
        rec = self.recorder
        if matrix.n == 0:
            raise ValueError("cannot build a tree over zero species")
        with rec.span(
            "bnb.solve", n=matrix.n, lower_bound=self.lower_bound
        ) as solve_span:
            result = self._solve(matrix)
            if rec.enabled:
                stats = result.stats
                rec.counter("bnb.nodes_created", stats.nodes_created)
                rec.counter("bnb.nodes_expanded", stats.nodes_expanded)
                rec.counter("bnb.nodes_pruned", stats.nodes_pruned)
                rec.counter("bnb.nodes_filtered_33", stats.nodes_filtered_33)
                rec.counter("bnb.ub_updates", stats.ub_updates)
                # Non-additive statistics ride on the span as attributes
                # (gauges), NOT as counters: emitted as counters, repeated
                # solves summed a maximum and summed fractions, so any
                # multi-solve profile reported nonsense.  The profile view
                # aggregates these per span name (min/mean/max).
                solve_span.attrs["bnb.max_open_size"] = stats.max_open_size
                if stats.nodes_created > 0:
                    # Bound effectiveness: fraction of generated nodes the
                    # lower bound killed, and how far the UPGMM seed was
                    # from the final optimum (0 = seed already optimal).
                    solve_span.attrs["bnb.prune_fraction"] = (
                        stats.nodes_pruned / stats.nodes_created
                    )
                if stats.initial_upper_bound > 0:
                    solve_span.attrs["bnb.seed_gap_fraction"] = (
                        stats.initial_upper_bound - result.cost
                    ) / stats.initial_upper_bound
        return result

    def _solve(self, matrix: DistanceMatrix) -> BBUResult:
        rec = self.recorder
        start = rec.clock()
        stats = SearchStats()
        # Resolved once per solve: the explicit tracker, or the ambient
        # one bound by ``progress_context`` (the scheduler / CLI path).
        tracker = self.progress
        if tracker is None:
            tracker = current_progress()
        if matrix.n == 1:
            tree = UltrametricTree.leaf(matrix.labels[0])
            stats.best_cost = 0.0
            if tracker is not None:
                tracker.final(0.0, stats)
            return BBUResult(tree, 0.0, stats)

        core = SearchCore(
            matrix,
            self.lower_bound,
            use_maxmin=self.use_maxmin,
            relationship_33=self.relationship_33,
            enforce_all_33=self.enforce_all_33,
            use_kernel=self.use_kernel,
        )
        if core.n == 2:
            stats.best_cost = core.seed_cost
            stats.elapsed_seconds = rec.clock() - start
            if tracker is not None:
                tracker.final(core.seed_cost, stats)
            return BBUResult(core.seed, core.seed_cost, stats)

        stats.initial_upper_bound = core.seed_cost
        if self.on_incumbent is not None:
            self.on_incumbent(core.seed_cost, core.seed)
        labels = core.labels

        def between(search) -> bool:
            if (
                self.node_limit is not None
                and search.stats.nodes_expanded >= self.node_limit
            ):
                stats.node_limit_hit = True
                return False
            if tracker is not None:
                tracker.tick(search.upper_bound, search.stats, search)
            return True

        def improved(search) -> None:
            if self.on_incumbent is not None:
                for child in search.incumbents():
                    self.on_incumbent(child.cost, child.to_tree(labels))

        if tracker is not None:
            tracker.start()
        optima: Optional[List[PartialTopology]] = (
            [] if self.collect_all else None
        )
        with core.depth_first(
            [core.root],
            core.seed_cost,
            stats,
            between=between,
            improved=improved,
            margin=_EPS if self.collect_all else -_EPS,
            stride=_QUIET_STRIDE if tracker is None else _STRIDE,
            limit=self.node_limit,
            optima=optima,
        ) as search:
            upper_bound = search.upper_bound
            best = search.best()
            if tracker is not None:
                # On a node-limit stop nodes are still open, so the
                # closing snapshot reports the honest residual gap.
                tracker.final(upper_bound, stats, search)

        stats.best_cost = upper_bound if best is not None else stats.initial_upper_bound
        stats.elapsed_seconds = rec.clock() - start

        if best is None:
            # The UPGMM seed was never beaten (it is optimal or the node
            # limit stopped us first); return it.
            tree = core.seed
            cost = upper_bound
        else:
            tree = best.to_tree(labels)
            cost = best.cost
        result = BBUResult(
            tree,
            cost,
            stats,
            optimal=not stats.node_limit_hit,
            topology=best,
        )
        if optima is not None:
            unique = {
                t.signature(): t for t in optima if t.cost <= cost + _EPS
            }
            result.all_trees = [t.to_tree(labels) for t in unique.values()]
            if not result.all_trees and best is not None:
                result.all_trees = [tree]
        return result


def exact_mut(matrix: DistanceMatrix, **solver_options) -> BBUResult:
    """One-call exact minimum ultrametric tree (convenience wrapper)."""
    return BranchAndBoundSolver(**solver_options).solve(matrix)

"""Hardening tests for the multi-core engine.

Covers its equality with the sequential optimum when called inside a
worker process of either start method (as the service's process backend
calls it), the bit-exact ``PartialTopology`` payload round trip, and the
worker-thread lifecycle: every thread is joined before
``multiprocess_mut`` returns or raises, and a worker that raises stops
the others at their next stride.
"""

import multiprocessing
import threading
import time

import pytest

from repro.bnb.bounds import search_context
from repro.bnb.sequential import SearchCore, exact_mut
from repro.bnb.topology import PartialTopology
from repro.matrix.generators import random_metric_matrix
from repro.matrix.maxmin import apply_maxmin
from repro.parallel.executor import WorkerSlot
from repro.parallel.multiprocess import multiprocess_mut

AVAILABLE = multiprocessing.get_all_start_methods()
START_METHODS = [m for m in ("fork", "spawn") if m in AVAILABLE]


def solve_in_worker(task):
    """Slot runner: solve ``random_metric_matrix(n, seed)`` with 2 workers."""
    n, seed, options = task
    result = multiprocess_mut(
        random_metric_matrix(n, seed=seed), n_workers=2, **options
    )
    return result.cost, result.tree.cost(), result.n_workers


def solve_in_slot(start_method, n, seed, **options):
    with WorkerSlot(0, solve_in_worker, start_method=start_method) as slot:
        return slot.call((n, seed, options))


class TestStartMethodEquality:
    """multiprocess_mut == exact_mut inside a daemonic worker process
    started by fork *and* by spawn."""

    @pytest.mark.parametrize("method", START_METHODS)
    @pytest.mark.parametrize("n", [6, 7, 8, 9, 10])
    def test_matches_sequential(self, method, n):
        cost, tree_cost, n_workers = solve_in_slot(method, n, seed=n)
        assert n_workers == 2
        m = random_metric_matrix(n, seed=n)
        assert cost == pytest.approx(exact_mut(m).cost, abs=1e-9)
        # Exact transport: the materialised tree realises the reported
        # cost bit-for-bit (modulo float summation), not to 12 digits.
        assert abs(tree_cost - cost) < 1e-9


class TestExactTransport:
    def test_payload_roundtrip_bit_exact(self):
        ordered, _ = apply_maxmin(random_metric_matrix(9, seed=1, integer=False))
        half, tails = search_context(ordered)
        topo = PartialTopology.initial(half)
        while not topo.is_complete:
            topo = topo.child(0, tails[min(topo.next_species + 1, len(tails) - 1)])
        clone = PartialTopology.from_payload(topo.to_payload(), half)
        assert clone.cost == topo.cost  # exact equality, no tolerance
        assert clone.signature() == topo.signature()
        tree = clone.to_tree(ordered.labels)
        assert tree.cost() == pytest.approx(topo.cost, abs=1e-12)


class TestSupervision:
    def test_processes_cleaned_up_after_run(self, monkeypatch):
        """A normal return waits for, and leaves behind, no worker thread,
        even when the worker threads finish after the caller's share."""
        original = SearchCore.depth_first

        def depth_first(self, nodes, upper_bound, stats, **kw):
            if threading.current_thread() is not threading.main_thread():
                time.sleep(0.05)
            return original(self, nodes, upper_bound, stats, **kw)

        monkeypatch.setattr(SearchCore, "depth_first", depth_first)
        m = random_metric_matrix(12, seed=4)  # pre-branches to 10 nodes
        before = threading.active_count()
        result = multiprocess_mut(m, n_workers=3)
        assert threading.active_count() == before
        assert result.n_workers == 3
        assert result.cost == pytest.approx(exact_mut(m).cost, abs=1e-9)

    def test_worker_exception_travels_back(self, monkeypatch):
        """Worker 1 raises: worker 0 (the caller) stops at its next stride,
        every thread is joined, and the error names worker 1."""
        original = SearchCore.depth_first
        failed = threading.Event()
        failing = []
        verdicts = []
        expanded = []

        def depth_first(self, nodes, upper_bound, stats, *, between, **kw):
            if threading.current_thread() is not threading.main_thread():
                failing.append(threading.current_thread())
                failed.set()
                raise ValueError("worker boom")

            def gated(search):
                # Let the failing worker finish first, so the stop flag
                # is up before this worker's first stride.
                assert failed.wait(10.0)
                failing[0].join(10.0)
                verdicts.append(between(search))
                return verdicts[-1]

            search = original(
                self, nodes, upper_bound, stats, between=gated, **kw
            )
            expanded.append(stats.nodes_expanded)
            return search

        monkeypatch.setattr(SearchCore, "depth_first", depth_first)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="worker 1 raised") as info:
            multiprocess_mut(random_metric_matrix(14, seed=4), n_workers=2)
        assert "ValueError: worker boom" in str(info.value)
        assert isinstance(info.value.__cause__, ValueError)
        assert verdicts == [False]
        assert expanded == [0]
        assert threading.active_count() == before


class TestPicklableUnderSpawn:
    @pytest.mark.skipif("spawn" not in AVAILABLE, reason="needs spawn")
    def test_spawn_with_33_constraint(self):
        """The 3-3 filter runs the worker threads on the Python search;
        under a spawned worker process it must still be exact."""
        cost, tree_cost, _ = solve_in_slot(
            "spawn", 8, seed=13, relationship_33=True
        )
        m = random_metric_matrix(8, seed=13)
        assert cost == pytest.approx(exact_mut(m).cost, abs=1e-9)
        assert abs(tree_cost - cost) < 1e-9

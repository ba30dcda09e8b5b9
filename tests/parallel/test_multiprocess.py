"""Tests for the real multiprocessing engine."""

import pytest

from repro.bnb.sequential import exact_mut
from repro.matrix.distance_matrix import DistanceMatrix
from repro.matrix.generators import random_metric_matrix
from repro.obs.progress import ProgressTracker, progress_context
from repro.parallel.multiprocess import multiprocess_mut
from repro.tree.checks import dominates_matrix, is_valid_ultrametric_tree


class TestMultiprocess:
    def test_matches_sequential(self):
        m = random_metric_matrix(9, seed=3)
        result = multiprocess_mut(m, n_workers=2)
        assert result.cost == pytest.approx(exact_mut(m).cost)

    def test_three_workers(self):
        m = random_metric_matrix(10, seed=4)
        result = multiprocess_mut(m, n_workers=3)
        assert result.cost == pytest.approx(exact_mut(m).cost)

    def test_tree_feasible(self):
        m = random_metric_matrix(9, seed=5)
        result = multiprocess_mut(m, n_workers=2)
        assert is_valid_ultrametric_tree(result.tree)
        assert dominates_matrix(result.tree, m)
        assert result.tree.cost() == pytest.approx(result.cost)

    def test_single_worker_falls_back(self):
        m = random_metric_matrix(8, seed=6)
        result = multiprocess_mut(m, n_workers=1)
        assert result.n_workers == 1
        assert result.cost == pytest.approx(exact_mut(m).cost)

    def test_tiny_matrix_falls_back(self):
        m = DistanceMatrix([[0, 4, 8], [4, 0, 8], [8, 8, 0]])
        result = multiprocess_mut(m, n_workers=4)
        assert result.cost == pytest.approx(exact_mut(m).cost)

    def test_rejects_bad_worker_count(self):
        m = random_metric_matrix(6, seed=7)
        with pytest.raises(ValueError):
            multiprocess_mut(m, n_workers=0)

    def test_counters_positive(self):
        m = random_metric_matrix(10, seed=8)
        result = multiprocess_mut(m, n_workers=2)
        assert result.nodes_expanded > 0
        assert result.initial_upper_bound >= result.cost - 1e-9

    def test_33_option(self):
        m = random_metric_matrix(9, seed=9)
        result = multiprocess_mut(m, n_workers=2, relationship_33=True)
        assert result.cost == pytest.approx(exact_mut(m).cost)

    @pytest.mark.parametrize("interval", [0.002, 0.0])
    def test_progress_ticks_while_workers_search(self, interval):
        """Worker 0's stride hook and the master's join loop both tick, so
        live progress does not freeze between pre-branch and the end."""
        m = random_metric_matrix(20, seed=3)
        snapshots = []
        tracker = ProgressTracker(
            interval_seconds=interval, sink=snapshots.append
        )
        with progress_context(tracker):
            result = multiprocess_mut(m, n_workers=2)
        assert tracker.reports > 2
        final = tracker.latest
        assert final["final"] is True
        assert final["incumbent_cost"] == result.cost
        assert final["gap"] == 0.0
        expanded = [snap["nodes_expanded"] for snap in snapshots]
        assert expanded == sorted(expanded)
        assert expanded[-1] == result.nodes_expanded

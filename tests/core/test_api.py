"""Tests for the one-call construct_tree API."""

import pytest

from repro.core.api import METHODS, ConstructionResult, construct_tree
from repro.heuristics.nj import AdditiveTree
from repro.matrix.generators import clustered_matrix, random_metric_matrix
from repro.parallel.config import ClusterConfig
from repro.tree.checks import dominates_matrix
from repro.tree.ultrametric import UltrametricTree


class TestConstructTree:
    @pytest.mark.parametrize("method", [m for m in METHODS if m != "nj"])
    def test_every_method_returns_ultrametric_tree(self, method):
        matrix = clustered_matrix([3, 3], seed=1)
        result = construct_tree(
            matrix, method, cluster=ClusterConfig(n_workers=2)
        )
        assert isinstance(result, ConstructionResult)
        assert isinstance(result.tree, UltrametricTree)
        assert result.method == method
        assert result.cost == pytest.approx(result.tree.cost())

    def test_nj_returns_additive_tree(self):
        matrix = random_metric_matrix(7, seed=2)
        result = construct_tree(matrix, "nj")
        assert isinstance(result.tree, AdditiveTree)
        assert result.cost > 0

    def test_exact_methods_agree(self):
        matrix = random_metric_matrix(8, seed=3)
        bnb = construct_tree(matrix, "bnb")
        par = construct_tree(matrix, "parallel-bnb", cluster=ClusterConfig(n_workers=4))
        assert bnb.cost == pytest.approx(par.cost)

    def test_compact_methods_agree(self):
        matrix = clustered_matrix([3, 2, 3], seed=4)
        a = construct_tree(matrix, "compact")
        b = construct_tree(
            matrix, "compact-parallel", cluster=ClusterConfig(n_workers=4)
        )
        assert a.cost == pytest.approx(b.cost)

    def test_cost_hierarchy(self):
        """bnb <= compact <= upgmm on metric input."""
        matrix = clustered_matrix([3, 3], seed=5)
        bnb = construct_tree(matrix, "bnb").cost
        compact = construct_tree(matrix, "compact").cost
        heuristic = construct_tree(matrix, "upgmm").cost
        assert bnb <= compact + 1e-9
        assert compact <= heuristic + 1e-9

    def test_feasibility_of_feasible_methods(self):
        matrix = clustered_matrix([3, 3], seed=6)
        for method in ("bnb", "compact", "upgmm"):
            result = construct_tree(matrix, method)
            assert dominates_matrix(result.tree, matrix), method

    def test_details_carry_statistics(self):
        matrix = random_metric_matrix(7, seed=7)
        result = construct_tree(matrix, "bnb")
        assert result.details.stats.nodes_expanded > 0

    def test_options_forwarded(self):
        matrix = clustered_matrix([3, 3], seed=8)
        result = construct_tree(matrix, "compact", reduction="average")
        assert result.details.reduction == "average"

    def test_unknown_method_rejected(self):
        matrix = random_metric_matrix(5, seed=9)
        with pytest.raises(ValueError, match="unknown method"):
            construct_tree(matrix, "magic")


class TestConstructTreeMetrics:
    def test_solve_latency_recorded_per_method(self):
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.recorder import NullRecorder

        registry = MetricsRegistry()
        rec = NullRecorder(metrics=registry)
        matrix = clustered_matrix([3, 3], seed=10)
        construct_tree(matrix, "upgmm", recorder=rec)
        construct_tree(matrix, "upgmm", recorder=rec)
        construct_tree(matrix, "compact", recorder=rec)
        hist = registry.histogram("solve.seconds", labelnames=("method",))
        assert hist.count(method="upgmm") == 2
        assert hist.count(method="compact") == 1
        assert hist.sum(method="upgmm") > 0

    def test_default_registry_used_when_omitted(self):
        from repro.obs.metrics import REGISTRY

        matrix = clustered_matrix([3, 3], seed=11)
        hist = REGISTRY.histogram("solve.seconds", labelnames=("method",))
        before = hist.count(method="upgmm")
        construct_tree(matrix, "upgmm")
        assert hist.count(method="upgmm") == before + 1

    def test_invalid_method_not_timed(self):
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.recorder import NullRecorder

        registry = MetricsRegistry()
        matrix = random_metric_matrix(5, seed=12)
        with pytest.raises(ValueError, match="unknown method"):
            construct_tree(
                matrix, "magic", recorder=NullRecorder(metrics=registry)
            )
        assert registry.snapshot() == {}

    def test_multiprocess_method_matches_bnb(self):
        matrix = random_metric_matrix(8, seed=13)
        bnb = construct_tree(matrix, "bnb")
        mp = construct_tree(
            matrix, "multiprocess", cluster=ClusterConfig(n_workers=2)
        )
        assert mp.cost == pytest.approx(bnb.cost)
        assert mp.details.n_workers == 2

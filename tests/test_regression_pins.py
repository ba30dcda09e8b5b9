"""Regression pins: exact values for fixed seeds.

These tests freeze concrete numbers produced by the current
implementation on seeded workloads.  They are deliberately brittle: any
change to a generator, a bound, the search order, or the simulator's
cost model that alters results will trip one of them, forcing the
change to be conscious.

The optimal-*cost* pins (seed-42 matrices, the fig. 8 matrix, the HMDNA
workload) now live as data in ``tests/data/seed_campaign.json`` and are
enforced by ``tests/campaign/test_seed_campaign.py``, which diffs a
fresh campaign of the builtin ``pins`` suite against that checked-in
export.  What remains here are the pins campaigns don't carry: search
effort under ablated bounds and the 3-3 filter, the simulator's
makespans, counters and trees, the multiprocess engine's cost, and
compact-set structure.
"""

import pytest

from repro.bnb.sequential import exact_mut
from repro.graph.compact_sets import find_compact_sets
from repro.matrix.generators import hierarchical_matrix, random_metric_matrix
from repro.parallel.config import ClusterConfig
from repro.parallel.multiprocess import multiprocess_mut
from repro.parallel.simulator import ParallelBranchAndBound
from repro.tree.newick import to_newick

#: The two trees the seed-42 n=16 simulator runs return.
_TREE_A = (
    "(((s10:5.000000,s11:5.000000):21.000000,(s15:10.500000,s13:10.500000)"
    ":15.500000):4.500000,(((((s14:6.500000,((s6:0.500000,s7:0.500000)"
    ":2.500000,s3:3.000000):3.500000):2.500000,s0:9.000000):0.500000,"
    "s5:9.500000):5.000000,s1:14.500000):6.500000,(((s8:2.000000,"
    "s9:2.000000):6.500000,s4:8.500000):7.000000,(s2:3.500000,s12:3.500000)"
    ":12.000000):5.500000):9.500000);"
)
_TREE_B = (
    "((s10:5.000000,s11:5.000000):25.500000,((((((s14:6.500000,"
    "((s6:0.500000,s7:0.500000):2.500000,s3:3.000000):3.500000):2.500000,"
    "s0:9.000000):0.500000,s5:9.500000):5.000000,s1:14.500000):6.500000,"
    "(((s8:2.000000,s9:2.000000):6.500000,s4:8.500000):7.000000,"
    "(s2:3.500000,s12:3.500000):12.000000):5.500000):5.000000,"
    "(s15:10.500000,s13:10.500000):15.500000):4.500000);"
)


class TestSearchEffortPins:
    def test_node_counts_seed42(self):
        # 12: 287 -> 258 when the vectorised UPGMM (PR 1) changed its
        # deterministic tie-break and found a cheaper seed upper bound.
        expected = {12: 258, 14: 2635, 16: 5203}
        for n, nodes in expected.items():
            m = random_metric_matrix(n, seed=42)
            assert exact_mut(m).stats.nodes_expanded == nodes, n

    @pytest.mark.parametrize(
        "option, filtered, expanded, cost",
        [
            ("relationship_33", 2, 3129, 196.0),
            # The generalised constraint is a heuristic: it prunes the
            # optimum (196) here.
            ("enforce_all_33", 7, 2, 197.0),
        ],
    )
    def test_33_filter_counts_seed42_n16(self, option, filtered, expanded, cost):
        m = random_metric_matrix(16, seed=42)
        result = exact_mut(m, **{option: True})
        assert result.stats.nodes_filtered_33 == filtered
        assert result.stats.nodes_expanded == expanded
        assert result.cost == cost

    @pytest.mark.parametrize("relationship_33", [False, True])
    def test_multiprocess_cost_seed42_n16(self, relationship_33):
        # Cost only: the workers' node counts depend on timing.
        m = random_metric_matrix(16, seed=42)
        result = multiprocess_mut(
            m, n_workers=2, relationship_33=relationship_33
        )
        assert result.cost == 196.0

    def test_bound_ablation_counts(self):
        m = random_metric_matrix(11, seed=42)
        assert exact_mut(m, lower_bound="trivial").stats.nodes_expanded == 6487
        assert exact_mut(m, lower_bound="minlink").stats.nodes_expanded == 374
        assert exact_mut(m, lower_bound="minfront").stats.nodes_expanded == 212


class TestSimulatorPins:
    def test_makespans_seed42_n16(self):
        m = random_metric_matrix(16, seed=42)
        # 16: 73564 -> 76705 when the master pre-branch switched to a
        # heap (PR 1); tie order among equal lower bounds changed.
        expected = {1: 1053770.0, 2: 513893.0, 16: 76705.0}
        for p, makespan in expected.items():
            result = ParallelBranchAndBound(ClusterConfig(n_workers=p)).solve(m)
            assert result.makespan == pytest.approx(makespan), p

    @pytest.mark.parametrize(
        "relationship_33, p, expanded, pruned, messages, setup, newick",
        [
            (False, 1, 5506, 97172, 2, 262.0, _TREE_A),
            (False, 2, 5376, 94692, 47, 277.0, _TREE_B),
            (False, 16, 6005, 107073, 1848, 438.0, _TREE_B),
            (True, 1, 3069, 54078, 2, 277.0, _TREE_A),
            (True, 2, 2950, 51747, 1199, 277.0, _TREE_A),
            (True, 16, 3234, 57015, 1290, 468.0, _TREE_A),
        ],
    )
    def test_search_and_tree_seed42_n16(
        self, relationship_33, p, expanded, pruned, messages, setup, newick
    ):
        m = random_metric_matrix(16, seed=42)
        result = ParallelBranchAndBound(
            ClusterConfig(n_workers=p), relationship_33=relationship_33
        ).solve(m)
        assert result.total_nodes_expanded == expanded
        assert result.total_nodes_pruned == pruned
        assert result.messages == messages
        assert result.setup_time == setup
        assert result.cost == 196.0
        assert to_newick(result.tree) == newick

    def test_superlinear_pin(self):
        m = random_metric_matrix(16, seed=42)
        r1 = ParallelBranchAndBound(ClusterConfig(n_workers=1)).solve(m)
        r2 = ParallelBranchAndBound(ClusterConfig(n_workers=2)).solve(m)
        assert r1.makespan / r2.makespan > 2.0  # the pinned anomaly


class TestStructurePins:
    def test_paper_example_compact_sets(self, paper_example):
        named = [
            tuple(sorted(paper_example.labels[i] for i in s))
            for s in find_compact_sets(paper_example)
        ]
        assert named == [
            ("1", "3"),
            ("4", "6"),
            ("1", "2", "3"),
            ("1", "2", "3", "5"),
        ]

    def test_hierarchical_structure_count(self):
        m = hierarchical_matrix([[3, 2], [4]], seed=2)
        assert len(find_compact_sets(m)) == 7

"""Unit tests for the single-tree verification oracles.

Every oracle is exercised both ways: a clean engine result passes, and a
deliberately corrupted tree (the "mutation") is caught with a structured
violation naming the right oracle.
"""

import pytest

from repro.core.api import construct_tree
from repro.matrix.distance_matrix import DistanceMatrix
from repro.matrix.generators import clustered_matrix, random_metric_matrix
from repro.obs import Recorder
from repro.obs.metrics import MetricsRegistry
from repro.verify.oracles import (
    COST_RTOL,
    DEFAULT_ORACLES,
    ORACLE_NAMES,
    CostOracle,
    FeasibilityOracle,
    LabelsOracle,
    NewickOracle,
    Oracle,
    StructureOracle,
    VerificationContext,
    Violation,
    run_oracles,
)


@pytest.fixture
def matrix():
    return clustered_matrix([3, 3], seed=1)


@pytest.fixture
def result(matrix):
    return construct_tree(matrix, "bnb")


def _ctx(result, matrix, **overrides):
    params = dict(
        tree=result.tree,
        matrix=matrix,
        reported_cost=result.cost,
        method="bnb",
    )
    params.update(overrides)
    return VerificationContext(**params)


class TestViolation:
    def test_str_format(self):
        violation = Violation("cost", "off by 1")
        assert str(violation) == "[cost] off by 1"

    def test_to_json_is_plain_data(self):
        violation = Violation("labels", "missing", {"missing": ["s1"]})
        payload = violation.to_json()
        assert payload == {
            "oracle": "labels",
            "message": "missing",
            "details": {"missing": ["s1"]},
        }
        import json

        json.dumps(payload)  # must be JSON-serializable as-is


class TestCleanResult:
    def test_all_default_oracles_pass(self, result, matrix):
        assert run_oracles(
            result.tree, matrix, reported_cost=result.cost, method="bnb"
        ) == []

    def test_oracle_names_cover_issue_catalogue(self):
        assert ORACLE_NAMES == (
            "labels", "structure", "feasibility", "cost", "newick"
        )
        assert len(DEFAULT_ORACLES) == len(ORACLE_NAMES)


class TestLabelsOracle:
    def test_missing_and_extra(self, result):
        base = random_metric_matrix(6, seed=9)
        other = DistanceMatrix(  # labels disjoint from the tree's s0..s5
            base.values, [f"t{i}" for i in range(6)]
        )
        found = LabelsOracle()(_ctx(result, other))
        oracles = {v.oracle for v in found}
        assert oracles == {"labels"}
        messages = " ".join(v.message for v in found)
        assert "missing" in messages and "not in the matrix" in messages

    def test_duplicate_leaf_label(self, result, matrix):
        leaves = result.tree.root.leaves()
        leaves[0].label = leaves[1].label  # mutate behind the constructor
        found = LabelsOracle()(_ctx(result, matrix))
        assert any("duplicate" in v.message for v in found)


class TestStructureOracle:
    def test_raised_leaf(self, result, matrix):
        result.tree.root.leaves()[0].height = 0.5
        found = StructureOracle()(_ctx(result, matrix))
        assert any("must be 0" in v.message for v in found)

    def test_child_above_parent(self, result, matrix):
        root = result.tree.root
        child = next(c for c in root.children if not c.is_leaf)
        child.height = root.height + 1.0
        found = StructureOracle()(_ctx(result, matrix))
        assert any("negative edge" in v.message for v in found)

    def test_non_binary_internal_node(self, result, matrix):
        from repro.tree.ultrametric import TreeNode

        result.tree.root.add_child(TreeNode(0.0, label="intruder"))
        found = StructureOracle()(_ctx(result, matrix))
        assert any("binary" in v.message for v in found)


class TestFeasibilityOracle:
    def test_squashed_tree_is_infeasible(self, result, matrix):
        # Halving every internal height halves every d_T, so some pair
        # must drop below M.
        for node in result.tree.root.walk():
            if not node.is_leaf:
                node.height *= 0.5
        found = FeasibilityOracle()(_ctx(result, matrix))
        assert len(found) == 1
        violation = found[0]
        assert "d_T >= M violated" in violation.message
        assert violation.details["tree_distance"] < violation.details[
            "matrix_distance"
        ]
        assert violation.details["violating_pairs"] >= 1

    def test_label_mismatch_is_owned_by_labels_oracle(self, result):
        base = random_metric_matrix(6, seed=9)
        other = DistanceMatrix(base.values, [f"t{i}" for i in range(6)])
        assert FeasibilityOracle()(_ctx(result, other)) == []


class TestCostOracle:
    def test_inflated_cost_caught(self, result, matrix):
        ctx = _ctx(result, matrix, reported_cost=result.cost * 1.001)
        found = CostOracle()(ctx)
        assert len(found) == 1
        assert found[0].oracle == "cost"
        assert found[0].details["recomputed"] == pytest.approx(result.cost)

    def test_within_tolerance_passes(self, result, matrix):
        nudged = result.cost * (1 + COST_RTOL / 10)
        assert CostOracle()(_ctx(result, matrix, reported_cost=nudged)) == []

    def test_no_reported_cost_skips(self, result, matrix):
        assert CostOracle()(_ctx(result, matrix, reported_cost=None)) == []


class TestNewickOracle:
    def test_round_trip_clean(self, result, matrix):
        assert NewickOracle()(_ctx(result, matrix)) == []


class TestCrashIsolation:
    def test_raising_oracle_becomes_violation(self, result, matrix):
        class Exploding(Oracle):
            name = "exploding"

            def check(self, ctx):
                raise RuntimeError("kaboom")

        found = Exploding()(_ctx(result, matrix))
        assert len(found) == 1
        assert found[0].oracle == "exploding"
        assert "crashed: RuntimeError: kaboom" in found[0].message


class TestObservabilityWiring:
    def test_spans_and_counters(self, result, matrix):
        registry = MetricsRegistry()
        recorder = Recorder(metrics=registry)
        result.tree.root.leaves()[0].height = 0.5  # trip structure oracle
        found = run_oracles(
            result.tree,
            matrix,
            reported_cost=result.cost,
            method="bnb",
            recorder=recorder,
        )
        assert found
        spans = recorder.spans("verify.oracle")
        assert [s.attrs["oracle"] for s in spans] == list(ORACLE_NAMES)
        assert all(s.attrs["method"] == "bnb" for s in spans)
        structure_span = next(
            s for s in spans if s.attrs["oracle"] == "structure"
        )
        assert structure_span.attrs["violations"] >= 1
        counter = registry.counter(
            "verify.violations", labelnames=("oracle",)
        )
        assert counter.value(oracle="structure") >= 1

    def test_null_recorder_span_not_polluted(self, result, matrix):
        # The NullRecorder hands out one shared span; run_oracles must
        # not write per-call attrs into it.
        from repro.obs.recorder import as_recorder

        run_oracles(result.tree, matrix, reported_cost=result.cost)
        null_span = as_recorder(None)._null_context._span
        assert "violations" not in null_span.attrs

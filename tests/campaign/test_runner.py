"""run_campaign: persistence, resume, interruption, observability."""

import json
import threading

import pytest

from repro.campaign.db import CampaignDB
from repro.campaign.runner import CampaignMismatch, run_campaign
from repro.campaign.suite import Suite
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import Recorder, SpanEvent

SPEC = {
    "name": "runner-demo",
    "seed": 3,
    "methods": ["bnb", "upgmm"],
    "cases": [
        {"kind": "generated", "families": ["random-int"], "sizes": [5, 6],
         "count": 2},
    ],
}


@pytest.fixture
def suite():
    return Suite.from_spec(SPEC)


@pytest.fixture
def db(tmp_path):
    with CampaignDB(tmp_path / "c.sqlite") as handle:
        yield handle


class TestHappyPath:
    def test_full_run(self, db, suite):
        result = run_campaign(db, suite, workers=2)
        assert result.ok
        assert result.status == "completed"
        assert result.executed == 8
        assert result.skipped == 0
        assert result.state_counts == {"done": 8}
        rows = db.case_rows(result.campaign_id)
        assert len(rows) == 8
        for row in rows:
            assert row["state"] == "done"
            assert row["cost"] is not None
            assert row["newick"].endswith(";")
            assert row["matrix_digest"]
            assert row["cache_key"]
            assert row["verified_ok"] == 1
            assert row["wall_seconds"] is not None

    def test_bnb_rollups_persisted(self, db, suite):
        result = run_campaign(db, suite, workers=2)
        bnb_rows = [
            r for r in db.case_rows(result.campaign_id)
            if r["method"] == "bnb" and r["cache_status"] == "miss"
        ]
        assert bnb_rows
        for row in bnb_rows:
            spans = json.loads(row["spans"])
            assert "service.job" in spans
            assert "bnb.solve" in spans
            assert row["solve_seconds"] is not None
            assert row["nodes_expanded"] is not None

    def test_spans_and_metrics_emitted(self, db, suite):
        metrics = MetricsRegistry()
        rec = Recorder(metrics=metrics)
        result = run_campaign(db, suite, workers=2, recorder=rec)
        case_spans = [
            e for e in rec.events
            if isinstance(e, SpanEvent) and e.name == "campaign.case"
        ]
        assert len(case_spans) == 8
        assert all(s.attrs["includes_queue_wait"] for s in case_spans)
        assert all(s.attrs["state"] == "done" for s in case_spans)
        rendered = metrics.render_prometheus()
        assert 'campaign_cases_total{state="done"} 8' in rendered
        assert result.ok

    def test_verify_false_leaves_verdict_null(self, db, suite):
        result = run_campaign(db, suite, workers=2, verify=False)
        for row in db.case_rows(result.campaign_id):
            assert row["verified_ok"] is None

    def test_path_accepted_for_db(self, tmp_path, suite):
        path = str(tmp_path / "by-path.sqlite")
        result = run_campaign(path, suite, workers=2)
        assert result.ok
        with CampaignDB(path) as db:
            assert len(db.case_rows(result.campaign_id)) == 8


class TestResume:
    def test_stop_after_then_resume(self, db, suite):
        first = run_campaign(db, suite, workers=1, stop_after=3)
        assert first.interrupted
        assert first.status == "interrupted"
        assert first.executed == 3
        assert db.get_campaign("runner-demo")["status"] == "interrupted"

        second = run_campaign(db, suite, workers=1)
        assert not second.interrupted
        assert second.status == "completed"
        assert second.skipped == 3
        assert second.executed == 5
        # Exactly one row per case, all done, after the two halves.
        rows = db.case_rows(second.campaign_id)
        assert len(rows) == 8
        assert len({r["case_id"] for r in rows}) == 8
        assert all(r["state"] == "done" for r in rows)
        assert db.get_campaign("runner-demo")["resumes"] == 1

    def test_stop_event_drains(self, db, suite):
        stop = threading.Event()
        stop.set()  # armed before the first submission
        result = run_campaign(db, suite, workers=1, stop=stop)
        assert result.interrupted
        assert result.executed == 0
        resumed = run_campaign(db, suite, workers=2)
        assert resumed.status == "completed"
        assert resumed.executed == 8

    def test_completed_campaign_reruns_as_noop(self, db, suite):
        run_campaign(db, suite, workers=2)
        again = run_campaign(db, suite, workers=2)
        assert again.status == "completed"
        assert again.executed == 0
        assert again.skipped == 8
        assert len(db.case_rows(again.campaign_id)) == 8

    def test_hundred_case_half_interrupt_resume(self, db):
        """The acceptance bar: a 100-case suite interrupted at ~50%
        resumes to completion with exactly one row per case."""
        big = Suite.from_spec({
            "name": "hundred",
            "seed": 11,
            "methods": ["upgmm", "nj"],
            "cases": [
                {"kind": "generated", "families": ["random-int"],
                 "sizes": [5, 6], "count": 25},
            ],
        })
        assert len(big.cases()) == 100
        first = run_campaign(db, big, workers=2, stop_after=50,
                             verify=False)
        assert first.interrupted
        # stop_after counts submitted work, so the drained total may
        # exceed it slightly; it must sit near the midpoint.
        assert 50 <= first.executed < 60
        second = run_campaign(db, big, workers=2, verify=False)
        assert second.status == "completed"
        assert second.skipped == first.executed
        assert second.executed == 100 - first.executed
        rows = db.case_rows(second.campaign_id)
        assert len(rows) == 100
        assert len({r["case_id"] for r in rows}) == 100
        assert all(r["state"] == "done" for r in rows)

    def test_spec_mismatch_refused(self, db, suite):
        run_campaign(db, suite, workers=2, stop_after=1)
        other = Suite.from_spec({**SPEC, "seed": 99})
        with pytest.raises(CampaignMismatch):
            run_campaign(db, other, workers=2)

    def test_same_suite_different_names_coexist(self, db, suite):
        a = run_campaign(db, suite, name="a", workers=2)
        b = run_campaign(db, suite, name="b", workers=2)
        assert a.campaign_id != b.campaign_id
        assert len(db.case_rows(a.campaign_id)) == 8
        assert len(db.case_rows(b.campaign_id)) == 8


class TestFailurePersistence:
    def test_failed_case_recorded_and_retried(self, db):
        # A near-zero deadline on an exact solve is the simplest honest
        # failure the scheduler can produce deterministically.
        suite = Suite.from_spec({
            "name": "timeouts",
            "methods": ["bnb"],
            "cases": [{"kind": "random", "sizes": [13], "seed": 5}],
        })
        first = run_campaign(db, suite, workers=1, job_timeout=1e-9,
                             verify=False)
        assert first.status == "completed"
        assert not first.ok
        rows = db.case_rows(first.campaign_id)
        assert len(rows) == 1
        assert rows[0]["state"] == "timeout"
        # Timeout rows are not skipped on resume: the case retries and
        # its single row is replaced in place.
        second = run_campaign(db, suite, workers=1, verify=False)
        assert second.executed == 1
        rows = db.case_rows(second.campaign_id)
        assert len(rows) == 1
        assert rows[0]["state"] == "done"

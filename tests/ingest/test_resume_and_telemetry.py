"""Resume semantics and stage telemetry for the ingestion pipeline.

The manifest is the resume token: a re-run against the same input and
configuration must *skip* every already-completed stage (asserted by
counting ``ingest.stage`` spans vs ``ingest.stage.skipped`` counters in
the recorder, not by trusting the manifest's own word), while any drift
in input bytes or configuration must invalidate the token and re-run
everything.
"""

from pathlib import Path

import pytest

from repro.ingest import STAGE_NAMES, Manifest, run_pipeline
from repro.obs import CounterEvent, MetricsRegistry, Recorder, SpanEvent, trace_context

FIXTURES = Path(__file__).resolve().parent.parent / "data" / "fasta"
N_STAGES = len(STAGE_NAMES)


def stage_spans(recorder):
    return [
        e for e in recorder.events
        if isinstance(e, SpanEvent) and e.name == "ingest.stage"
    ]


def skip_counters(recorder):
    return [
        e for e in recorder.events
        if isinstance(e, CounterEvent) and e.name == "ingest.stage.skipped"
    ]


@pytest.fixture
def manifest_path(tmp_path):
    return tmp_path / "manifest.json"


def run(manifest_path, recorder, **kwargs):
    kwargs.setdefault("tree_method", "upgmm")
    return run_pipeline(
        str(FIXTURES / "clean_dna.fasta"),
        manifest_path=manifest_path,
        recorder=recorder,
        **kwargs,
    )


class TestResume:
    def test_first_run_executes_every_stage(self, manifest_path):
        rec = Recorder()
        outcome = run(manifest_path, rec)
        assert outcome.manifest.status == "ok"
        spans = stage_spans(rec)
        assert [s.attrs["stage"] for s in spans] == list(STAGE_NAMES)
        assert not skip_counters(rec)
        assert outcome.manifest.resumed_from == 0

    def test_rerun_skips_all_five_stages(self, manifest_path):
        first = run(manifest_path, Recorder())
        rec = Recorder()
        second = run(manifest_path, rec)
        assert not stage_spans(rec), "a completed run must not re-execute"
        skipped = skip_counters(rec)
        assert [c.attrs["stage"] for c in skipped] == list(STAGE_NAMES)
        assert second.manifest.resumed_from == N_STAGES
        assert second.manifest.status == "ok"
        assert second.manifest.result == first.manifest.result

    def test_partial_manifest_resumes_midway(self, manifest_path):
        run(manifest_path, Recorder())
        # Chop the saved manifest back to parse+qc, as if the process
        # died between stages; the re-run must pick up at `distance`.
        prior = Manifest.load(manifest_path)
        prior.stages = prior.stages[:2]
        prior.result = None
        prior.save(manifest_path)

        rec = Recorder()
        outcome = run(manifest_path, rec)
        assert [c.attrs["stage"] for c in skip_counters(rec)] == ["parse", "qc"]
        assert [s.attrs["stage"] for s in stage_spans(rec)] == [
            "distance", "repair", "tree",
        ]
        assert outcome.manifest.resumed_from == 2
        assert outcome.manifest.status == "ok"

    def test_changed_input_invalidates_the_token(self, manifest_path, tmp_path):
        run(manifest_path, Recorder())
        mutated = tmp_path / "mutated.fasta"
        text = (FIXTURES / "clean_dna.fasta").read_text()
        mutated.write_text(text.replace("ATGGCA", "ATGGCC", 1))
        rec = Recorder()
        outcome = run_pipeline(
            str(mutated), manifest_path=manifest_path,
            recorder=rec, tree_method="upgmm",
        )
        assert len(stage_spans(rec)) == N_STAGES
        assert not skip_counters(rec)
        assert outcome.manifest.resumed_from == 0

    def test_changed_config_invalidates_the_token(self, manifest_path):
        run(manifest_path, Recorder())
        rec = Recorder()
        run(manifest_path, rec, distance="jc")
        assert len(stage_spans(rec)) == N_STAGES
        assert not skip_counters(rec)

    def test_verify_flag_does_not_invalidate_the_token(self, manifest_path):
        # `verify` only adds oracle checks; the artifacts are identical,
        # so toggling it must not force a re-run.
        run(manifest_path, Recorder())
        rec = Recorder()
        outcome = run(manifest_path, rec, verify=True)
        assert not stage_spans(rec)
        assert outcome.manifest.resumed_from == N_STAGES

    def test_corrupt_manifest_starts_fresh(self, manifest_path):
        manifest_path.write_text("{not json")
        rec = Recorder()
        outcome = run(manifest_path, rec)
        assert len(stage_spans(rec)) == N_STAGES
        assert outcome.manifest.status == "ok"
        # ... and the corrupt token was replaced by a good one.
        assert Manifest.load(manifest_path).status == "ok"

    def test_failed_run_reruns_its_failed_stage(self, manifest_path):
        path = str(FIXTURES / "truncated.fasta")
        first = run_pipeline(path, manifest_path=manifest_path)
        assert first.manifest.status == "failed"
        rec = Recorder()
        second = run_pipeline(path, manifest_path=manifest_path, recorder=rec)
        # Nothing completed, so nothing skips; the failure reproduces
        # without the rejection list growing across attempts.
        assert not skip_counters(rec)
        assert [s.attrs["stage"] for s in stage_spans(rec)] == ["parse"]
        assert len(second.manifest.rejections) == len(first.manifest.rejections)


class TestTelemetry:
    def test_spans_carry_the_ambient_trace_id(self, manifest_path):
        rec = Recorder()
        with trace_context("ingest-trace-9"):
            run(manifest_path, rec)
        spans = stage_spans(rec)
        assert len(spans) == N_STAGES
        assert all(s.attrs["trace_id"] == "ingest-trace-9" for s in spans)

    def test_stage_latency_histogram_is_populated(self, manifest_path):
        registry = MetricsRegistry()
        run(manifest_path, Recorder(metrics=registry))
        text = registry.render_prometheus()
        assert "ingest_stage_seconds" in text
        for stage in STAGE_NAMES:
            assert f'stage="{stage}"' in text

    def test_run_and_failure_counters(self, manifest_path, tmp_path):
        registry = MetricsRegistry()
        rec = Recorder(metrics=registry)
        run(manifest_path, rec)
        run_pipeline(
            str(FIXTURES / "truncated.fasta"),
            manifest_path=tmp_path / "bad.json",
            recorder=rec,
        )
        text = registry.render_prometheus()
        assert "ingest_runs_total 1" in text
        assert "ingest_failures_total 1" in text
        names = [e.name for e in rec.events if isinstance(e, CounterEvent)]
        assert "ingest.records" in names
        assert "ingest.rejections" in names

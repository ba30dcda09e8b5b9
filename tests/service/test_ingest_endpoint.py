"""Acceptance tests for ``POST /ingest`` against a live subprocess.

The endpoint's three contractual outcomes, each exercised over real
HTTP: a clean upload is QC'd, scheduled and answered with the job
record plus its manifest (with the request's ``X-Trace-Id`` stamped on
every ``ingest.stage`` span in the streamed trace); an oversized body
is refused with the typed 413 before any parsing; a malformed upload
comes back as a 422 whose body carries the stage-0 rejection detail.
"""

import signal
from pathlib import Path

import pytest

from repro.obs import CounterEvent, read_jsonl
from repro.service.errors import PayloadTooLarge, UnprocessableInput
from tests.service.live import serve_subprocess

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
FIXTURES = REPO_ROOT / "tests" / "data" / "fasta"

# Every test here boots a real subprocess server; deselect with -m "not slow".
pytestmark = pytest.mark.slow


@pytest.fixture
def live_server(tmp_path):
    """A ``repro-mut serve`` subprocess; yields (process, client, trace)."""
    trace_path = tmp_path / "service_trace.jsonl"
    with serve_subprocess(
        "--workers", "2", "--trace-out", str(trace_path),
    ) as (proc, client):
        yield proc, client, trace_path


def test_live_ingest_acceptance_and_trace_ids(live_server):
    proc, client, trace_path = live_server
    fasta = (FIXTURES / "clean_dna.fasta").read_text()

    # --- JSON upload, blocking: full record with manifest --------------
    record = client.ingest(
        fasta, distance="p", method="compact",
        wait_seconds=60.0, trace_id="ingest-live-1", verify=True,
    )
    assert record["state"] == "done"
    assert record["trace_id"] == "ingest-live-1"
    assert record["result"]["newick"].endswith(";")
    manifest = record["manifest"]
    assert manifest["status"] == "ok"
    assert [s["name"] for s in manifest["stages"]] == [
        "parse", "qc", "distance", "repair", "tree",
    ]
    assert manifest["input"]["sha256"]
    assert not manifest["rejections"]

    # --- multipart/form-data upload takes the same path ----------------
    multipart = client.ingest(
        fasta, distance="jc", method="upgmm",
        wait_seconds=60.0, trace_id="ingest-live-2", multipart=True,
    )
    assert multipart["state"] == "done"
    # The manifest records the resolved method name, not the alias.
    assert multipart["manifest"]["config"]["distance"] == "jukes-cantor"

    # --- both requests' trace ids reached the ingest.stage spans -------
    proc.send_signal(signal.SIGTERM)
    assert proc.wait(timeout=60) == 0
    events = read_jsonl(trace_path)
    stage_spans = [
        e for e in events
        if not isinstance(e, CounterEvent) and e.name == "ingest.stage"
    ]
    by_trace = {}
    for span in stage_spans:
        by_trace.setdefault(span.attrs.get("trace_id"), []).append(
            span.attrs["stage"]
        )
    assert by_trace["ingest-live-1"] == [
        "parse", "qc", "distance", "repair", "tree",
    ]
    assert by_trace["ingest-live-2"] == [
        "parse", "qc", "distance", "repair", "tree",
    ]


def test_live_ingest_oversized_upload_is_413(live_server):
    _, client, _ = live_server
    # One record, ~9 MiB of residues: past the 8 MiB cap.
    fasta = ">huge\n" + "ACGT" * (9 * 1024 * 1024 // 4) + "\n"
    with pytest.raises(PayloadTooLarge):
        client.ingest(fasta)


def test_live_ingest_malformed_upload_is_422_with_stage_detail(live_server):
    _, client, _ = live_server
    fasta = (FIXTURES / "truncated.fasta").read_text()
    with pytest.raises(UnprocessableInput) as excinfo:
        client.ingest(fasta)
    extra = excinfo.value.extra
    rejections = extra["rejections"]
    assert rejections, "422 body must carry the structured rejections"
    assert rejections[0]["stage"] == 0
    assert rejections[0]["stage_name"] == "parse"
    assert rejections[0]["code"] == "truncated-record"
    assert extra["manifest"]["status"] == "failed"
    assert extra["manifest"]["failed_stage"] == 0


def test_live_ingest_qc_rejection_and_lenient_recovery(live_server):
    _, client, _ = live_server
    fasta = (FIXTURES / "duplicate_id.fasta").read_text()

    with pytest.raises(UnprocessableInput) as excinfo:
        client.ingest(fasta, wait_seconds=60.0)
    assert excinfo.value.extra["rejections"][0]["code"] == "duplicate-id"

    # The same upload in lenient mode drops the offender and solves.
    record = client.ingest(
        fasta, mode="lenient", method="upgmm", wait_seconds=60.0,
    )
    assert record["state"] == "done"
    assert record["manifest"]["status"] == "partial"
    assert record["manifest"]["rejections"]

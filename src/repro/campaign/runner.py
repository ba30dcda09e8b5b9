"""The campaign runner: execute a suite through the job scheduler.

A campaign is *one recorded execution* of a suite.  The runner reuses
the serving layer's :class:`~repro.service.scheduler.Scheduler` rather
than calling the engines directly, so campaigns inherit everything the
service already guarantees: bounded admission, in-flight dedup, the
content-addressed result cache, per-job deadlines, worker supervision
on the process backend, and ``service.job`` spans / cache counters in
the shared trace stream.

What the runner adds on top:

* **Persistence** -- every settled case is upserted into the
  :class:`~repro.campaign.db.CampaignDB` the moment it settles (state,
  cost, newick, cache status, wall/solve seconds, span rollups, search
  counters, verification verdict), so an interrupt loses at most the
  in-flight window.
* **Resume** -- re-running a campaign name skips cases that already
  have a ``done`` row (failed/timeout cases are retried by default);
  the suite spec is validated against the stored one, so a resumed
  campaign can never silently execute a different workload.
* **Interruption** -- a ``stop`` event (the CLI arms it from
  SIGTERM/SIGINT) stops *submission*, drains the in-flight window,
  persists it, and marks the campaign ``interrupted``.
* **Observability** -- a ``campaign.case`` span per case (submit ->
  settle, so queue wait is visible), from which the recorder's metrics
  registry derives ``campaign.cases{state}``, so ``/metrics`` shows live
  campaign progress.
"""

from __future__ import annotations

import json
import re
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Union

from repro.campaign.db import CampaignDB
from repro.campaign.suite import Case, Suite
from repro.obs.recorder import NullRecorder, Recorder, SpanEvent
from repro.service.cache import cache_key
from repro.service.jobs import Job, JobState
from repro.service.scheduler import Scheduler
from repro.version import engine_fingerprint

__all__ = ["CampaignMismatch", "CampaignResult", "run_campaign"]

#: Job terminal state -> persisted case state (identical strings today,
#: but the mapping is the explicit contract).
_JOB_STATE_TO_CASE = {
    JobState.DONE: "done",
    JobState.FAILED: "failed",
    JobState.TIMEOUT: "timeout",
    JobState.CANCELLED: "cancelled",
}

#: Case states that count as "already completed" for resume purposes.
RESUME_SKIP_STATES = ("done",)


class CampaignMismatch(RuntimeError):
    """Resuming a campaign whose stored suite spec differs."""


@dataclass
class CampaignResult:
    """What one ``run_campaign`` invocation did (not the whole campaign:
    a resume reports only its own executed/skipped split)."""

    name: str
    campaign_id: int
    status: str
    total_cases: int
    executed: int = 0
    skipped: int = 0
    interrupted: bool = False
    state_counts: Dict[str, int] = field(default_factory=dict)
    elapsed_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        """Completed with every case ``done``."""
        return self.status == "completed" and all(
            state == "done" or count == 0
            for state, count in self.state_counts.items()
        )

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "campaign_id": self.campaign_id,
            "status": self.status,
            "total_cases": self.total_cases,
            "executed": self.executed,
            "skipped": self.skipped,
            "interrupted": self.interrupted,
            "state_counts": dict(self.state_counts),
            "elapsed_seconds": self.elapsed_seconds,
            "ok": self.ok,
        }


def _trace_safe(case_id: str) -> str:
    """A case id reduced to the charset trace ids allow."""
    return re.sub(r"[^A-Za-z0-9._-]", "-", case_id)[:96]


def _rollups(events, trace_id: str) -> Dict[str, dict]:
    """Per-name span totals and counter sums for one case's trace.

    Also keeps the *last* ``bnb.progress`` heartbeat's attrs (under
    ``"progress"``): the solver's closing incumbent/bound/gap snapshot,
    which :func:`_persist_case` folds into the counters column so
    ``campaign trend`` can track convergence quality across versions.
    """
    from repro.obs.profile import filter_by_trace_id

    mine = filter_by_trace_id(events, trace_id)
    spans: Dict[str, dict] = {}
    counters: Dict[str, float] = {}
    progress_final: Optional[dict] = None
    for event in mine:
        if isinstance(event, SpanEvent):
            entry = spans.setdefault(event.name, {"count": 0, "seconds": 0.0})
            entry["count"] += 1
            entry["seconds"] += event.duration
        else:
            counters[event.name] = counters.get(event.name, 0.0) + event.value
            if event.name == "bnb.progress":
                progress_final = dict(event.attrs)
    return {"spans": spans, "counters": counters, "progress": progress_final}


def run_campaign(
    db: Union[CampaignDB, str],
    suite: Suite,
    *,
    name: Optional[str] = None,
    methods: Optional[List[str]] = None,
    backend: str = "thread",
    workers: int = 4,
    start_method: Optional[str] = None,
    verify: bool = True,
    job_timeout: Optional[float] = None,
    recorder: Optional[NullRecorder] = None,
    stop: Optional[threading.Event] = None,
    stop_after: Optional[int] = None,
    throttle_seconds: float = 0.0,
    progress: Optional[Callable[[int, int, Case, str], None]] = None,
) -> CampaignResult:
    """Execute (or resume) ``suite`` as the campaign called ``name``.

    Parameters beyond the obvious:

    stop:
        A :class:`threading.Event`; once set, no further cases are
        submitted, the in-flight window is drained and persisted, and
        the campaign is marked ``interrupted``.  The CLI arms it from
        SIGTERM/SIGINT, which is the graceful-drain path the resume
        tests exercise.
    stop_after:
        Deterministic interruption aid: behave as if ``stop`` fired
        after this many cases were *executed this invocation* (resume
        tests use it to carve a campaign into exact halves).
    throttle_seconds:
        Sleep between submissions -- keeps a smoke campaign from
        saturating a shared host and gives the SIGTERM tests a stable
        window to interrupt.
    verify:
        Run the result oracles on every payload (the scheduler's
        ``verify=True`` path) and persist the verdict per case.
    progress:
        ``(index, total, case, state)`` callback after each settle.

    Returns a :class:`CampaignResult`; the full per-case record lives in
    the database.
    """
    own_db = isinstance(db, str)
    handle = CampaignDB(db) if own_db else db
    rec = Recorder() if recorder is None else recorder
    stop = stop or threading.Event()
    t_start = time.time()
    try:
        cases = suite.cases(methods)
        campaign_name = name or suite.name
        fingerprint = engine_fingerprint()
        existing = handle.get_campaign(campaign_name)
        skipped_ids = set()
        if existing is not None:
            if existing["suite_spec"] != suite.spec_json():
                raise CampaignMismatch(
                    f"campaign {campaign_name!r} was recorded for a "
                    f"different suite spec; diff the specs or pick a new "
                    f"campaign name"
                )
            campaign_id = int(existing["id"])
            skipped_ids = handle.case_ids_in_state(
                campaign_id, RESUME_SKIP_STATES
            )
            handle.mark_resumed(campaign_id, fingerprint, backend)
        else:
            campaign_id = handle.create_campaign(
                campaign_name,
                suite=suite.name,
                suite_spec=suite.spec_json(),
                seed=suite.seed,
                backend=backend,
                hostname=socket.gethostname(),
                fingerprint=fingerprint,
            )

        result = CampaignResult(
            name=campaign_name,
            campaign_id=campaign_id,
            status="running",
            total_cases=len(cases),
            skipped=len([c for c in cases if c.id in skipped_ids]),
        )

        pending = [c for c in cases if c.id not in skipped_ids]
        window = max(2 * workers, 4)
        scheduler = Scheduler(
            workers=workers,
            queue_size=window + workers,
            recorder=rec,
            default_timeout=job_timeout,
            backend=backend,
            start_method=start_method,
        )
        inflight: List[tuple] = []  # (case, job|None, error, t_submit)
        settled = 0

        def settle_one() -> None:
            nonlocal settled
            case, job, submit_error, t_submit = inflight.pop(0)
            state = _persist_case(
                handle, campaign_id, case, job, submit_error, rec,
                t_submit=t_submit,
            )
            settled += 1
            result.executed += 1
            if progress is not None:
                progress(settled, len(pending), case, state)

        try:
            for case in pending:
                if stop.is_set() or (
                    stop_after is not None and result.executed +
                    len(inflight) >= stop_after
                ):
                    result.interrupted = True
                    break
                if throttle_seconds > 0:
                    time.sleep(throttle_seconds)
                t_submit = rec.clock()
                try:
                    job = scheduler.submit(
                        case.matrix,
                        case.method,
                        case.cache_options(),
                        trace_id=f"campaign-{campaign_id}-"
                                 f"{_trace_safe(case.id)}",
                        verify=verify,
                    )
                    inflight.append((case, job, None, t_submit))
                except Exception as exc:  # noqa: BLE001 - persist, go on
                    inflight.append((case, None, exc, t_submit))
                while len(inflight) >= window:
                    settle_one()
            if stop.is_set():
                result.interrupted = True
            while inflight:
                settle_one()
        finally:
            scheduler.shutdown(drain=True)

        status = "interrupted" if result.interrupted else "completed"
        handle.mark_status(campaign_id, status)
        result.status = status
        result.state_counts = handle.state_counts(campaign_id)
        result.elapsed_seconds = time.time() - t_start
        return result
    finally:
        if own_db:
            handle.close()


def _persist_case(
    db: CampaignDB,
    campaign_id: int,
    case: Case,
    job: Optional[Job],
    submit_error: Optional[BaseException],
    rec: NullRecorder,
    *,
    t_submit: float,
) -> str:
    """Wait out one case's job, upsert its row, emit its span."""
    if job is not None:
        job.wait()
        state = _JOB_STATE_TO_CASE.get(job.state, "failed")
        payload = job.payload or {}
        verification = job.verification
    else:
        state = "failed"
        payload = {}
        verification = None
    t_settle = rec.clock()
    trace_id = job.trace_id if job is not None else None
    roll = (
        _rollups(rec.events, trace_id)
        if rec.enabled and trace_id else {"spans": {}, "counters": {}}
    )
    job_span = roll["spans"].get("service.job", {})
    solve_span = roll["spans"].get("bnb.solve", {})
    wall = job_span.get("seconds")
    if wall is None and job is not None and job.finished_at and job.started_at:
        wall = job.finished_at - job.started_at
    verified_ok: Optional[int] = None
    violations_json: Optional[str] = None
    if verification is not None and "ok" in verification:
        verified_ok = 1 if verification["ok"] else 0
        violations_json = json.dumps(
            verification.get("violations", []), sort_keys=True
        )
    final_progress = roll.get("progress")
    if final_progress is not None:
        # Scalar convergence rollups ride the counters JSON column (no
        # schema bump): the solver's closing gap and lower bound.
        if final_progress.get("gap") is not None:
            roll["counters"]["bnb.final_gap"] = float(final_progress["gap"])
        if final_progress.get("best_lower_bound") is not None:
            roll["counters"]["bnb.final_lower_bound"] = float(
                final_progress["best_lower_bound"]
            )
    nodes = roll["counters"].get("bnb.nodes_expanded")
    if nodes is None and final_progress is not None:
        nodes = final_progress.get("nodes_expanded")
    error = None
    if submit_error is not None:
        error = f"{type(submit_error).__name__}: {submit_error}"
    elif job is not None and job.error:
        error = job.error
    db.upsert_case(
        campaign_id,
        case.id,
        family=case.family,
        source=case.source,
        n_species=case.matrix.n,
        method=case.method,
        options=json.dumps(dict(case.options), sort_keys=True),
        matrix_digest=case.matrix.digest(),
        cache_key=cache_key(case.matrix, case.method, case.options),
        state=state,
        cost=payload.get("cost"),
        newick=payload.get("newick"),
        error=error,
        cache_status=job.cache_status if job is not None else None,
        wall_seconds=wall,
        solve_seconds=solve_span.get("seconds"),
        nodes_expanded=int(nodes) if nodes is not None else None,
        verified_ok=verified_ok,
        violations=violations_json,
        spans=json.dumps(roll["spans"], sort_keys=True),
        counters=json.dumps(roll["counters"], sort_keys=True),
        finished_at=time.time(),
    )
    # Submit -> settle (queue wait included; attrs say so), so live
    # traces show campaign progress case by case.
    rec.add_span(
        "campaign.case",
        t_submit,
        t_settle,
        case=case.id,
        method=case.method,
        n=case.matrix.n,
        state=state,
        includes_queue_wait=True,
    )
    return state

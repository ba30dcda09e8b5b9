"""``serve-mix``: two closed-loop HTTP connections against ``repro-mut serve``.

The server is a ``python3 -m repro.cli serve --port 0 --workers 2``
subprocess with its default method (``compact``) and so its default
backend (worker processes).  Each connection repeats a fixed cycle of
request classes (:data:`MIX`), sending the next request only after the
previous one answered:

* ``cold``   -- ``POST /solve`` of a fresh 60-species matrix (a cache miss);
* ``warm``   -- ``POST /solve`` repeating a matrix this connection
  completed, round robin over all of them (a cache hit, never a dedup:
  the other connection never sends it);
* ``ingest`` -- ``POST /ingest`` of a fresh 40 x 1,000 bp FASTA upload
  (``distance: jc``).

Every request asks for ``verify: true``.  A connection stops after
:data:`MAX_CYCLES` cycles even if time remains, so the run never sends
more distinct matrices than the server's 256-entry result cache holds;
:func:`derive_mix` sizes the cycle from that limit.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from perfbench import inputs
from perfbench.common import (
    OUT_DIR,
    ROOT,
    Outcome,
    median,
    percentile,
    proc_peak_rss_mb,
    source_env,
    summary,
)
from perfbench.exact import EXPECTED_PATH
from perfbench.trace import SpanLog, count, counter_sum, group_by_trace, total

CONNECTIONS = 2
WORKERS = 2

# ----------------------------------------------------------------------
# The cycle.  Every cold and every ingest request adds an entry to the
# server's result cache, and a run must never evict one (a warm request
# must stay a hit).  So the cache size, not a guess, sizes the cycle;
# NOTES.md ("Where the mix comes from") walks through the numbers.
# ----------------------------------------------------------------------
#: The server's default result-cache size; checked against ``/stats``.
CACHE_ENTRIES = 256
#: Entries the set-up requests leave behind (see :func:`warm_up`).
WARMUP_ENTRIES = WORKERS + 1
#: The run length the cycle is sized for (``run_seconds``, BENCHMARK.json).
DESIGN_SECONDS = 30.0
#: Median client round trip per class under this mix, in ms, on the
#: 2-vCPU x86-64 VM the benchmark was tuned on (``classes_ms`` in a report).
TUNED_MS = {"cold": 95.0, "warm": 56.0, "ingest": 245.0}
#: The cache must hold a whole run on a server this much faster than
#: tuned, and ``cold_ms_p90`` must keep its samples on one this much slower.
HEADROOM = 1.2
#: A p90 is reported only with at least ten samples beyond it.
P90_SAMPLES = 100
#: Ingest is the rarest class: it is the dearest, and its p90 is no
#: end-to-end metric.
INGEST_PER_CYCLE = 1


def _max_cycles(cold: int) -> int:
    """Cycles per connection before a run would fill the cache."""
    fresh = CONNECTIONS * (cold + INGEST_PER_CYCLE)
    return (CACHE_ENTRIES - WARMUP_ENTRIES) // fresh


def derive_mix() -> Tuple[Tuple[str, ...], int]:
    """The cycle of request classes, and the cycles a connection may run.

    * colds: the fewest per ingest such that a run on a ``HEADROOM``
      slower server still has ``P90_SAMPLES`` cold requests (the run
      reaches ``1/HEADROOM`` of the cache on the tuning host, by the
      warm count below);
    * warms: the fewest that stretch a cycle so that ``DESIGN_SECONDS``
      on a ``HEADROOM`` faster server stays within the cache.  Warm
      requests add no entry; they are the only filler there is.
    """
    cold = 1
    while (CONNECTIONS * cold * _max_cycles(cold) / HEADROOM ** 2
           < P90_SAMPLES):
        cold += 1
    cycles = _max_cycles(cold)
    cycle_ms = HEADROOM * 1000.0 * DESIGN_SECONDS / cycles
    fixed_ms = cold * TUNED_MS["cold"] + INGEST_PER_CYCLE * TUNED_MS["ingest"]
    warm = max(cold, math.ceil((cycle_ms - fixed_ms) / TUNED_MS["warm"]))
    # Each cold is followed by its share of the warms; ingest goes after
    # the first cold's share.
    blocks = [("cold",) + ("warm",) * (warm // cold + (k < warm % cold))
              for k in range(cold)]
    blocks.insert(1, ("ingest",) * INGEST_PER_CYCLE)
    return tuple(cls for block in blocks for cls in block), cycles


#: cold warm warm warm warm ingest cold warm warm warm warm, 42 cycles.
MIX, MAX_CYCLES = derive_mix()
SETUP_REPEATS = 3
REQUEST_TIMEOUT = 60.0
COST_RTOL = 1e-9
#: Newick carries 12 decimals, the scheduler's receipt check allows 1e-9.
NEWICK_ATOL = 1e-9


@dataclass
class Request:
    cls: str
    base: str
    path: str
    body: bytes


@dataclass
class Sample:
    """One answered (or failed) request."""

    cls: str
    base: str
    trace_id: str
    start: float
    rtt: float
    status: int
    record: Optional[dict]
    error: Optional[str] = None


@dataclass
class Phase:
    """What both connections of one measured phase produced."""

    samples: List[Sample] = field(default_factory=list)
    cycles: List[float] = field(default_factory=list)
    wall: float = 0.0


def _solve_body(case: inputs.Case) -> bytes:
    return json.dumps({
        "matrix": {"values": case.values.tolist(), "labels": list(case.labels)},
        "method": "compact",
        "verify": True,
    }).encode("utf-8")


def _ingest_body(text: str) -> bytes:
    return json.dumps(
        {"fasta": text, "distance": "jc", "verify": True}
    ).encode("utf-8")


def build_requests(pool, seed: int, conn: int, cycles: int) -> Dict[str, list]:
    """Pre-serialised cold and ingest requests for one connection."""
    per_cycle = {cls: MIX.count(cls) for cls in ("cold", "ingest")}
    colds = inputs.cold_cases(pool, seed, conn)
    texts = inputs.ingest_texts(pool, seed, conn)
    cold = []
    for _ in range(cycles * per_cycle["cold"]):
        case = next(colds)
        cold.append(Request("cold", case.base, "/solve", _solve_body(case)))
    ingest = []
    for _ in range(cycles * per_cycle["ingest"]):
        base, text = next(texts)
        ingest.append(Request("ingest", base, "/ingest", _ingest_body(text)))
    return {"cold": cold, "ingest": ingest}


class Server:
    """One ``repro-mut serve`` subprocess, started and stopped cleanly."""

    def __init__(self, trace_out: Optional[Path] = None) -> None:
        self.trace_out = trace_out
        self.proc: Optional[subprocess.Popen] = None
        self.host = "127.0.0.1"
        self.port = 0

    def start(self) -> None:
        argv = [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
                "--workers", str(WORKERS)]
        if self.trace_out is not None:
            argv += ["--trace-out", str(self.trace_out)]
        OUT_DIR.mkdir(exist_ok=True)
        with (OUT_DIR / "server.log").open("a") as log:
            self.proc = subprocess.Popen(
                argv, cwd=ROOT, env=source_env(), stdout=subprocess.PIPE,
                stderr=log, text=True, start_new_session=True,
            )
        line = self.proc.stdout.readline()
        if "listening on http://" not in line:
            raise RuntimeError(f"server did not start: {line!r}")
        self.host, port = line.strip().rsplit("/", 1)[1].rsplit(":", 1)
        self.port = int(port)
        deadline = time.monotonic() + 60
        while self.get("/healthz")[0] != 200:
            if time.monotonic() > deadline:
                raise RuntimeError("server never became healthy")
            time.sleep(0.01)

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(
            self.host, self.port, timeout=REQUEST_TIMEOUT
        )

    def get(self, path: str) -> Tuple[int, dict]:
        conn = self.connect()
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        except OSError:
            return 0, {}
        finally:
            conn.close()

    def peak_rss_mb(self) -> float:
        return proc_peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        if self.proc is None:
            return
        try:
            self.proc.send_signal(signal.SIGTERM)
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=30)
        finally:
            self.proc.stdout.close()
            # The worker processes share the server's session; none may
            # outlive it.
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            self.proc = None


def send(conn: http.client.HTTPConnection, request: Request,
         trace_id: str) -> Sample:
    headers = {"Content-Type": "application/json", "X-Trace-Id": trace_id}
    t0 = time.perf_counter()
    try:
        conn.request("POST", request.path, body=request.body, headers=headers)
        response = conn.getresponse()
        raw = response.read()
        rtt = time.perf_counter() - t0
    except (OSError, http.client.HTTPException) as exc:
        return Sample(request.cls, request.base, trace_id, t0,
                      time.perf_counter() - t0, 0, None,
                      f"{type(exc).__name__}: {exc}")
    try:
        record = json.loads(raw)
    except ValueError:
        record = None
    return Sample(request.cls, request.base, trace_id, t0, rtt,
                  response.status, record)


def warm_up(server: Server, pool) -> None:
    """The server's first requests: one solve per worker and one ingest."""
    texts = inputs.ingest_texts(pool, 0, 99)
    colds = inputs.cold_cases(pool, 0, 99)
    requests = [Request("cold", "", "/solve", _solve_body(next(colds)))
                for _ in range(WORKERS)]
    requests.append(Request("ingest", "", "/ingest",
                            _ingest_body(next(texts)[1])))
    results: List[Sample] = []

    def one(request: Request, index: int) -> None:
        conn = server.connect()
        try:
            results.append(send(conn, request, f"warmup-{index}"))
        finally:
            conn.close()

    threads = [threading.Thread(target=one, args=(r, i))
               for i, r in enumerate(requests)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(REQUEST_TIMEOUT)
    bad = [s for s in results if s.status != 200]
    if len(results) != len(requests) or bad:
        raise RuntimeError(f"server warm-up failed: {bad}")


def drive(server: Server, plans: List[Dict[str, list]], seconds: float,
          tag: str) -> Phase:
    """Both connections' closed loops for ``seconds``; returns the phase."""
    phase = Phase()
    lock = threading.Lock()
    deadline = time.perf_counter() + seconds

    def client(index: int) -> None:
        plan = plans[index]
        conn = server.connect()
        completed: List[Request] = []
        samples, cycles = [], []
        used = {"cold": 0, "ingest": 0, "warm": 0}
        sent = 0
        try:
            for _ in range(MAX_CYCLES):
                if time.perf_counter() >= deadline:
                    break
                t_cycle = time.perf_counter()
                for cls in MIX:
                    if cls == "warm":
                        request = replace(
                            completed[used["warm"] % len(completed)], cls="warm")
                    else:
                        request = plan[cls][used[cls]]
                    used[cls] += 1
                    sample = send(conn, request, f"{tag}-{cls}-c{index}-{sent}")
                    sent += 1
                    samples.append(sample)
                    if cls == "cold" and sample.status == 200:
                        completed.append(request)
                cycles.append(time.perf_counter() - t_cycle)
        finally:
            conn.close()
            with lock:
                phase.samples.extend(samples)
                phase.cycles.extend(cycles)

    t0 = time.perf_counter()
    threads = [threading.Thread(target=client, args=(i,))
               for i in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    phase.wall = time.perf_counter() - t0
    return phase


def check(outcome: Outcome, phase: Phase, expected: Dict[str, dict]) -> None:
    """Every request: HTTP 200, job ``done``, verified, consistent cost."""
    from repro.tree.newick import parse_newick

    want_cache = {"cold": "miss", "warm": "hit", "ingest": "miss"}
    for sample in phase.samples:
        problems = []
        record = sample.record or {}
        result = record.get("result") or {}
        if sample.error is not None:
            problems.append(sample.error)
        elif sample.status != 200 or record.get("state") != "done":
            problems.append(
                f"HTTP {sample.status}, state {record.get('state')!r}: "
                f"{record.get('error') or record.get('detail')}"
            )
        elif (record.get("verification") or {}).get("ok") is not True:
            problems.append(f"verification: {record.get('verification')}")
        elif record.get("cache") != want_cache[sample.cls]:
            problems.append(
                f"{sample.cls} request answered with cache "
                f"{record.get('cache')!r}"
            )
        else:
            cost = float(result["cost"])
            newick_cost = parse_newick(result["newick"]).cost()
            if abs(newick_cost - cost) > NEWICK_ATOL * max(1.0, cost):
                problems.append(f"newick cost {newick_cost!r} != {cost!r}")
            limit = expected[sample.base]["cost"] * (1 + COST_RTOL)
            if cost > limit:
                problems.append(
                    f"{sample.base}: cost {cost!r} worse than recorded "
                    f"{expected[sample.base]['cost']!r}"
                )
        if problems:
            problems = [f"{sample.trace_id}: {p}" for p in problems]
        outcome.operation(problems)


def _class_ms(phase: Phase, cls: str) -> List[float]:
    return [1000.0 * s.rtt for s in phase.samples
            if s.cls == cls and s.status == 200]


def run(seed: int, seconds: float, trace: bool, size: str,
        cost_bias: float = 1.0) -> Outcome:
    from repro.heuristics.upgma import upgmm

    outcome = Outcome()
    expected = json.loads(EXPECTED_PATH.read_text())["serve"][size]
    if cost_bias != 1.0:
        expected = {k: {"cost": v["cost"] / cost_bias}
                    for k, v in expected.items()}
    pool = inputs.serve_pool(size)
    outcome.report["matrices"] = (
        [{"base": name, "species": m.n} for name, m in pool.solve]
        + [{"base": name, "species": len(seqs)} for name, seqs in pool.ingest]
    )
    upgmm_cost = {name: upgmm(m).cost() for name, m in pool.solve}
    plans = [build_requests(pool, seed, c, MAX_CYCLES)
             for c in range(CONNECTIONS)]

    setup: List[float] = []
    server = None
    try:
        # Set-up is only reported by the untraced run.
        for _ in range(1 if trace else SETUP_REPEATS):
            if server is not None:
                server.stop()
            server = Server()
            t0 = time.perf_counter()
            server.start()
            warm_up(server, pool)
            setup.append(time.perf_counter() - t0)
        budget = seconds / 2 if trace else seconds
        phase = drive(server, plans, budget, "u")
        plain_stats = server.get("/stats")[1]
        peak = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()
    check(outcome, phase, expected)
    capacity = plain_stats.get("cache", {}).get("capacity")
    if capacity != CACHE_ENTRIES:
        outcome.fail(f"the server caches {capacity} results; the mix is "
                     f"sized for {CACHE_ENTRIES}")
    classes = {cls: summary(_class_ms(phase, cls)) for cls in ("cold", "warm", "ingest")}
    outcome.report.update({
        "setup_samples_s": setup,
        "classes_ms": classes,
        "cycles": summary(phase.cycles),
        "server_stats": plain_stats,
    })
    if not trace:
        cold = _class_ms(phase, "cold")
        ratios = [100.0 * float(s.record["result"]["cost"]) / upgmm_cost[s.base]
                  for s in phase.samples
                  if s.cls == "cold" and s.status == 200 and s.record]
        outcome.metrics.update({
            "setup_s": median(setup),
            "wall_s": median(phase.cycles),
            "cold_ms_p50": median(cold),
            "cold_ms_p90": percentile(cold, 90),
            "throughput_rps": sum(1 for s in phase.samples if s.status == 200)
            / phase.wall,
            "cost_pct_of_upgmm": sum(ratios) / len(ratios) if ratios else 0.0,
            "peak_rss_mb": peak,
        })
        return outcome
    return _run_traced(outcome, pool, plans, expected, phase, seconds / 2)


def _run_traced(outcome, pool, plans, expected, plain: Phase,
                seconds: float) -> Outcome:
    """A second server with ``--trace-out``; spans grouped by trace id."""
    from repro.obs.recorder import read_jsonl

    trace_path = OUT_DIR / "server-trace.jsonl"
    server = Server(trace_out=trace_path)
    try:
        server.start()
        warm_up(server, pool)
        traced = drive(server, plans, seconds, "t")
        stats = server.get("/stats")[1]
    finally:
        server.stop()
    check(outcome, traced, expected)
    events = [event.to_json() for event in read_jsonl(trace_path)]
    by_trace = group_by_trace(events)
    log = SpanLog()
    log.extend(events, source="server")

    def per_class(cls: str, fn) -> List[float]:
        return [fn(s, by_trace.get(s.trace_id, [])) for s in traced.samples
                if s.cls == cls and s.status == 200 and s.record]

    def ms(name, **match):
        return lambda s, spans: 1000.0 * total(spans, name, **match)

    def job_window(s: Sample) -> float:
        return s.record["finished_at"] - s.record["submitted_at"]

    def attributed(s: Sample, spans) -> float:
        return (total(spans, "ingest.stage") + total(spans, "service.job")
                + s.record["started_at"] - s.record["submitted_at"])

    m = outcome.metrics
    for sample in traced.samples:
        log.add("perfbench.request", sample.start, sample.start + sample.rtt,
                trace_id=sample.trace_id, cls=sample.cls, status=sample.status)
    cold_nodes = per_class("cold", lambda s, e: counter_sum(e, "bnb.nodes_expanded"))
    created = sum(per_class("cold", lambda s, e: counter_sum(e, "bnb.nodes_created")))
    pruned = sum(per_class("cold", lambda s, e: counter_sum(e, "bnb.nodes_pruned")))
    m["bnb.nodes_expanded"] = median(cold_nodes)
    m["bnb.prune_fraction"] = pruned / created if created else 0.0
    m["bnb.solves_per_request"] = median(
        per_class("cold", lambda s, e: float(count(e, "bnb.solve"))))
    m["bnb.solve_ms_per_request"] = median(per_class("cold", ms("bnb.solve")))
    for stage in ("discover", "reduce", "solve", "merge"):
        m[f"pipeline.{stage}_ms"] = median(per_class("cold", ms(f"pipeline.{stage}")))
    for cls in ("cold", "warm", "ingest"):
        m[f"verify.oracle_ms.{cls}"] = median(per_class(cls, ms("verify.oracle")))
        m[f"service.job_ms.{cls}"] = median(per_class(cls, ms("service.job")))
    solves = [s for s in traced.samples
              if s.cls != "ingest" and s.status == 200 and s.record]
    m["service.http_ms"] = median([1000.0 * (s.rtt - job_window(s)) for s in solves])
    m["service.queue_wait_ms"] = median([
        1000.0 * (s.record["started_at"] - s.record["submitted_at"])
        for s in traced.samples if s.status == 200 and s.record
    ])
    m["service.transport_ms"] = median(per_class("cold", lambda s, e: 1000.0 * (
        total(e, "service.job") - total(e, "pipeline.build")
        - total(e, "verify.oracle")
    )))
    cache = stats.get("cache", {})
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    m["service.cache_hit_ratio"] = cache.get("hits", 0) / lookups if lookups else 0.0
    m["service.deduped"] = float(stats.get("deduped", 0))
    for stage in ("parse", "qc", "distance", "repair"):
        m[f"ingest.{stage}_ms"] = median(per_class("ingest", ms("ingest.stage", stage=stage)))
    na = outcome.not_applicable
    for cls in ("warm", "ingest"):
        values = _class_ms(plain, cls)
        m[f"{cls}_ms_p50"] = median(values)
        if summary(values)["p90_supported"]:
            m[f"{cls}_ms_p90"] = percentile(values, 90)
        else:
            na[f"{cls}_ms_p90"] = (
                f"{len(values)} {cls} samples in the untraced half, fewer "
                f"than ten beyond p90; {cls}_ms_p50 and classes_ms.{cls}.n "
                f"in the report stand for the class")
    m["unattributed_ms"] = median([
        1000.0 * (s.rtt - attributed(s, by_trace.get(s.trace_id, [])))
        for s in traced.samples if s.status == 200 and s.record
    ])
    m["trace_overhead_pct"] = 100.0 * (
        median(traced.cycles) / median(plain.cycles) - 1.0
    )
    why = ("the server's solves expand almost no nodes, and the in-process "
           "wrappers cannot reach the server's worker processes")
    for name in ("bnb.us_per_expansion", "bnb.expand_s", "bnb.presearch_s",
                 "bnb.driver_s"):
        na[name] = why
    outcome.report.update({
        "traced_classes_ms": {
            cls: summary(_class_ms(traced, cls)) for cls in ("cold", "warm", "ingest")
        },
        "traced_server_stats": stats,
    })
    log.write("spans-serve-mix.jsonl")
    return outcome

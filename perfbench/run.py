"""Run one benchmark workload and print its metrics.

Usage (from the checkout root)::

    python3 perfbench/run.py --workload exact-seq --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` turns on the program's existing tracing (and the
benchmark's own timing wrappers) and reports the per-layer metrics.
Every result is checked; a failed check makes the run exit with code 1.
The last line of standard output is the result object::

    {"correct": true, "attempted": 96, "failed": 0, "metrics": {...}}

A per-run report with provenance (host, versions, engine fingerprint,
seed, per-matrix sizes and node counts) and every sample is written to
``.perfbench/``.  ``--size tiny`` runs small inputs (the benchmark's
own tests use it).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import (  # noqa: E402
    ROOT,
    SetupError,
    load_spec,
    provenance,
    use_source_tree,
    write_report,
)

WORKLOADS = ("exact-seq", "exact-mp2", "serve-mix")

_BNB_COUNTS = ("bnb.nodes_expanded", "bnb.prune_fraction",
               "bnb.solves_per_request", "bnb.solve_ms_per_request")
_EVERY = ("unattributed_ms", "trace_overhead_pct")
#: The per-layer metrics each workload measures.  The rest are reported
#: as 0 with the reason on standard error and in the report file.
MEASURED = {
    "exact-seq": _BNB_COUNTS + _EVERY + (
        "bnb.us_per_expansion", "bnb.expand_s", "bnb.presearch_s",
        "bnb.driver_s", "verify.oracle_ms.cold",
    ),
    "exact-mp2": _EVERY + (
        "bnb.nodes_expanded", "bnb.prune_fraction", "bnb.us_per_expansion",
        "parallel.search_overhead", "parallel.worker_imbalance",
        "parallel.prebranch_s", "parallel.speedup", "verify.oracle_ms.cold",
    ),
    "serve-mix": _BNB_COUNTS + _EVERY + tuple(
        f"{layer}.{name}" for layer, names in (
            ("pipeline", ("discover_ms", "reduce_ms", "solve_ms", "merge_ms")),
            ("verify", ("oracle_ms.cold", "oracle_ms.warm", "oracle_ms.ingest")),
            ("service", ("http_ms", "queue_wait_ms", "job_ms.cold",
                         "job_ms.warm", "job_ms.ingest", "transport_ms",
                         "cache_hit_ratio", "deduped")),
            ("ingest", ("parse_ms", "qc_ms", "distance_ms", "repair_ms")),
        ) for name in names
    ) + ("warm_ms_p50", "warm_ms_p90", "ingest_ms_p50", "ingest_ms_p90"),
}


def not_measured_reason(workload: str, name: str) -> str:
    for cls in ("warm", "ingest"):
        if name.startswith(cls) or name.endswith("." + cls):
            return f"{workload} sends no {cls} requests"
    return f"the {name.split('.')[0]} layer does no work in {workload}"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument(
        "--cost-bias", type=float, default=1.0,
        help="scale every observed cost before it is checked (tests use "
             "this to prove a wrong cost fails the run)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        spec = load_spec()
        use_source_tree()
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}

    from perfbench import exact, serve

    t0 = time.perf_counter()
    if args.workload == "serve-mix":
        outcome = serve.run(args.seed, args.seconds, bool(args.trace),
                            args.size, args.cost_bias)
    else:
        outcome = exact.run(args.workload, args.seed, args.seconds,
                            bool(args.trace), args.size, args.cost_bias)
    if args.trace:
        for name in units:
            if name not in MEASURED[args.workload]:
                outcome.not_applicable.setdefault(
                    name, not_measured_reason(args.workload, name))
        for name, why in outcome.not_applicable.items():
            outcome.metrics[name] = 0.0
            print(f"perfbench: {name} = 0, not measured: {why}", file=sys.stderr)
    if outcome.attempted and not args.trace:
        outcome.metrics["ok_frac"] = (
            (outcome.attempted - outcome.failed) / outcome.attempted
        )
    missing = sorted(set(units) - set(outcome.metrics))
    if missing:
        outcome.fail(f"metrics not measured: {missing}")
    metrics = {
        name: {"value": outcome.metrics.get(name, 0.0), "unit": unit}
        for name, unit in units.items()
    }
    correct = not outcome.failures and outcome.attempted > 0
    info = provenance(args.workload, args.seed, args.size)
    info["matrices"] = outcome.report.pop("matrices", [])
    report = dict(outcome.report, provenance=info, metrics=metrics,
                  not_applicable=outcome.not_applicable,
                  failures=outcome.failures, run_seconds=time.perf_counter() - t0)
    path = write_report(
        f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json", report
    )
    for failure in outcome.failures[:20]:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    print(json.dumps({"provenance": info, "report": str(path.relative_to(ROOT))},
                     sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed if outcome.attempted else 1,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

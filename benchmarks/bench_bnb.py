"""B&B branching benchmark: native core vs NumPy kernel vs scalar loop.

Times a full sequential Algorithm-BBU solve on each of the three
branching paths and verifies the three searches are *bit-identical*
(same cost, same node counts), then writes a machine-readable
``BENCH_bnb.json``:

* ``native`` -- the production path: the C depth-first search core
  (:mod:`repro.bnb.native`), ``native_seconds``;
* ``kernel`` -- the Python loop with the batched NumPy branching kernel
  (:class:`repro.bnb.kernel.BranchKernel`), the no-compiler fallback,
  ``kernel_seconds``;
* ``scalar`` -- ``use_kernel=False``, the per-child reference loop kept
  as the differential oracle, ``scalar_seconds``.

Workloads are the papers' shapes, not the pipeline's: hierarchical
matrices *decompose* into tiny subproblems under the compact-set
pipeline, so the branching hot loop is exercised by solving the full
matrix with plain ``exact_mut``.

* 26 species (the HMDNA-26 scale), solved to optimality;
* 38 species (the HMDNA-38 scale) with a 20k node-expansion cap -- the
  full solve is infeasible for the Python loops, and because every path
  makes bit-identical decisions they expand the *same* 20k nodes, so the
  wall-clock ratio is a fair branching-speed measure.

Each workload pins the sha256 digest of its input matrix
(``DistanceMatrix.digest``); a generator change that alters the input
fails the run instead of silently re-baselining the numbers.

Usage::

    PYTHONPATH=src python benchmarks/bench_bnb.py           # full sweep
    PYTHONPATH=src python benchmarks/bench_bnb.py --smoke   # CI smoke
    PYTHONPATH=src python benchmarks/bench_bnb.py --out path.json
    PYTHONPATH=src python benchmarks/bench_bnb.py --db campaigns.sqlite

The acceptance gates on the 26-species full solve are a >= 5x speedup of
the kernel over the scalar loop (``acceptance.speedup_26``) and, when the
native core is available, a >= 3x speedup of the native core over the
kernel (``acceptance.native_speedup_26``); ``--smoke`` caps every
workload and gates nothing.

The report also measures the cost of *live progress telemetry*
(``progress_overhead``): the first workload is re-solved on the
production path with a :class:`~repro.obs.progress.ProgressTracker`
installed, alternating enabled/disabled runs and comparing minima.  The
measured percentage is recorded, not gated, because sub-second solves
are noise-bound.

``--db`` additionally upserts the per-workload numbers into a campaign
run database (stable workload-name case ids, engine fingerprint
stamped), so ``repro-mut campaign trend`` charts bench history across
engine versions.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import sys
import time
from pathlib import Path
from unittest import mock

from repro.bnb import native
from repro.bnb.sequential import BranchAndBoundSolver
from repro.matrix.generators import hierarchical_matrix

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_bnb.json"

#: (name, generator groups, seed, node_limit, input digest) -- node_limit
#: None means solve to proven optimality; the digest pins the input.
FULL_WORKLOADS = (
    ("hmdna26-full", [[7, 6], [7, 6]], 126, None,
     "a4ff2dce650d98c0f426fae1cba50987a498f336fb313af941b15458d244a260"),
    ("hmdna38-capped", [[7, 6], [6, 6], [7, 6]], 38, 20000,
     "290b2bde9526d12cf356b396e4da56ab778b5060972b53305ed2e742afe30764"),
)
SMOKE_WORKLOADS = (
    ("hmdna26-smoke", [[7, 6], [7, 6]], 126, 1500,
     "a4ff2dce650d98c0f426fae1cba50987a498f336fb313af941b15458d244a260"),
)
PATHS = ("native", "kernel", "scalar")
#: Search counters every path must reproduce exactly.
COUNTERS = (
    "nodes_expanded", "nodes_created", "nodes_pruned", "ub_updates",
    "max_open_size",
)


def _timed_solve(matrix, path, *, node_limit):
    solver = BranchAndBoundSolver(
        use_kernel=path != "scalar", node_limit=node_limit
    )
    # The kernel path is the solver with the native core hidden, as when
    # it cannot be built.
    hidden = mock.patch.object(native, "library_for", lambda n: None)
    with hidden if path == "kernel" else contextlib.nullcontext():
        t0 = time.perf_counter()
        result = solver.solve(matrix)
        return time.perf_counter() - t0, result


def _matrix(name, groups, seed, digest):
    matrix = hierarchical_matrix(groups, seed=seed, jitter=0.3)
    if matrix.digest() != digest:
        raise AssertionError(
            f"input drift on {name}: matrix digest {matrix.digest()} != "
            f"pinned {digest}; the numbers would not be comparable"
        )
    return matrix


def measure_progress_overhead(matrix, *, node_limit, repeats=3):
    """Cost of a live :class:`ProgressTracker` on a production solve.

    Alternates tracker-disabled and tracker-enabled solves (so thermal /
    cache drift hits both arms equally) and compares the per-arm minima
    -- the same min-of-interleaved-runs discipline the service metrics
    overhead bench uses.  The tracker runs at the production default
    interval with no recorder attached: what ``--progress`` or a serving
    process pays in the solver itself.
    """
    from repro.obs.progress import ProgressTracker, progress_context

    disabled, enabled = [], []
    heartbeats = 0
    for _ in range(repeats):
        seconds, _result = _timed_solve(matrix, "native", node_limit=node_limit)
        disabled.append(seconds)
        tracker = ProgressTracker()
        with progress_context(tracker):
            seconds, _result = _timed_solve(
                matrix, "native", node_limit=node_limit
            )
        enabled.append(seconds)
        heartbeats = tracker.reports
    base, tracked = min(disabled), min(enabled)
    return {
        "disabled_seconds": base,
        "enabled_seconds": tracked,
        "overhead_percent": (
            100.0 * (tracked - base) / base if base > 0 else 0.0
        ),
        "heartbeats": heartbeats,
        "repeats": repeats,
    }


def run(workloads) -> dict:
    backend = native.backend()
    paths = PATHS if backend == "native" else PATHS[1:]
    results = []
    for name, groups, seed, node_limit, digest in workloads:
        matrix = _matrix(name, groups, seed, digest)
        timed = {
            path: _timed_solve(matrix, path, node_limit=node_limit)
            for path in paths
        }
        # Bit-identical, not approximately equal: no path may change a
        # single search decision.
        ref = timed["scalar"][1]
        for path in paths[:-1]:
            got = timed[path][1]
            if got.cost != ref.cost:
                raise AssertionError(
                    f"cost mismatch on {name}: "
                    f"{path}={got.cost!r} scalar={ref.cost!r}"
                )
            for stat in COUNTERS:
                if getattr(got.stats, stat) != getattr(ref.stats, stat):
                    raise AssertionError(
                        f"search divergence on {name}: {stat} "
                        f"{path}={getattr(got.stats, stat)} "
                        f"scalar={getattr(ref.stats, stat)}"
                    )
        seconds = {path: timed[path][0] for path in paths}
        row = {
            "workload": name,
            "n": matrix.n,
            "input_digest": digest,
            "node_limit": node_limit,
            "optimal": ref.optimal,
            "cost": ref.cost,
            "nodes_expanded": ref.stats.nodes_expanded,
            "nodes_created": ref.stats.nodes_created,
            "prune_fraction": ref.stats.nodes_pruned / ref.stats.nodes_created,
            "native_seconds": seconds.get("native"),
            "kernel_seconds": seconds["kernel"],
            "scalar_seconds": seconds["scalar"],
            "speedup": seconds["scalar"] / seconds["kernel"],
            "native_speedup": (
                seconds["kernel"] / seconds["native"]
                if "native" in seconds else None
            ),
        }
        results.append(row)
        native_text = (
            f"native={seconds['native']:8.3f} s  " if "native" in seconds
            else ""
        )
        print(
            f"{name:16s} n={matrix.n:3d}  {native_text}"
            f"kernel={seconds['kernel']:8.3f} s  "
            f"scalar={seconds['scalar']:8.3f} s  "
            f"expanded={ref.stats.nodes_expanded}"
        )
    first_name, first_groups, first_seed, first_limit, first_digest = workloads[0]
    overhead = measure_progress_overhead(
        _matrix(first_name, first_groups, first_seed, first_digest),
        node_limit=first_limit,
    )
    overhead["workload"] = first_name
    # The budget is stated against the kernel's solve time (see
    # docs/observability.md); the native solve is ~100x shorter, so the
    # same absolute tick cost is a larger share of it.
    overhead["overhead_percent_of_kernel"] = 100.0 * (
        overhead["enabled_seconds"] - overhead["disabled_seconds"]
    ) / results[0]["kernel_seconds"]
    overhead["target_max_percent_of_kernel"] = 3.0
    print(
        f"progress overhead on {first_name}: "
        f"{overhead['overhead_percent']:+.2f}% of the solve, "
        f"{overhead['overhead_percent_of_kernel']:+.3f}% of kernel seconds "
        f"({overhead['heartbeats']} heartbeat(s); budget 3% of kernel)"
    )
    report = {
        "benchmark": "bnb-branching-paths",
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "backend": backend,
        "results": results,
        "progress_overhead": overhead,
    }
    by_name = {r["workload"]: r for r in results}
    if "hmdna26-full" in by_name:
        row = by_name["hmdna26-full"]
        acceptance = {
            "speedup_26": row["speedup"],
            "required_min_speedup": 5.0,
            "passed": row["speedup"] >= 5.0,
        }
        if row["native_speedup"] is not None:
            acceptance["native_speedup_26"] = row["native_speedup"]
            acceptance["required_min_native_speedup"] = 3.0
            acceptance["passed"] = (
                acceptance["passed"] and row["native_speedup"] >= 3.0
            )
        report["acceptance"] = acceptance
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="one node-capped workload only (CI smoke mode)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=DEFAULT_OUT,
        help=f"output JSON path (default: {DEFAULT_OUT})",
    )
    parser.add_argument(
        "--db",
        default=None,
        help="also upsert the results into this campaign run database "
             "(repro-mut campaign trend charts them across versions)",
    )
    args = parser.parse_args(argv)
    workloads = SMOKE_WORKLOADS if args.smoke else FULL_WORKLOADS
    report = run(workloads)
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")
    if args.db:
        from _benchdb import persist_bench_results

        name = persist_bench_results(
            args.db,
            bench="bench-bnb",
            rows=[
                {
                    "case_id": r["workload"],
                    "method": "bnb",
                    "n": r["n"],
                    "cost": r["cost"],
                    "options": {"node_limit": r["node_limit"]},
                    "wall_seconds": r["native_seconds"] or r["kernel_seconds"],
                    "solve_seconds": r["native_seconds"] or r["kernel_seconds"],
                    "nodes_expanded": r["nodes_expanded"],
                    "counters": {
                        "bench.kernel_seconds": r["kernel_seconds"],
                        "bench.scalar_seconds": r["scalar_seconds"],
                        "bench.speedup": r["speedup"],
                        "bench.prune_fraction": r["prune_fraction"],
                    },
                }
                for r in report["results"]
            ],
        )
        print(f"upserted {len(report['results'])} case(s) into {args.db} "
              f"as campaign {name!r}")
    acceptance = report.get("acceptance")
    if acceptance is not None and not acceptance["passed"]:
        print(
            "ACCEPTANCE FAILED: 26-species speedup below its gate "
            f"({acceptance})",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Command-line front-end: ``repro-mut``.

The project report ships the pipeline as "a user-friendly tool system";
this CLI is that surface.  Examples::

    # exact minimum ultrametric tree from a PHYLIP matrix
    repro-mut build matrix.phy --method bnb

    # the paper's pipeline, with the simulated 16-node cluster
    repro-mut build matrix.phy --method compact-parallel --workers 16

    # inspect the compact sets of a matrix
    repro-mut compact-sets matrix.phy

    # generate a synthetic HMDNA matrix and write it out
    repro-mut generate --species 26 --seed 7 --out hmdna.phy

    # compute a distance matrix from FASTA sequences
    repro-mut distances seqs.fasta --out matrix.phy

    # draw a tree, validate it, or compare two Newick trees
    repro-mut render matrix.phy --width 50
    repro-mut validate matrix.phy --method compact
    repro-mut compare tree_a.nwk tree_b.nwk

    # cross-engine verification and seeded fuzzing (docs/verification.md)
    repro-mut verify matrix.phy
    repro-mut fuzz --seed 0 --budget 200 --corpus corpus

    # run the serving layer (see docs/service.md)
    repro-mut serve --port 8533 --workers 4 --cache-dir .repro-cache

    # watch a running job's live incumbent/gap trajectory
    repro-mut watch 5f3a... --url http://127.0.0.1:8533
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.core.api import METHODS, construct_tree
from repro.obs import Recorder, render_profile
from repro.graph.compact_sets import find_compact_sets
from repro.graph.hierarchy import CompactSetHierarchy
from repro.matrix.distance_matrix import DistanceMatrix
from repro.matrix.generators import random_metric_matrix
from repro.matrix.io import read_csv_matrix, read_phylip, write_phylip
from repro.parallel.config import ClusterConfig
from repro.sequences.hmdna import generate_hmdna_dataset
from repro.tree.newick import to_newick

__all__ = ["main", "build_parser"]


def _load_matrix(path: str) -> DistanceMatrix:
    file = Path(path)
    if not file.exists():
        raise SystemExit(f"error: no such matrix file: {path}")
    if file.suffix.lower() == ".csv":
        return read_csv_matrix(file)
    return read_phylip(file)


class _VersionAction(argparse.Action):
    """``--version``: the engine fingerprint and the branching backend.

    Resolved only when the flag is given: finding the backend may load
    (or, once per source version, compile) the native search core.
    """

    def __init__(self, option_strings, dest=argparse.SUPPRESS, help=None):
        super().__init__(
            option_strings, dest=dest, default=argparse.SUPPRESS, nargs=0,
            help=help,
        )

    def __call__(self, parser, namespace, values, option_string=None):
        from repro.bnb.native import backend
        from repro.version import fingerprint_summary

        print(f"repro-mut {fingerprint_summary()}")
        print(f"branching: {backend()}")
        parser.exit()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-mut",
        description="Minimum ultrametric evolutionary trees via compact sets",
    )
    parser.add_argument(
        "--version", action=_VersionAction,
        help="print the engine fingerprint (version, cache-key version, "
             "trace schema, git sha) and the active branching backend "
             "(native, or numpy with the reason), then exit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build", help="construct a tree from a matrix file")
    build.add_argument("matrix", help="PHYLIP (.phy) or CSV matrix file")
    build.add_argument(
        "--method", choices=METHODS, default="compact",
        help="construction method (default: compact)",
    )
    build.add_argument(
        "--reduction", choices=("maximum", "minimum", "average"),
        default="maximum", help="group-matrix reduction for compact methods",
    )
    build.add_argument("--workers", type=int, default=16,
                       help="simulated cluster size for parallel methods")
    build.add_argument("--max-exact", type=int, default=None,
                       help="fall back to UPGMM above this subproblem size")
    build.add_argument("--newick-out", default=None,
                       help="write the tree in Newick format to this file")
    build.add_argument("--trace-out", default=None,
                       help="record observability events and write them as "
                            "JSON lines to this file")
    build.add_argument("--progress", action="store_true",
                       help="print live incumbent/bound/gap heartbeat lines "
                            "to stderr while the exact solvers search")
    build.add_argument("--progress-interval", type=float, default=0.25,
                       help="seconds between --progress heartbeats "
                            "(default: 0.25)")
    build.add_argument("--json", action="store_true",
                       help="emit machine-readable JSON instead of text")

    profile = sub.add_parser(
        "profile",
        help="print where the time went (from a fresh build, or from a "
             "recorded .jsonl trace file)",
    )
    profile.add_argument(
        "matrix",
        help="PHYLIP (.phy)/CSV matrix file, or a recorded JSON-lines "
             "trace (.jsonl) to profile without re-running",
    )
    profile.add_argument(
        "--from-trace", action="store_true",
        help="treat the input as a trace file regardless of its suffix",
    )
    profile.add_argument(
        "--method", choices=METHODS, default="compact",
        help="construction method (default: compact)",
    )
    profile.add_argument(
        "--reduction", choices=("maximum", "minimum", "average"),
        default="maximum", help="group-matrix reduction for compact methods",
    )
    profile.add_argument("--workers", type=int, default=16,
                         help="simulated cluster size for parallel methods")
    profile.add_argument("--max-exact", type=int, default=None,
                         help="fall back to UPGMM above this subproblem size")
    profile.add_argument("--min-percent", type=float, default=0.0,
                         help="hide spans below this percentage of total time")
    profile.add_argument("--trace-out", default=None,
                         help="also write the raw events as JSON lines")
    profile.add_argument("--trace-id", default=None,
                         help="only profile events belonging to this request "
                              "trace id (trace-file input only)")
    profile.add_argument("--chrome-trace", default=None, metavar="OUT",
                         help="also write the events in Chrome trace-event "
                              "format (load in chrome://tracing or Perfetto)")

    compact = sub.add_parser("compact-sets", help="list compact sets of a matrix")
    compact.add_argument("matrix", help="PHYLIP (.phy) or CSV matrix file")
    compact.add_argument("--json", action="store_true")

    generate = sub.add_parser("generate", help="generate a synthetic matrix")
    generate.add_argument("--kind", choices=("hmdna", "random"), default="hmdna")
    generate.add_argument("--species", type=int, default=26)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--out", required=True, help="output PHYLIP file")
    generate.add_argument("--fasta-out", default=None,
                          help="also write the generated sequences as FASTA "
                               "(hmdna kind only)")

    distances = sub.add_parser(
        "distances", help="compute a distance matrix from FASTA sequences"
    )
    distances.add_argument("fasta", help="input FASTA file")
    distances.add_argument("--out", required=True, help="output PHYLIP file")
    distances.add_argument(
        "--distance", choices=("p", "p-count", "jukes-cantor", "edit"),
        default="p-count", help="pairwise distance (default: p-count)",
    )

    ingest = sub.add_parser(
        "ingest",
        help="staged FASTA -> QC -> distance -> repair -> tree pipeline "
             "with a JSON manifest (exit 0 clean, 1 rejections, 2 usage "
             "error; see docs/ingestion.md)",
    )
    ingest.add_argument("fasta", help="input FASTA / multi-FASTA file")
    ingest.add_argument(
        "--distance",
        choices=("p", "p-count", "jc", "jukes-cantor", "edit"),
        default="p",
        help="pairwise distance for stage 2 (default: p; jc = "
             "jukes-cantor; edit works on unaligned input)",
    )
    ingest.add_argument("--method", choices=METHODS, default="compact",
                        help="tree construction method for stage 4 "
                             "(default: compact)")
    ingest.add_argument("--mode", choices=("strict", "lenient"),
                        default="strict",
                        help="strict fails a stage on any problem; lenient "
                             "drops bad records and continues while >= 3 "
                             "survive (default: strict)")
    ingest.add_argument("--manifest", default=None,
                        help="manifest JSON path; an existing manifest for "
                             "the same input + config resumes past its "
                             "completed stages")
    ingest.add_argument("--scale", type=float, default=1.0,
                        help="multiply every distance entry (default: 1.0)")
    ingest.add_argument("--min-length", type=int, default=1,
                        help="QC: minimum residues per record (default: 1)")
    ingest.add_argument("--max-length", type=int, default=None,
                        help="QC: maximum residues per record "
                             "(default: unbounded)")
    ingest.add_argument("--max-ambiguity", type=float, default=0.1,
                        help="QC: tolerated ambiguity-code fraction per "
                             "record (default: 0.1)")
    ingest.add_argument("--verify", action="store_true",
                        help="run the result oracles on the constructed tree")
    ingest.add_argument("--trace-out", default=None,
                        help="write the ingest.stage spans/counters as "
                             "schema-v1 JSON lines to this file")
    ingest.add_argument("--json", action="store_true",
                        help="print the full manifest to stdout")

    verify = sub.add_parser(
        "verify",
        help="differential + metamorphic verification of a matrix "
             "(exit 0 clean, 1 violations, 2 usage error)",
    )
    verify.add_argument("matrix", help="PHYLIP (.phy) or CSV matrix file")
    verify.add_argument(
        "--methods", default=None,
        help="comma-separated construction methods to cross-check "
             "(default: bnb,parallel-bnb,multiprocess,compact,upgmm)",
    )
    verify.add_argument(
        "--seed", type=int, default=0,
        help="seed for the metamorphic transformations (default: 0)",
    )
    verify.add_argument(
        "--skip-metamorphic", action="store_true",
        help="run only the oracles and the differential cross-checks",
    )
    verify.add_argument("--json", action="store_true",
                        help="emit the full machine-readable report")

    fuzz = sub.add_parser(
        "fuzz",
        help="seeded fuzzing over matrix families with corpus shrinking "
             "(exit 0 clean, 1 failures, 2 usage error)",
    )
    fuzz.add_argument("--seed", type=int, default=0,
                      help="master seed; the whole campaign is "
                           "deterministic given it (default: 0)")
    fuzz.add_argument("--budget", type=int, default=100,
                      help="number of verification cases (default: 100)")
    fuzz.add_argument(
        "--methods", default=None,
        help="comma-separated methods to cross-check per case "
             "(default: bnb,parallel-bnb,multiprocess,compact,upgmm)",
    )
    fuzz.add_argument("--corpus", default="corpus",
                      help="directory for shrunk failing matrices "
                           "(created on demand; default: corpus)")
    fuzz.add_argument("--min-species", type=int, default=4)
    fuzz.add_argument("--max-species", type=int, default=9,
                      help="largest matrix size to draw (default: 9; the "
                           "exact engines are exponential)")
    fuzz.add_argument("--max-failures", type=int, default=5,
                      help="stop the campaign after this many distinct "
                           "failures (default: 5)")
    fuzz.add_argument("--json", action="store_true",
                      help="emit the full machine-readable report")
    fuzz.add_argument("--db", default=None,
                      help="also archive failures into this campaign "
                           "database (same file campaign run uses)")
    fuzz.add_argument("--ingest", action="store_true",
                      help="fuzz the FASTA ingestion pipeline instead of "
                           "the matrix families: mutate seed FASTA files "
                           "(ambiguity injection, truncation, duplicate "
                           "ids, ...) through the lenient pipeline")
    fuzz.add_argument("--fasta-dir", default=None,
                      help="directory of seed .fasta files for --ingest "
                           "(default: synthetic HMDNA-style seeds)")

    campaign = sub.add_parser(
        "campaign",
        help="run suites into the persistent run database and compare "
             "campaigns across engine versions (see docs/campaigns.md)",
    )
    campaign_sub = campaign.add_subparsers(dest="campaign_command",
                                           required=True)

    def _db_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument("--db", default="campaigns.sqlite",
                       help="campaign database file "
                            "(default: campaigns.sqlite)")

    crun = campaign_sub.add_parser(
        "run",
        help="execute (or resume) a suite as a named campaign "
             "(exit 0 clean, 1 case failures, 3 interrupted)",
    )
    crun.add_argument("suite",
                      help="suite spec JSON file, or a builtin suite name "
                           "(smoke, pins, hmdna)")
    _db_arg(crun)
    crun.add_argument("--name", default=None,
                      help="campaign name (default: the suite's name); "
                           "re-using a name resumes that campaign")
    crun.add_argument("--methods", default=None,
                      help="comma-separated methods overriding the suite's")
    crun.add_argument("--backend", choices=("auto", "thread", "process"),
                      default="auto",
                      help="scheduler backend (auto picks by the first "
                           "method, like serve)")
    crun.add_argument("--start-method", default=None,
                      choices=("fork", "spawn", "forkserver"),
                      help="multiprocessing start method for "
                           "--backend process")
    crun.add_argument("--workers", type=int, default=4,
                      help="scheduler workers (default: 4)")
    crun.add_argument("--no-verify", action="store_true",
                      help="skip the per-case result oracles")
    crun.add_argument("--job-timeout", type=float, default=None,
                      help="per-case deadline in seconds")
    crun.add_argument("--throttle", type=float, default=0.0,
                      help="sleep this many seconds between submissions")
    crun.add_argument("--stop-after", type=int, default=None,
                      help="stop (as interrupted) after executing this many "
                           "cases -- deterministic resume testing")
    crun.add_argument("--trace-out", default=None,
                      help="also write the campaign's trace as JSON lines")
    crun.add_argument("--json", action="store_true")

    cstatus = campaign_sub.add_parser("status",
                                      help="per-state case counts of a "
                                           "campaign")
    cstatus.add_argument("name")
    _db_arg(cstatus)
    cstatus.add_argument("--json", action="store_true")

    clist = campaign_sub.add_parser("list",
                                    help="all campaigns in the database")
    _db_arg(clist)
    clist.add_argument("--json", action="store_true")

    cdiff = campaign_sub.add_parser(
        "diff",
        help="compare campaign B against baseline A "
             "(exit 0 ok, 1 regressions, 2 usage error)",
    )
    cdiff.add_argument("a", help="baseline campaign name")
    cdiff.add_argument("b", help="candidate campaign name")
    _db_arg(cdiff)
    cdiff.add_argument("--eps", type=float, default=1e-9,
                       help="exact-method cost tolerance (default: 1e-9)")
    cdiff.add_argument("--json", action="store_true")

    ctrend = campaign_sub.add_parser(
        "trend",
        help="perf-trend report across two or more campaigns "
             "(geomean wall/solve/nodes ratios vs the oldest)",
    )
    ctrend.add_argument("names", nargs="+",
                        help="campaign names, any order; the report sorts "
                             "them oldest-first and uses the oldest as the "
                             "ratio baseline")
    _db_arg(ctrend)
    ctrend.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON instead of the "
                             "markdown report")

    cexport = campaign_sub.add_parser(
        "export", help="dump one campaign and its cases as JSON"
    )
    cexport.add_argument("name")
    _db_arg(cexport)
    cexport.add_argument("--out", default=None,
                         help="write to this file instead of stdout")
    cexport.add_argument("--strip-volatile", action="store_true",
                         help="drop timing/host/cache fields -- the "
                              "checked-in seed-campaign format")

    render = sub.add_parser("render", help="draw a constructed tree as ASCII")
    render.add_argument("matrix", help="PHYLIP (.phy) or CSV matrix file")
    render.add_argument("--method", choices=METHODS, default="compact")
    render.add_argument("--width", type=int, default=60)

    validate = sub.add_parser(
        "validate", help="construct a tree and report its quality"
    )
    validate.add_argument("matrix", help="PHYLIP (.phy) or CSV matrix file")
    validate.add_argument("--method", choices=METHODS, default="compact")
    validate.add_argument(
        "--compare-optimal", action="store_true",
        help="also compute the exact optimum (small matrices only)",
    )

    inspect = sub.add_parser(
        "inspect", help="summarise a matrix and its compact structure"
    )
    inspect.add_argument("matrix", help="PHYLIP (.phy) or CSV matrix file")
    inspect.add_argument("--json", action="store_true")

    compare = sub.add_parser("compare", help="compare two Newick trees")
    compare.add_argument("tree_a", help="first Newick file")
    compare.add_argument("tree_b", help="second Newick file")
    compare.add_argument("--json", action="store_true")

    bootstrap = sub.add_parser(
        "bootstrap", help="clade support by bootstrap over FASTA sequences"
    )
    bootstrap.add_argument("fasta", help="aligned FASTA sequences")
    bootstrap.add_argument("--replicates", type=int, default=100)
    bootstrap.add_argument("--seed", type=int, default=0)
    bootstrap.add_argument(
        "--distance", choices=("p", "p-count", "jukes-cantor"),
        default="p-count",
    )
    bootstrap.add_argument("--json", action="store_true")

    serve = sub.add_parser(
        "serve", help="run the HTTP serving layer (see docs/service.md)"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8533,
                       help="listen port; 0 picks a free one (default: 8533)")
    serve.add_argument("--workers", type=int, default=4,
                       help="solver workers (default: 4)")
    serve.add_argument("--backend", choices=("auto", "thread", "process"),
                       default="auto",
                       help="execution backend: worker threads or supervised "
                            "worker processes; 'auto' picks processes for "
                            "the GIL-bound exact methods and threads "
                            "otherwise (default: auto)")
    serve.add_argument("--start-method", default=None,
                       choices=("fork", "spawn", "forkserver"),
                       help="force a multiprocessing start method for "
                            "--backend process (default: the platform's "
                            "cheapest)")
    serve.add_argument("--queue-size", type=int, default=64,
                       help="bounded job queue; beyond it POST /solve is "
                            "rejected with 429 queue_full (default: 64)")
    serve.add_argument("--cache-size", type=int, default=256,
                       help="in-memory result-cache entries (default: 256)")
    serve.add_argument("--cache-dir", default=None,
                       help="also persist cached results as JSON files here "
                            "(warm restarts)")
    serve.add_argument("--method", choices=METHODS, default="compact",
                       help="default construction method for requests that "
                            "do not name one (default: compact)")
    serve.add_argument("--job-timeout", type=float, default=None,
                       help="default per-job deadline in seconds")
    serve.add_argument("--trace-out", default=None,
                       help="stream the service trace (service.job spans, "
                            "cache.hit/miss counters) as JSON lines to this "
                            "file while serving")
    serve.add_argument("--trace-max-mb", type=float, default=None,
                       help="rotate the trace file past this size (previous "
                            "generation kept as <file>.1)")
    serve.add_argument("--trace-ring", type=int, default=4096,
                       help="most-recent trace events kept in memory for "
                            "queries (default: 4096)")
    serve.add_argument("--verbose", action="store_true",
                       help="log every HTTP request to stderr")

    watch = sub.add_parser(
        "watch",
        help="poll a live service for a job's solver progress and render "
             "incumbent/gap/nodes-per-second lines until it settles",
    )
    watch.add_argument("job_id", help="job id returned by POST /solve")
    watch.add_argument("--url", default="http://127.0.0.1:8533",
                       help="service base URL "
                            "(default: http://127.0.0.1:8533)")
    watch.add_argument("--interval", type=float, default=0.5,
                       help="poll interval in seconds (default: 0.5)")
    watch.add_argument("--timeout", type=float, default=None,
                       help="give up after this many seconds (exit 3)")
    watch.add_argument("--json", action="store_true",
                       help="emit each new progress record as a JSON line")
    return parser


def _engine_options(args: argparse.Namespace) -> dict:
    options = {}
    if args.method.startswith("compact"):
        options["reduction"] = args.reduction
        if args.max_exact is not None:
            options["max_exact_size"] = args.max_exact
    return options


def _cmd_build(args: argparse.Namespace) -> int:
    from repro.obs import ProgressTracker, format_progress_line, progress_context

    matrix = _load_matrix(args.matrix)
    options = _engine_options(args)
    cluster = ClusterConfig(n_workers=args.workers)
    recorder = Recorder() if args.trace_out else None
    tracker = None
    if args.progress:
        tracker = ProgressTracker(
            interval_seconds=args.progress_interval,
            recorder=recorder,
            sink=lambda snap: print(
                format_progress_line(snap), file=sys.stderr
            ),
        )
    with progress_context(tracker):
        result = construct_tree(
            matrix, args.method, cluster=cluster, recorder=recorder, **options
        )
    elapsed = getattr(result.details, "elapsed_seconds", None)
    if elapsed is None:  # BBUResult keeps its timing on .stats
        elapsed = getattr(
            getattr(result.details, "stats", None), "elapsed_seconds", None
        )

    if args.method == "nj":
        newick = result.tree.newick()
    else:
        newick = to_newick(result.tree)

    if args.json:
        payload = {
            "method": result.method,
            "n_species": matrix.n,
            "cost": result.cost,
            "newick": newick,
        }
        if elapsed is not None:
            payload["elapsed_seconds"] = elapsed
        print(json.dumps(payload, indent=2))
    else:
        print(f"method : {result.method}")
        print(f"species: {matrix.n}")
        print(f"cost   : {result.cost:.6f}")
        if elapsed is not None:
            print(f"time   : {elapsed:.6f}s")
        print(f"tree   : {newick}")
    if args.newick_out:
        Path(args.newick_out).write_text(newick + "\n")
    if args.trace_out:
        recorder.write_jsonl(args.trace_out)
        print(f"wrote {len(recorder.events)} trace event(s) to {args.trace_out}",
              file=sys.stderr)
    return 0


def _write_chrome_trace(events, destination: str) -> None:
    """Write ``events`` in Chrome trace-event JSON to ``destination``."""
    from repro.obs import chrome_trace_events

    trace = chrome_trace_events(events)
    Path(destination).write_text(json.dumps(trace) + "\n")
    print(
        f"wrote {len(trace['traceEvents'])} chrome trace event(s) to "
        f"{destination} (open in chrome://tracing or ui.perfetto.dev)",
        file=sys.stderr,
    )


def _cmd_profile(args: argparse.Namespace) -> int:
    path = Path(args.matrix)
    if args.from_trace or path.suffix.lower() in (".jsonl", ".ndjson"):
        return _profile_trace_file(
            path,
            min_percent=args.min_percent,
            trace_id=args.trace_id,
            chrome_trace=args.chrome_trace,
        )
    if args.trace_id:
        raise SystemExit(
            "error: --trace-id filters a recorded trace; pass a .jsonl "
            "file (or --from-trace)"
        )
    matrix = _load_matrix(args.matrix)
    options = _engine_options(args)
    cluster = ClusterConfig(n_workers=args.workers)
    recorder = Recorder()
    result = construct_tree(
        matrix, args.method, cluster=cluster, recorder=recorder, **options
    )
    print(f"method : {result.method}")
    print(f"species: {matrix.n}")
    print(f"cost   : {result.cost:.6f}")
    print()
    print(render_profile(recorder.events, min_fraction=args.min_percent / 100.0))
    if args.trace_out:
        recorder.write_jsonl(args.trace_out)
        print(f"wrote {len(recorder.events)} trace event(s) to {args.trace_out}",
              file=sys.stderr)
    if args.chrome_trace:
        _write_chrome_trace(recorder.events, args.chrome_trace)
    return 0


def _profile_trace_file(
    path: Path,
    *,
    min_percent: float = 0.0,
    trace_id: Optional[str] = None,
    chrome_trace: Optional[str] = None,
) -> int:
    """Profile a previously recorded JSON-lines trace without re-running."""
    from repro.obs import SpanEvent, filter_by_trace_id, read_jsonl

    if not path.exists():
        raise SystemExit(f"error: no such trace file: {path}")
    try:
        events = read_jsonl(path)
    except ValueError as exc:
        raise SystemExit(f"error: unreadable trace file {path}: {exc}")
    if events.warning:
        print(f"warning: {events.warning}", file=sys.stderr)
    shown = list(events)
    if trace_id:
        shown = filter_by_trace_id(shown, trace_id)
        if not shown:
            print(f"no events with trace_id {trace_id!r} in {path}")
            return 0
    if chrome_trace:
        _write_chrome_trace(shown, chrome_trace)
    if not any(isinstance(e, SpanEvent) for e in shown):
        print(f"no spans recorded in {path}")
        return 0
    print(f"trace  : {path}")
    if trace_id:
        print(f"trace_id: {trace_id}")
    print()
    print(render_profile(shown, min_fraction=min_percent / 100.0))
    return 0


def _cmd_compact_sets(args: argparse.Namespace) -> int:
    matrix = _load_matrix(args.matrix)
    sets = find_compact_sets(matrix)
    hierarchy = CompactSetHierarchy.from_matrix(matrix)
    named = [sorted(matrix.labels[i] for i in members) for members in sets]
    if args.json:
        print(json.dumps({
            "n_species": matrix.n,
            "compact_sets": named,
            "max_subproblem_size": hierarchy.max_subproblem_size(),
        }, indent=2))
    else:
        print(f"{len(sets)} non-trivial compact set(s) in {matrix.n} species")
        for members in named:
            print("  {" + ", ".join(members) + "}")
        print(f"largest reduced matrix after decomposition: "
              f"{hierarchy.max_subproblem_size()}")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.kind == "hmdna":
        dataset = generate_hmdna_dataset(args.species, seed=args.seed)
        matrix = dataset.matrix
        if args.fasta_out:
            from repro.sequences.fasta import write_fasta

            write_fasta(dataset.sequences, args.fasta_out)
            print(f"wrote sequences to {args.fasta_out}")
    else:
        if args.fasta_out:
            raise SystemExit("error: --fasta-out requires --kind hmdna")
        matrix = random_metric_matrix(args.species, seed=args.seed)
    write_phylip(matrix, args.out)
    print(f"wrote {args.kind} matrix ({matrix.n} species) to {args.out}")
    return 0


def _cmd_distances(args: argparse.Namespace) -> int:
    from repro.sequences.distance import distance_matrix_from_sequences
    from repro.sequences.fasta import read_fasta

    if not Path(args.fasta).exists():
        raise SystemExit(f"error: no such FASTA file: {args.fasta}")
    sequences = read_fasta(args.fasta)
    matrix = distance_matrix_from_sequences(sequences, method=args.distance)
    write_phylip(matrix, args.out)
    print(f"wrote {matrix.n}-species {args.distance} matrix to {args.out}")
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    from repro.tree.render import render_ascii

    matrix = _load_matrix(args.matrix)
    if args.method == "nj":
        raise SystemExit("error: render supports ultrametric methods only")
    result = construct_tree(matrix, args.method)
    print(f"method: {args.method}   cost: {result.cost:.4f}")
    print(render_ascii(result.tree, width=args.width))
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.core.validation import validate_tree

    matrix = _load_matrix(args.matrix)
    if args.method == "nj":
        raise SystemExit("error: validate supports ultrametric methods only")
    result = construct_tree(matrix, args.method)
    report = validate_tree(
        result.tree, matrix, compare_optimal=args.compare_optimal
    )
    print(f"method: {args.method}")
    print(report.summary())
    return 0 if report.ok else 1


def _usage_error(message: str) -> SystemExit:
    """Exit code 2 (usage), matching argparse's own convention."""
    print(f"error: {message}", file=sys.stderr)
    return SystemExit(2)


def _load_matrix_or_usage_error(path: str) -> DistanceMatrix:
    """Like :func:`_load_matrix` but usage problems exit 2, not 1.

    ``verify``/``fuzz`` reserve exit 1 for *verification failures* so CI
    can tell "the engines are broken" from "the command line is broken".
    """
    file = Path(path)
    if not file.exists():
        raise _usage_error(f"no such matrix file: {path}")
    try:
        if file.suffix.lower() == ".csv":
            return read_csv_matrix(file)
        return read_phylip(file)
    except (ValueError, OSError) as exc:
        raise _usage_error(f"unreadable matrix file {path}: {exc}")


def _parse_method_list(spec: Optional[str]) -> tuple:
    from repro.verify.differential import DEFAULT_DIFFERENTIAL_METHODS

    if spec is None:
        return tuple(DEFAULT_DIFFERENTIAL_METHODS)
    methods = tuple(m.strip() for m in spec.split(",") if m.strip())
    if not methods:
        raise _usage_error("--methods must name at least one method")
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        raise _usage_error(
            f"unknown methods {unknown}; choose from {METHODS}"
        )
    return methods


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.verify.fuzz import verify_matrix

    methods = _parse_method_list(args.methods)
    matrix = _load_matrix_or_usage_error(args.matrix)
    violations = verify_matrix(
        matrix,
        methods,
        seed=args.seed,
        metamorphic=not args.skip_metamorphic,
    )
    if args.json:
        print(json.dumps({
            "matrix": args.matrix,
            "n_species": matrix.n,
            "methods": list(methods),
            "seed": args.seed,
            "ok": not violations,
            "violations": [v.to_json() for v in violations],
        }, indent=2))
    else:
        print(f"matrix : {args.matrix} ({matrix.n} species)")
        print(f"methods: {', '.join(methods)}")
        if not violations:
            print("verdict: OK -- all oracles, differential and "
                  "metamorphic checks passed")
    if violations:
        for violation in violations:
            print(f"VIOLATION {violation}", file=sys.stderr)
        print(
            f"repro-mut verify: {len(violations)} violation(s); reproduce "
            f"with: repro-mut verify {args.matrix} "
            f"--methods {','.join(methods)} --seed {args.seed}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    """Run the staged ingestion pipeline over one FASTA file.

    Exit codes: 0 clean run (tree built, nothing rejected), 1 any
    rejection or stage failure (including a lenient run that dropped
    records), 2 usage error.
    """
    from pathlib import Path

    from repro.ingest import QCConfig, run_pipeline

    source = Path(args.fasta)
    if not source.exists():
        raise _usage_error(f"no such FASTA file: {args.fasta}")
    if args.min_length < 1:
        raise _usage_error(
            f"--min-length must be >= 1, got {args.min_length}"
        )
    if not 0.0 <= args.max_ambiguity <= 1.0:
        raise _usage_error(
            f"--max-ambiguity must be in [0, 1], got {args.max_ambiguity}"
        )
    qc = QCConfig(
        min_length=args.min_length,
        max_length=args.max_length,
        max_ambiguity=args.max_ambiguity,
    )
    recorder = Recorder() if args.trace_out else None
    outcome = run_pipeline(
        source,
        distance=args.distance,
        tree_method=args.method,
        mode=args.mode,
        qc=qc,
        scale=args.scale,
        verify=args.verify,
        manifest_path=args.manifest,
        recorder=recorder,
    )
    if recorder is not None:
        recorder.write_jsonl(args.trace_out)
    manifest = outcome.manifest
    if args.json:
        print(json.dumps(manifest.to_json(), indent=2, sort_keys=True))
    else:
        print(f"input  : {args.fasta} "
              f"(sha256 {str(manifest.input.get('sha256', ''))[:12]}...)")
        for stage in manifest.stages:
            marker = "ok" if stage.status == "completed" else "FAILED"
            counters = ", ".join(
                f"{k}={v}" for k, v in sorted(stage.counters.items())
            )
            print(f"stage {stage.index} {stage.name:<8}: {marker}"
                  + (f" ({counters})" if counters else ""))
        if manifest.resumed_from:
            print(f"resumed: {manifest.resumed_from} stage(s) skipped")
        if manifest.result and "cost" in manifest.result:
            print(f"tree   : cost {manifest.result['cost']:.6g} "
                  f"[{manifest.result['method']}] "
                  f"verified={manifest.result.get('verified_ok')}")
            print(f"newick : {manifest.result['newick']}")
        print(f"status : {manifest.status}")
    for rejection in manifest.rejections:
        print(
            f"REJECTED stage={rejection.stage}({rejection.stage_name}) "
            f"code={rejection.code} record={rejection.record or '-'}: "
            f"{rejection.detail}",
            file=sys.stderr,
        )
    if args.manifest and not args.json:
        print(f"manifest: {args.manifest}", file=sys.stderr)
    return outcome.exit_code


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.verify.fuzz import run_fuzz

    if args.ingest:
        return _cmd_fuzz_ingest(args)
    methods = _parse_method_list(args.methods)
    if args.budget < 1:
        raise _usage_error(f"--budget must be >= 1, got {args.budget}")
    if not 3 <= args.min_species <= args.max_species:
        raise _usage_error(
            "need 3 <= --min-species <= --max-species, got "
            f"{args.min_species}..{args.max_species}"
        )

    def progress(iteration: int, family: str) -> None:
        if iteration and iteration % 50 == 0:
            print(f"... case {iteration}/{args.budget}", file=sys.stderr)

    report = run_fuzz(
        seed=args.seed,
        budget=args.budget,
        methods=methods,
        min_species=args.min_species,
        max_species=args.max_species,
        corpus_dir=args.corpus,
        max_failures=args.max_failures,
        progress=progress,
    )
    if args.db is not None and report.failures:
        from repro.campaign.db import CampaignDB
        from repro.version import engine_fingerprint

        with CampaignDB(args.db) as db:
            for failure in report.failures:
                db.archive_fuzz_failure(
                    master_seed=report.seed,
                    iteration=failure.iteration,
                    matrix_digest=failure.matrix.digest(),
                    family=failure.family,
                    n_species=failure.n_species,
                    shrunk_n_species=failure.shrunk_n_species,
                    corpus_path=failure.corpus_path,
                    meta_path=failure.meta_path,
                    repro_command=failure.repro_command,
                    violations=[v.to_json() for v in failure.violations],
                    fingerprint=engine_fingerprint(),
                )
        print(
            f"archived {len(report.failures)} failure(s) into {args.db}",
            file=sys.stderr,
        )
    if args.json:
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(f"seed    : {report.seed}")
        print(f"cases   : {report.cases_run}/{report.budget}")
        print("families: " + ", ".join(
            f"{name}={count}" for name, count in sorted(report.families.items())
        ))
        print(f"verdict : {'OK' if report.ok else 'FAILURES FOUND'}")
    if not report.ok:
        for failure in report.failures:
            print(
                f"FUZZ FAILURE seed={report.seed} case={failure.iteration} "
                f"family={failure.family} corpus={failure.corpus_path}",
                file=sys.stderr,
            )
            for violation in failure.violations[:3]:
                print(f"  {violation}", file=sys.stderr)
            if failure.repro_command:
                print(f"  reproduce: {failure.repro_command}", file=sys.stderr)
        print(
            f"repro-mut fuzz: {len(report.failures)} failing case(s); "
            f"replay the campaign with: repro-mut fuzz --seed {report.seed} "
            f"--budget {report.budget} --methods {','.join(methods)}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_fuzz_ingest(args: argparse.Namespace) -> int:
    """The ``fuzz --ingest`` family: mutated FASTA through the pipeline."""
    from pathlib import Path

    from repro.verify.fuzz import run_ingest_fuzz

    if args.budget < 1:
        raise _usage_error(f"--budget must be >= 1, got {args.budget}")
    seed_files = None
    if args.fasta_dir is not None:
        seed_files = sorted(Path(args.fasta_dir).glob("*.fasta"))
        if not seed_files:
            raise _usage_error(
                f"no .fasta files in --fasta-dir {args.fasta_dir}"
            )

    def progress(iteration: int, mutation: str) -> None:
        if iteration and iteration % 50 == 0:
            print(f"... case {iteration}/{args.budget}", file=sys.stderr)

    report = run_ingest_fuzz(
        seed=args.seed,
        budget=args.budget,
        seed_files=seed_files,
        corpus_dir=args.corpus,
        max_failures=args.max_failures,
        progress=progress,
    )
    if args.json:
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(f"seed     : {report.seed}")
        print(f"cases    : {report.cases_run}/{report.budget}")
        print("mutations: " + ", ".join(
            f"{name}={count}"
            for name, count in sorted(report.mutations.items())
        ))
        print(f"verdict  : {'OK' if report.ok else 'FAILURES FOUND'}")
    if not report.ok:
        for failure in report.failures:
            print(
                f"INGEST FUZZ FAILURE seed={report.seed} "
                f"case={failure.iteration} mutation={failure.mutation} "
                f"corpus={failure.corpus_path}",
                file=sys.stderr,
            )
            print(f"  {failure.detail}", file=sys.stderr)
            if failure.repro_command:
                print(f"  reproduce: {failure.repro_command}",
                      file=sys.stderr)
        print(
            f"repro-mut fuzz --ingest: {len(report.failures)} failing "
            f"case(s); replay with: repro-mut fuzz --ingest "
            f"--seed {report.seed} --budget {report.budget}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    from dataclasses import asdict

    from repro.matrix.stats import matrix_summary

    matrix = _load_matrix(args.matrix)
    summary = matrix_summary(matrix)
    if args.json:
        print(json.dumps(asdict(summary), indent=2))
    else:
        print(summary.describe())
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.tree.compare import (
        normalized_robinson_foulds,
        robinson_foulds,
        shared_clades,
    )
    from repro.tree.newick import parse_newick

    trees = []
    for path in (args.tree_a, args.tree_b):
        if not Path(path).exists():
            raise SystemExit(f"error: no such tree file: {path}")
        trees.append(parse_newick(Path(path).read_text()))
    a, b = trees
    rf = robinson_foulds(a, b)
    nrf = normalized_robinson_foulds(a, b)
    shared = len(shared_clades(a, b))
    if args.json:
        print(json.dumps({
            "robinson_foulds": rf,
            "normalized": nrf,
            "shared_clades": shared,
        }, indent=2))
    else:
        print(f"Robinson-Foulds distance : {rf}")
        print(f"normalized (0 = same)    : {nrf:.4f}")
        print(f"shared clades            : {shared}")
    return 0


def _cmd_bootstrap(args: argparse.Namespace) -> int:
    from repro.core.pipeline import CompactSetTreeBuilder
    from repro.sequences.bootstrap import bootstrap_support
    from repro.sequences.distance import distance_matrix_from_sequences
    from repro.sequences.fasta import read_fasta

    if not Path(args.fasta).exists():
        raise SystemExit(f"error: no such FASTA file: {args.fasta}")
    sequences = read_fasta(args.fasta)
    matrix = distance_matrix_from_sequences(sequences, method=args.distance)
    tree = CompactSetTreeBuilder(max_exact_size=12).build(matrix).tree
    support = bootstrap_support(
        tree,
        sequences,
        n_replicates=args.replicates,
        seed=args.seed,
        method=args.distance,
    )
    ranked = sorted(support.items(), key=lambda item: -item[1])
    if args.json:
        print(json.dumps({
            "replicates": args.replicates,
            "newick": to_newick(tree),
            "support": [
                {"clade": sorted(clade), "support": fraction}
                for clade, fraction in ranked
            ],
        }, indent=2))
    else:
        print(f"tree: {to_newick(tree, precision=3)}")
        print(f"clade support over {args.replicates} bootstrap replicates:")
        for clade, fraction in ranked:
            members = ", ".join(sorted(clade))
            print(f"  {fraction:5.0%}  {{{members}}}")
    return 0


def _campaign_run(args: argparse.Namespace) -> int:
    import signal
    import threading

    from repro.campaign import (
        CampaignMismatch,
        SuiteError,
        load_suite,
        run_campaign,
    )
    from repro.campaign.db import CampaignDB
    from repro.service.scheduler import select_backend

    try:
        suite = load_suite(args.suite)
    except SuiteError as exc:
        raise _usage_error(str(exc))
    if args.workers < 1:
        raise _usage_error(f"--workers must be >= 1, got {args.workers}")
    methods = None
    if args.methods:
        methods = list(_parse_method_list(args.methods))
    backend = args.backend
    if backend == "auto":
        lead = (methods or suite.methods)[0]
        backend = select_backend(lead)

    stop = threading.Event()
    previous = {}

    def _arm_stop(signum, frame):  # noqa: ARG001 - signal signature
        print("repro-mut campaign: stop requested, draining in-flight "
              "cases ...", file=sys.stderr)
        stop.set()

    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[signum] = signal.signal(signum, _arm_stop)
        except ValueError:  # pragma: no cover - non-main thread
            pass

    def progress(index: int, total: int, case, state: str) -> None:
        if not args.json:
            print(f"  [{index}/{total}] {case.id}: {state}",
                  file=sys.stderr)

    rec = Recorder()
    try:
        with CampaignDB(args.db) as db:
            try:
                result = run_campaign(
                    db,
                    suite,
                    name=args.name,
                    methods=methods,
                    backend=backend,
                    workers=args.workers,
                    start_method=args.start_method,
                    verify=not args.no_verify,
                    job_timeout=args.job_timeout,
                    recorder=rec,
                    stop=stop,
                    stop_after=args.stop_after,
                    throttle_seconds=args.throttle,
                    progress=progress,
                )
            except CampaignMismatch as exc:
                raise _usage_error(str(exc))
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    if args.trace_out:
        rec.write_jsonl(args.trace_out)
    if args.json:
        print(json.dumps(result.to_json(), indent=2))
    else:
        counts = ", ".join(
            f"{state}={count}"
            for state, count in sorted(result.state_counts.items())
        ) or "none"
        print(f"campaign : {result.name} (id {result.campaign_id}, "
              f"backend {backend})")
        print(f"cases    : {result.total_cases} total, "
              f"{result.executed} executed, {result.skipped} skipped")
        print(f"states   : {counts}")
        print(f"elapsed  : {result.elapsed_seconds:.2f}s")
        print(f"status   : {result.status}")
    if result.interrupted:
        return 3
    return 0 if result.ok else 1


def _campaign_status(args: argparse.Namespace) -> int:
    from repro.campaign.db import CampaignDB

    with CampaignDB(args.db) as db:
        campaign = db.get_campaign(args.name)
        if campaign is None:
            raise _usage_error(f"no campaign named {args.name!r} in "
                               f"{args.db}")
        counts = db.state_counts(int(campaign["id"]))
    fingerprint = json.loads(campaign["fingerprint"] or "{}")
    if args.json:
        print(json.dumps({
            "campaign": campaign, "state_counts": counts,
        }, indent=2, default=str))
    else:
        print(f"campaign : {campaign['name']} (id {campaign['id']})")
        print(f"suite    : {campaign['suite']} (seed {campaign['seed']})")
        print(f"status   : {campaign['status']}")
        print(f"backend  : {campaign['backend']} on "
              f"{campaign['hostname']}")
        print(f"engine   : v{fingerprint.get('version', '?')} "
              f"(git {fingerprint.get('git_sha', 'unknown')})")
        print("states   : " + (", ".join(
            f"{state}={count}" for state, count in sorted(counts.items())
        ) or "no cases recorded"))
    return 0


def _campaign_list(args: argparse.Namespace) -> int:
    from repro.campaign.db import CampaignDB

    with CampaignDB(args.db) as db:
        campaigns = db.list_campaigns()
        rows = [
            (campaign, db.state_counts(int(campaign["id"])))
            for campaign in campaigns
        ]
    if args.json:
        print(json.dumps([
            {"campaign": campaign, "state_counts": counts}
            for campaign, counts in rows
        ], indent=2, default=str))
        return 0
    if not rows:
        print(f"no campaigns in {args.db}")
        return 0
    for campaign, counts in rows:
        total = sum(counts.values())
        done = counts.get("done", 0)
        print(f"{campaign['name']}: {campaign['status']}, "
              f"{done}/{total} done, suite {campaign['suite']}, "
              f"backend {campaign['backend']}")
    return 0


def _campaign_diff(args: argparse.Namespace) -> int:
    from repro.campaign import diff_campaigns
    from repro.campaign.db import CampaignDB

    with CampaignDB(args.db) as db:
        try:
            diff = diff_campaigns(db, args.a, args.b, cost_eps=args.eps)
        except KeyError as exc:
            raise _usage_error(str(exc.args[0]))
    if args.json:
        print(json.dumps(diff.to_json(), indent=2))
    else:
        print(diff.render())
    return 0 if diff.ok else 1


def _campaign_export(args: argparse.Namespace) -> int:
    from repro.campaign.db import CampaignDB, strip_volatile

    with CampaignDB(args.db) as db:
        try:
            export = db.export_campaign(args.name)
        except KeyError as exc:
            raise _usage_error(str(exc.args[0]))
    if args.strip_volatile:
        export = strip_volatile(export)
    text = json.dumps(export, indent=2, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        print(text, end="")
    return 0


def _campaign_trend(args: argparse.Namespace) -> int:
    from repro.campaign import trend_campaigns
    from repro.campaign.db import CampaignDB

    with CampaignDB(args.db) as db:
        try:
            trend = trend_campaigns(db, args.names)
        except KeyError as exc:
            raise _usage_error(str(exc.args[0]))
    if args.json:
        print(json.dumps(trend.to_json(), indent=2))
    else:
        print(trend.render(), end="")
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    return {
        "run": _campaign_run,
        "status": _campaign_status,
        "list": _campaign_list,
        "diff": _campaign_diff,
        "trend": _campaign_trend,
        "export": _campaign_export,
    }[args.campaign_command](args)


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.server import serve

    return serve(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_size=args.queue_size,
        cache_capacity=args.cache_size,
        cache_dir=args.cache_dir,
        default_method=args.method,
        default_timeout=args.job_timeout,
        backend=None if args.backend == "auto" else args.backend,
        start_method=args.start_method,
        trace_out=args.trace_out,
        trace_max_mb=args.trace_max_mb,
        trace_ring=args.trace_ring,
        verbose=args.verbose,
    )


def _cmd_watch(args: argparse.Namespace) -> int:
    """Poll ``GET /jobs/<id>/progress`` until the job settles.

    Exit codes: 0 job done, 1 job failed/cancelled/timed out (or the
    service reported an error), 3 the ``--timeout`` budget ran out with
    the job still live.
    """
    import time

    from repro.obs import format_progress_line
    from repro.service.client import ServiceClient
    from repro.service.errors import JobNotFound, ServiceError
    from repro.service.jobs import JobState

    if args.interval <= 0:
        raise _usage_error(f"--interval must be > 0, got {args.interval}")
    client = ServiceClient(args.url, timeout=max(5.0, args.interval * 4))
    deadline = (
        None if args.timeout is None
        else time.monotonic() + args.timeout
    )
    last_time = None
    state = None
    while True:
        try:
            record = client.job_progress(args.job_id)
        except JobNotFound:
            print(f"error: no job {args.job_id!r} at {args.url}",
                  file=sys.stderr)
            return 1
        except (ServiceError, OSError) as exc:
            print(f"error: {args.url}: {exc}", file=sys.stderr)
            return 1
        state = record.get("state")
        snapshot = record.get("progress")
        if snapshot and snapshot.get("time") != last_time:
            last_time = snapshot.get("time")
            if args.json:
                print(json.dumps(record, sort_keys=True), flush=True)
            else:
                print(f"{state:>8} {format_progress_line(snapshot)}",
                      flush=True)
        if state in JobState.TERMINAL:
            break
        if deadline is not None and time.monotonic() >= deadline:
            print(f"repro-mut watch: job {args.job_id} still {state} "
                  f"after {args.timeout:.1f}s", file=sys.stderr)
            return 3
        time.sleep(args.interval)
    if not args.json:
        print(f"job {args.job_id}: {state}")
    return 0 if state == JobState.DONE else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "build": _cmd_build,
        "profile": _cmd_profile,
        "compact-sets": _cmd_compact_sets,
        "generate": _cmd_generate,
        "distances": _cmd_distances,
        "ingest": _cmd_ingest,
        "render": _cmd_render,
        "validate": _cmd_validate,
        "verify": _cmd_verify,
        "fuzz": _cmd_fuzz,
        "inspect": _cmd_inspect,
        "compare": _cmd_compare,
        "bootstrap": _cmd_bootstrap,
        "campaign": _cmd_campaign,
        "serve": _cmd_serve,
        "watch": _cmd_watch,
    }
    handler = handlers.get(args.command)
    if handler is None:  # pragma: no cover
        raise SystemExit(2)
    return handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

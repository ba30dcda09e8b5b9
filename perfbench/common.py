"""Shared plumbing: locating the source tree, statistics, provenance.

The benchmark runs the program from the checkout it sits in: ``src/`` is
put first on ``sys.path`` (and on ``PYTHONPATH`` for the server
subprocess), so an installed copy of the package is never measured by
mistake.  Everything the benchmark writes goes under ``.perfbench/`` at
the checkout root.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SPEC_PATH = ROOT / "BENCHMARK.json"


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no source tree, no spec)."""


def use_source_tree() -> None:
    """Import ``repro`` from this checkout's ``src/`` or fail loudly."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SetupError(f"no source tree at {SRC}: nothing to benchmark")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SetupError(
            f"imported repro from {repro.__file__}, not from {SRC}"
        )


def source_env() -> Dict[str, str]:
    """Environment for a subprocess that must import this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def load_spec() -> dict:
    if not SPEC_PATH.is_file():
        raise SetupError(f"missing {SPEC_PATH}")
    return json.loads(SPEC_PATH.read_text())


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0..100)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def summary(values: Sequence[float]) -> dict:
    """Median, p90 and the sample count, for the report file."""
    return {
        "n": len(values),
        "p50": median(values),
        "p90": percentile(values, 90),
        # A percentile is trustworthy when at least ten samples lie
        # beyond it.
        "p90_supported": len(values) >= 100,
    }


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_rss_mb() -> float:
    """Largest peak RSS among the child processes reaped so far."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of a live process, from ``/proc``."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise SetupError(f"no VmHWM for pid {pid}")


# ----------------------------------------------------------------------
# provenance and the run outcome
# ----------------------------------------------------------------------
def git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def provenance(workload: str, seed: int, size: str) -> dict:
    import numpy

    from repro.version import engine_fingerprint

    return {
        "workload": workload,
        "seed": seed,
        "size": size,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "engine": engine_fingerprint(),
        "git_commit": git_commit(),
    }


@dataclass
class Outcome:
    """What one workload run produced: counts, failures, metrics, report."""

    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    #: Per-layer metrics that do not apply to this workload, with why.
    not_applicable: Dict[str, str] = field(default_factory=dict)
    report: Dict[str, object] = field(default_factory=dict)

    def operation(self, problems: List[str]) -> bool:
        """Count one attempted operation; any problem makes it failed."""
        self.attempted += 1
        return not self._record(problems)

    def fail(self, message: str) -> None:
        """A failed check on operations already counted."""
        self._record([message])

    def _record(self, problems: List[str]) -> bool:
        if problems:
            self.failed += 1
            self.failures.extend(problems)
        return bool(problems)


def write_report(name: str, payload: dict) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / name
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def write_jsonl(name: str, records: List[dict]) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / name
    with path.open("w") as sink:
        for record in records:
            sink.write(json.dumps(record, sort_keys=True) + "\n")
    return path

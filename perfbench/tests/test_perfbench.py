"""The benchmark's own tests: ``python3 -m pytest perfbench/tests -q``.

Each runs the real command on ``--size tiny`` inputs for a second or two
(the serve-mix runs start real servers, so the module takes about a
minute).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench.common import use_source_tree  # noqa: E402

use_source_tree()

from perfbench import inputs  # noqa: E402
from perfbench.run import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert len(SPEC["end_to_end"]) <= 16
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = run("--workload", workload, "--seed", "5", "--seconds", "1",
               "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = result_of(proc)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    section = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in section
    }
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        if trace == "0":
            assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", ["exact-seq", "serve-mix"])
def test_wrong_cost_fails_the_run(workload):
    proc = run("--workload", workload, "--seed", "5", "--seconds", "1",
               "--size", "tiny", "--cost-bias", "1.001")
    assert proc.returncode == 1
    result = result_of(proc)
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert "FAILED" in proc.stderr


@pytest.mark.parametrize("workload", ["exact-seq", "serve-mix"])
def test_same_seed_gives_byte_identical_inputs(workload):
    first = inputs.inputs_digest(workload, "tiny", 11)
    assert inputs.inputs_digest(workload, "tiny", 11) == first
    assert inputs.inputs_digest(workload, "tiny", 12) != first


def test_exact_battery_is_the_recorded_battery_for_every_seed():
    from perfbench.exact import load_expected

    for size in inputs.BATTERIES:
        recorded = load_expected(size)
        for seed in (0, 1):
            assert {c.base for c in inputs.exact_battery(size, seed)} == set(recorded)


def test_checkout_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("--workload", "exact-seq", "--seed", "1", "--seconds", "1",
               cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_serve_mix_cycle_is_sized_by_the_cache():
    from perfbench import serve

    mix, cycles = serve.MIX, serve.MAX_CYCLES
    fresh = mix.count("cold") + mix.count("ingest")
    # A run that uses every cycle still fits the server's cache.
    assert (serve.WARMUP_ENTRIES + serve.CONNECTIONS * cycles * fresh
            <= serve.CACHE_ENTRIES)
    # At the tuned latencies a full-length run on a server HEADROOM
    # faster stops on time, before its last cycle.
    cycle_ms = sum(serve.TUNED_MS[cls] for cls in mix)
    assert (serve.HEADROOM * 1000 * serve.DESIGN_SECONDS / cycle_ms
            <= cycles)
    assert mix.count("warm") >= mix.count("cold") >= 1


def test_work_left_running_after_a_solve_is_a_failure():
    import threading

    from perfbench.exact import background_work

    threads = threading.active_count()
    stop = threading.Event()
    worker = threading.Thread(target=stop.wait)
    worker.start()
    try:
        assert background_work(threads) == ["1 threads left running"]
    finally:
        stop.set()
        worker.join()
    assert background_work(threads) == []

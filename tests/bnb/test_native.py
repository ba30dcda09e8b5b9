"""Differential pins: the native search core vs the Python search loops.

The native core (:mod:`repro.bnb.native`) must make exactly the search
the NumPy-kernel loop and the scalar reference loop make: the same
``SearchStats`` field for field, the same best topology payload, the
same ``on_incumbent`` cost sequence and, with a progress tracker on a
deterministic clock, the same snapshots.  Floats are compared with
``==`` on purpose.
"""

import dataclasses
import itertools
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from importlib import resources
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bnb import native
from repro.bnb.sequential import BranchAndBoundSolver
from repro.matrix.distance_matrix import DistanceMatrix
from repro.matrix.generators import hierarchical_matrix, random_metric_matrix
from repro.obs.progress import ProgressTracker

requires_native = pytest.mark.skipif(
    native.library() is None, reason=f"native core: {native.backend()}"
)

#: The exact-benchmark battery's shapes: two-level hierarchical matrices
#: at 22-26 species (``jitter=0.3``), as (group spec, generator seed).
SPECS = {
    22: [[6, 5], [6, 5]],
    23: [[6, 6], [6, 5]],
    24: [[6, 6], [6, 6]],
    25: [[7, 6], [6, 6]],
    26: [[7, 6], [7, 6]],
}
BATTERY = (
    (22, 0), (22, 2), (22, 5), (23, 3), (23, 4), (23, 13),
    (24, 1), (24, 4), (24, 5), (25, 2), (26, 5), (26, 10),
)
#: Battery matrices small enough for the scalar loop (< 400 expansions).
SCALAR_BATTERY = ((22, 2), (22, 5), (24, 1))


def battery(n, seed):
    return hierarchical_matrix(SPECS[n], seed=seed, jitter=0.3)


def all_ties_matrix(n, value=4.0):
    return DistanceMatrix(
        [[0.0 if i == j else value for j in range(n)] for i in range(n)]
    )


def solve(matrix, path, **options):
    """``(fingerprint, result)`` of one solve on ``path``.

    ``path`` is ``native`` (the default solver), ``kernel`` (the NumPy
    loop, reached by hiding the core) or ``scalar`` (``use_kernel=False``).
    """
    costs = []
    solver = BranchAndBoundSolver(
        use_kernel=path != "scalar",
        on_incumbent=lambda cost, tree: costs.append(cost),
        **options,
    )
    if path == "kernel":
        with mock.patch.object(native, "library_for", lambda n: None):
            result = solver.solve(matrix)
    else:
        result = solver.solve(matrix)
    stats = dataclasses.asdict(result.stats)
    del stats["elapsed_seconds"]
    payload = None if result.topology is None else result.topology.to_payload()
    return (stats, result.cost, result.optimal, payload, costs), result


def assert_same_search(matrix, paths=("native", "kernel", "scalar"), **options):
    reference, _ = solve(matrix, paths[0], **options)
    for path in paths[1:]:
        assert solve(matrix, path, **options)[0] == reference, path
    return reference


@requires_native
@pytest.mark.parametrize("n,seed", BATTERY)
def test_battery_shapes_match_kernel(n, seed):
    stats = assert_same_search(battery(n, seed), ("native", "kernel"))[0]
    assert stats["nodes_expanded"] > 0


@requires_native
@pytest.mark.parametrize("n,seed", SCALAR_BATTERY)
def test_battery_shapes_match_scalar(n, seed):
    assert_same_search(battery(n, seed), ("native", "scalar"))


@requires_native
@pytest.mark.parametrize("n", range(3, 10))
def test_all_ties_match(n):
    assert_same_search(all_ties_matrix(n))


@requires_native
@pytest.mark.parametrize("seed", range(8))
def test_integer_ties_match(seed):
    assert_same_search(random_metric_matrix(9, seed=seed, high=6.0))


@requires_native
@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(4, 12),
    seed=st.integers(0, 2**32 - 1),
    integer=st.booleans(),
)
def test_random_matrices_match(n, seed, integer):
    matrix = random_metric_matrix(n, seed=seed, integer=integer)
    paths = ("native", "kernel", "scalar") if n <= 9 else ("native", "kernel")
    assert_same_search(matrix, paths)


def tracked_solve(matrix, path, node_limit):
    """A node-limited solve with a tracker that reports on every tick
    against a counting clock: equal searches give equal snapshots."""
    snapshots = []
    ticks = itertools.count()
    tracker = ProgressTracker(
        interval_seconds=0.0,
        sink=snapshots.append,
        clock=lambda: float(next(ticks)),
    )
    fingerprint, result = solve(
        matrix, path, node_limit=node_limit, progress=tracker
    )
    return fingerprint, snapshots, result


@requires_native
def test_node_limit_partial_solve_matches():
    matrix = battery(22, 0)
    native_run = tracked_solve(matrix, "native", 5000)
    kernel_run = tracked_solve(matrix, "kernel", 5000)
    assert native_run[:2] == kernel_run[:2]
    fingerprint, snapshots, result = native_run
    assert result.stats.nodes_expanded == 5000
    assert result.stats.node_limit_hit and not result.optimal
    # Over 5000 loop iterations: dozens of 64-iteration strides.
    assert len(snapshots) > 50
    closing = snapshots[-1]
    assert closing["final"] and closing["open_size"] > 0
    assert closing["nodes_expanded"] == 5000


@requires_native
def test_concurrent_threaded_solves_equal_serial():
    matrices = [battery(23, 3), battery(25, 2)]
    serial = [solve(m, "native")[0] for m in matrices]
    barrier = threading.Barrier(len(matrices))

    def run(matrix):
        barrier.wait(10)
        return solve(matrix, "native")[0]

    with ThreadPoolExecutor(len(matrices)) as pool:
        assert list(pool.map(run, matrices)) == serial


@pytest.fixture
def unresolved(monkeypatch):
    """Forget the process's resolved core for one test."""
    monkeypatch.setattr(native, "_resolved", None)


def test_failed_load_falls_back_and_warns_once(monkeypatch, unresolved):
    def fail():
        raise OSError("no C compiler")

    monkeypatch.setattr(native, "_load", fail)
    matrix = random_metric_matrix(9, seed=4)
    with pytest.warns(RuntimeWarning, match="no C compiler") as caught:
        first = solve(matrix, "native")[0]
        second = solve(matrix, "native")[0]
    assert len([w for w in caught if "native" in str(w.message)]) == 1
    assert first == second == solve(matrix, "scalar")[0]
    assert native.library() is None
    assert native.backend() == "numpy (OSError: no C compiler)"


def test_source_ships_as_package_data():
    source = resources.files("repro.bnb").joinpath(native.SOURCE)
    assert source.is_file()
    assert b"bnb_run" in source.read_bytes()
    assert native.source_bytes() == source.read_bytes()


def test_cache_key_covers_source_and_flags():
    source = native.source_bytes()
    path = native.library_path(source)
    assert path.parent == native.cache_dir()
    assert native.library_path(source + b"\n") != path
    with mock.patch.object(native, "CFLAGS", native.CFLAGS + ("-g",)):
        assert native.library_path(source) != path


@requires_native
def test_compiles_once_then_loads_without_a_subprocess(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    runs = []
    real_run = native.subprocess.run

    def counting_run(*args, **kwargs):
        runs.append(args)
        return real_run(*args, **kwargs)

    monkeypatch.setattr(native.subprocess, "run", counting_run)
    native._load()
    assert len(runs) == 1
    cache = tmp_path / "repro"
    assert cache.stat().st_mode & 0o777 == 0o700
    assert [p.name for p in cache.iterdir()] == [
        native.library_path(native.source_bytes()).name
    ]
    native._load()
    assert len(runs) == 1


@pytest.mark.skipif(not hasattr(os, "getuid"), reason="POSIX ownership")
def test_refuses_a_library_other_users_can_write(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    path = native.library_path(native.source_bytes())
    path.parent.mkdir(mode=0o700)
    path.write_bytes(b"not a library")
    path.chmod(0o666)
    monkeypatch.setattr(
        native.subprocess, "run",
        mock.Mock(side_effect=AssertionError("must not compile")),
    )
    with pytest.raises(PermissionError, match="writable by other users"):
        native._load()

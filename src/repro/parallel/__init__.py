"""Parallel branch-and-bound on a (simulated) PC cluster.

The papers run Algorithm BBU on a 16-node Linux cluster in a master/slave
paradigm: the master relabels the matrix, seeds the upper bound with
UPGMM, pre-branches the BBT to twice the processor count, sorts those
nodes into the *global pool* and dispatches them cyclically; each slave
then consumes its *local pool* depth-first, broadcasting improved upper
bounds and refilling from (or donating back to) the global pool.

We reproduce that system as a deterministic discrete-event simulation
(:mod:`repro.parallel.simulator`) -- the search dynamics, including the
super-linear speedups the papers report, are scheduling phenomena the
simulator reproduces exactly -- plus a real multi-core engine
(:mod:`repro.parallel.multiprocess`, worker threads on the GIL-free
native search core) for end-to-end validation on actual cores.
"""

from repro.parallel.config import ClusterConfig, grid_config
from repro.parallel.pools import SortedPool
from repro.parallel.simulator import (
    ParallelBranchAndBound,
    ParallelResult,
    WorkerStats,
)
from repro.parallel.multiprocess import multiprocess_mut
from repro.parallel.trace import TraceInterval, worker_utilization, ascii_gantt
from repro.parallel.analysis import (
    ScalingPoint,
    speedup_curve,
    karp_flatt,
    amdahl_bound,
)

__all__ = [
    "ClusterConfig",
    "grid_config",
    "SortedPool",
    "ParallelBranchAndBound",
    "ParallelResult",
    "WorkerStats",
    "multiprocess_mut",
    "TraceInterval",
    "worker_utilization",
    "ascii_gantt",
    "ScalingPoint",
    "speedup_curve",
    "karp_flatt",
    "amdahl_bound",
]

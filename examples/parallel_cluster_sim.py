"""Scenario: the 16-node PC cluster, simulated.

Runs the parallel branch-and-bound on the simulated master/slave cluster
across several cluster sizes, printing the speedup curve, per-worker
load balance and message traffic -- the quantities behind the HPCAsia
paper's Figures 1-8.  Finishes with a real multi-core run (worker
threads) on local cores to confirm the decomposition gives the same
optimum.

Run with::

    python examples/parallel_cluster_sim.py
"""

from repro import (
    ClusterConfig,
    ParallelBranchAndBound,
    multiprocess_mut,
    random_metric_matrix,
)


def main() -> None:
    matrix = random_metric_matrix(14, seed=42)
    print(f"instance: {matrix.n} species, uniform random metric\n")

    baseline = ParallelBranchAndBound(ClusterConfig(n_workers=1)).solve(matrix)
    print(f"single processor: makespan {baseline.makespan:,.0f} work units, "
          f"{baseline.total_nodes_expanded} nodes\n")

    print(f"{'p':>3} {'makespan':>12} {'speedup':>8} {'efficiency':>10} "
          f"{'nodes':>7} {'messages':>9}")
    for p in (2, 4, 8, 16):
        result = ParallelBranchAndBound(ClusterConfig(n_workers=p)).solve(matrix)
        speedup = baseline.makespan / result.makespan
        marker = "  <- super-linear" if speedup > p else ""
        print(f"{p:>3} {result.makespan:>12,.0f} {speedup:>8.2f} "
              f"{result.efficiency():>10.2f} {result.total_nodes_expanded:>7} "
              f"{result.messages:>9}{marker}")

    # Per-worker balance at p = 8.
    result = ParallelBranchAndBound(ClusterConfig(n_workers=8)).solve(matrix)
    print("\nload balance at p=8 (global pool + donation + stealing):")
    for w in result.workers:
        bar = "#" * int(40 * w.busy_time / max(result.makespan, 1))
        print(f"  worker {w.worker_id}: {bar} "
              f"({w.nodes_expanded} nodes, {w.steals} steals)")

    # Cross-check on real cores.
    mp = multiprocess_mut(matrix, n_workers=4)
    match = "matches" if abs(mp.cost - baseline.cost) < 1e-9 else "DIFFERS FROM"
    print(f"\nreal 4-worker run: cost {mp.cost:.2f} ({match} the simulated optimum)")


if __name__ == "__main__":
    main()

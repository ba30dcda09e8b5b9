"""Set-up probe: a fresh interpreter imports the package and solves the
warm-up input once, then prints ``ready``.

``exact.measure_setup`` times this from process start to the ``ready``
line.  Usage: ``python3 perfbench/probe.py bnb|multiprocess`` with
``PYTHONPATH`` naming the checkout's ``src/``.
"""

import sys
from pathlib import Path


def main(method: str) -> int:
    from repro.core.api import construct_tree
    from repro.parallel.config import ClusterConfig

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from perfbench.inputs import warmup_case

    cluster = ClusterConfig(n_workers=2) if method == "multiprocess" else None
    construct_tree(warmup_case().matrix(), method, cluster=cluster, verify=True)
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))

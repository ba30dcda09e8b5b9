"""Re-record ``expected.json``: the per-input values the checks compare with.

* exact battery (every size): cost and node count of each matrix, as the
  sequential solver returns them for the default seed's relabelling;
* serve pool: the ``compact`` cost of every /solve base matrix and of
  every /ingest FASTA base (``distance: jc``).  Served results may match
  or beat these, never be worse.

Run from the checkout root after a change that legitimately moves them
(and say why in the change): ``python3 perfbench/record.py``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import use_source_tree  # noqa: E402

use_source_tree()

from perfbench import inputs  # noqa: E402
from perfbench.exact import EXPECTED_PATH  # noqa: E402


def record() -> dict:
    from repro.core.api import construct_tree
    from repro.ingest import run_pipeline

    out = {"exact": {}, "serve": {}}
    for size in inputs.BATTERIES:
        rows = {}
        for case in inputs.exact_battery(size, inputs.DEFAULT_SEED):
            result = construct_tree(case.matrix(), "bnb")
            rows[case.base] = {
                "species": case.n,
                "cost": result.cost,
                "nodes_expanded": result.details.stats.nodes_expanded,
            }
        out["exact"][size] = rows
    for size in inputs.SERVE_POOLS:
        pool = inputs.serve_pool(size)
        rows = {}
        for name, matrix in pool.solve:
            rows[name] = {"cost": construct_tree(matrix, "compact").cost}
        for name, sequences in pool.ingest:
            fasta = "".join(f">{k}\n{v}\n" for k, v in sequences.items())
            result = run_pipeline(fasta, text=True, distance="jc").result
            rows[name] = {"cost": result.cost}
        out["serve"][size] = rows
    return out


if __name__ == "__main__":
    EXPECTED_PATH.write_text(json.dumps(record(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {EXPECTED_PATH}")

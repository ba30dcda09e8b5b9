"""Host-speed yardstick for the exact workloads.

The host is a shared VM whose speed drifts by tens of percent, so the
exact workloads scale each solve's wall time by how fast the host ran a
fixed reference loop around it (``NOTES.md``, "typical solve time").

:func:`reference_loop` is that loop.  Run as a script, this module is a
helper process that times the loop on another vCPU: every line read
from standard input runs the loop once and answers with its time in
seconds; the process ends at end of input.  Usage::

    python3 perfbench/yardstick.py

It imports NumPy only, none of the program.
"""

import gc
import sys
import time

import numpy as np

_ARRAYS = [np.random.default_rng(i).random(40) for i in range(8)]


def reference_loop() -> float:
    """Time a fixed loop of small-array NumPy calls and list work.

    It mimics the B&B's mix of interpreter work and tiny NumPy calls but
    runs no code of the program.  The garbage collector is off while it
    runs, so objects the program left on the heap cannot trigger a
    collection inside the loop.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        arrays = _ARRAYS
        t0 = time.perf_counter()
        acc = 0.0
        kept = []
        for i in range(1500):
            a, b = arrays[i % 8], arrays[(i + 3) % 8]
            mixed = np.minimum(a, b) + 0.5 * np.maximum(a, b)
            acc += float(mixed[i % 40])
            kept.append((acc, i))
            if len(kept) > 50:
                kept.sort()
                del kept[10:]
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def main() -> int:
    for _ in sys.stdin:
        print(repr(reference_loop()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

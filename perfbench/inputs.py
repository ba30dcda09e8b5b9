"""Seeded inputs for the three workloads.

Every input is a fixed *base* instance with its species relabelled by a
permutation drawn from ``--seed``.  The bases are generated from fixed
generator seeds, so a run's difficulty does not depend on ``--seed``:
branch-and-bound node counts are invariant under relabelling (the solver
first reorders species into max-min order), and so are the compact sets
of a matrix.  Redrawing the bases per seed instead would make the
end-to-end numbers measure the seed: at 22 species, generator seeds 0-5
need between 139 and 162,409 expansions.

The seed still changes every byte the program receives (species order,
and with it the matrix digest the service caches by), so a cold request
is a genuine cache miss and a solver cannot key on its input.

* exact battery: two-level ``hierarchical_matrix`` inputs at 22-26
  species (the HMDNA-26 shape of ``BENCH_bnb.json``), chosen to span
  100 to 16,000 expansions, all solved to proven optimality;
* serve pool: 60-species synthetic-HMDNA matrices (cold and warm
  ``POST /solve``) and 40-species x 1,000 bp FASTA evolved with
  :mod:`repro.sequences` (``POST /ingest``).
"""

from __future__ import annotations

import hashlib
import io
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from repro.matrix.distance_matrix import DistanceMatrix
from repro.matrix.generators import hierarchical_matrix
from repro.sequences.fasta import write_fasta
from repro.sequences.hmdna import generate_hmdna_dataset

#: The seed whose per-matrix costs ``expected.json`` records exactly.
DEFAULT_SEED = 0

#: Two-level group specifications per species count (``jitter=0.3``).
SPECS = {
    16: [[4, 4], [4, 4]],
    22: [[6, 5], [6, 5]],
    23: [[6, 6], [6, 5]],
    24: [[6, 6], [6, 6]],
    25: [[7, 6], [6, 6]],
    26: [[7, 6], [7, 6]],
}

#: (species, generator seed) of every battery matrix, easiest sizes first.
BATTERIES = {
    "full": (
        (22, 0), (22, 2), (22, 5),
        (23, 3), (23, 4), (23, 13),
        (24, 1), (24, 4), (24, 5),
        (25, 2),
        (26, 5), (26, 10),
    ),
    "tiny": ((16, 0), (16, 1), (16, 2)),
}

#: The warm-up input solved once before timing (and by the set-up probe).
WARMUP = (16, 3)

#: Serve pool shapes: (species, generator seeds) for the /solve matrices
#: and (species, sequence length, generator seeds) for the /ingest FASTA.
SERVE_POOLS = {
    "full": {
        "solve": (60, tuple(range(1000, 1024))),
        "ingest": (40, 1000, tuple(range(2000, 2008))),
    },
    "tiny": {
        "solve": (20, tuple(range(1000, 1003))),
        "ingest": (12, 1000, tuple(range(2000, 2002))),
    },
}

#: Stream ids that keep the permutation draws of different uses apart.
_BATTERY_STREAM = 1
_COLD_STREAM = 2
_INGEST_STREAM = 3


@dataclass(frozen=True)
class Case:
    """One input matrix: ``base`` names the instance it was relabelled from."""

    base: str
    values: np.ndarray
    labels: Tuple[str, ...]

    @property
    def n(self) -> int:
        return len(self.labels)

    def matrix(self) -> DistanceMatrix:
        """A fresh matrix object: solver caches keyed by identity stay cold."""
        return DistanceMatrix(self.values.copy(), list(self.labels))

    def to_bytes(self) -> bytes:
        return (
            "\x00".join(self.labels).encode("utf-8")
            + b"\x01" + self.values.astype("<f8").tobytes()
        )


def permuted(base: str, matrix: DistanceMatrix, perm: Sequence[int]) -> Case:
    index = np.asarray(perm)
    values = matrix.values[np.ix_(index, index)]
    return Case(base, values, tuple(matrix.labels[i] for i in index))


def _rng(seed: int, stream: int, *extra: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream, *extra])


def battery_base(n: int, gen_seed: int) -> DistanceMatrix:
    return hierarchical_matrix(SPECS[n], seed=gen_seed, jitter=0.3)


def base_name(n: int, gen_seed: int) -> str:
    return f"h{n}s{gen_seed}"


def exact_battery(size: str, seed: int) -> List[Case]:
    """The exact workloads' battery for ``seed``."""
    rng = _rng(seed, _BATTERY_STREAM)
    cases = []
    for n, gen_seed in BATTERIES[size]:
        cases.append(permuted(
            base_name(n, gen_seed), battery_base(n, gen_seed),
            rng.permutation(n),
        ))
    return cases


def warmup_case() -> Case:
    n, gen_seed = WARMUP
    return permuted(base_name(n, gen_seed), battery_base(n, gen_seed), range(n))


# ----------------------------------------------------------------------
# serve-mix
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ServePool:
    """The base instances the serve-mix requests are relabelled from."""

    solve: Tuple[Tuple[str, DistanceMatrix], ...]
    ingest: Tuple[Tuple[str, Dict[str, str]], ...]


def serve_pool(size: str) -> ServePool:
    n, gen_seeds = SERVE_POOLS[size]["solve"]
    solve = tuple(
        (f"hmdna{n}s{g}", generate_hmdna_dataset(n, seed=g).matrix)
        for g in gen_seeds
    )
    n_seq, length, fasta_seeds = SERVE_POOLS[size]["ingest"]
    ingest = tuple(
        (
            f"fasta{n_seq}x{length}s{g}",
            generate_hmdna_dataset(
                n_seq, seed=g, sequence_length=length
            ).sequences,
        )
        for g in fasta_seeds
    )
    return ServePool(solve, ingest)


def cold_cases(pool: ServePool, seed: int, conn: int) -> Iterator[Case]:
    """Connection ``conn``'s endless stream of fresh /solve matrices.

    Bases are visited round-robin in a seeded order, each visit under a
    new species permutation.
    """
    rng = _rng(seed, _COLD_STREAM, conn)
    order = rng.permutation(len(pool.solve))
    visit = 0
    while True:
        name, matrix = pool.solve[order[visit % len(order)]]
        visit += 1
        yield permuted(name, matrix, rng.permutation(matrix.n))


def ingest_texts(
    pool: ServePool, seed: int, conn: int
) -> Iterator[Tuple[str, str]]:
    """Connection ``conn``'s endless stream of ``(base, FASTA text)``.

    Each upload lists the base's records in a new seeded order under new
    record names (the base name plus a seeded tag), so its distance
    matrix (and cache key) is new while the work is the same: ingestion
    orders species by name, so reordering alone would repeat a matrix.
    """
    rng = _rng(seed, _INGEST_STREAM, conn)
    order = rng.permutation(len(pool.ingest))
    visit = 0
    while True:
        name, sequences = pool.ingest[order[visit % len(order)]]
        visit += 1
        tag = f"{int(rng.integers(1 << 32)):08x}"
        names = list(sequences)
        renamed = {f"{names[i]}_{tag}": sequences[names[i]]
                   for i in rng.permutation(len(names))}
        text = io.StringIO()
        write_fasta(renamed, text)
        yield name, text.getvalue()


def inputs_digest(workload: str, size: str, seed: int) -> str:
    """sha256 over the inputs a run with ``seed`` sends (for serve-mix, the
    first six requests of each class per connection)."""
    h = hashlib.sha256()
    if workload.startswith("exact"):
        for case in exact_battery(size, seed):
            h.update(case.to_bytes())
        return h.hexdigest()
    pool = serve_pool(size)
    for conn in (0, 1):
        colds = cold_cases(pool, seed, conn)
        texts = ingest_texts(pool, seed, conn)
        for _ in range(6):
            h.update(next(colds).to_bytes())
            h.update(next(texts)[1].encode("utf-8"))
    return h.hexdigest()

"""Loader and wrapper for the native depth-first search core.

``native_search.c`` runs the sequential solver's exact DFS step -- pop,
prune, the kernel's ``g`` tables and upward walk, the
``child_via_tables`` graft, the best-first child order, the incumbent
update and the ``SearchStats`` counters -- over a C-owned node stack.
:class:`NativeSearch` is driven from Python in strides by
:meth:`repro.bnb.sequential.SearchCore.depth_first`, which keeps every
policy decision (progress ticks, node limits, shared upper bounds,
``on_incumbent``) between strides.

The library is compiled at most once per source version with the system
C compiler (``$CC``, else ``cc``) into a per-user cache directory and
loaded with :mod:`ctypes`.  When no compiler is available or the build
fails, :func:`library` warns once and returns ``None``; the solvers then
run their NumPy-kernel loop, which makes bit-identical decisions.
``docs/algorithms.md`` ("Native search core") gives the bit-exactness
argument and the cache trust rule.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import itertools
import os
import platform
import shlex
import struct
import subprocess
import sys
import tempfile
import threading
import warnings
from importlib import resources
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from repro.bnb.topology import PartialTopology

__all__ = [
    "MIN_SPECIES",
    "MAX_SPECIES",
    "NativeSearch",
    "backend",
    "library",
    "library_for",
]

SOURCE = "native_search.c"
#: No ``-ffast-math`` and no ``-march``: ``-ffp-contract=off`` keeps the
#: compiler from fusing a multiply and an add into one FMA, so every
#: float operation rounds exactly as the Python paths' do.
CFLAGS = ("-O2", "-ffp-contract=off", "-std=c99", "-shared", "-fPIC")
#: The C core searches from a two-leaf root and packs leaf sets into
#: ``uint64`` masks (like the NumPy kernel).
MIN_SPECIES = 3
MAX_SPECIES = 62

#: ``bnb_run`` return codes (``native_search.c``).
STRIDE, EXHAUSTED, IMPROVED, LIMIT = 0, 1, 2, 3
_OVERFLOW = -1


class _Header(ctypes.Structure):
    """The public head of the C ``Search`` struct, field for field."""

    _fields_ = [
        ("nodes_created", ctypes.c_int64),
        ("nodes_expanded", ctypes.c_int64),
        ("nodes_pruned", ctypes.c_int64),
        ("ub_updates", ctypes.c_int64),
        ("max_open_size", ctypes.c_int64),
        ("open_size", ctypes.c_int64),
        ("n_improvements", ctypes.c_int64),
        ("has_best", ctypes.c_int64),
        ("upper_bound", ctypes.c_double),
        ("keep_margin", ctypes.c_double),
        ("eps", ctypes.c_double),
    ]


_I32 = ctypes.POINTER(ctypes.c_int32)
_F64 = ctypes.POINTER(ctypes.c_double)
_U64 = ctypes.POINTER(ctypes.c_uint64)
_SEARCH = ctypes.POINTER(_Header)
#: A node's packed buffers (``native_search.c``, above ``pack``).
_NODE_BUFFERS = [_I32, _F64, _U64]


@functools.lru_cache(maxsize=4096)
def _array(ctype, length: int):
    """``ctype * length``, kept alive.

    ctypes caches array types only weakly, so once the garbage collector
    frees one, the next search rebuilds it -- tens of microseconds each,
    several per search, which made set-up dominate small solves.  The
    lengths in use are bounded by ``MAX_SPECIES``.
    """
    return ctype * length


def _declare(lib: ctypes.CDLL) -> None:
    lib.bnb_new.restype = _SEARCH
    lib.bnb_new.argtypes = [
        ctypes.c_int, _F64, _F64, ctypes.c_int64, ctypes.c_double,
        ctypes.c_double,
    ]
    lib.bnb_free.restype = None
    lib.bnb_free.argtypes = [_SEARCH]
    lib.bnb_push.restype = ctypes.c_int
    lib.bnb_push.argtypes = [_SEARCH] + _NODE_BUFFERS
    lib.bnb_read.restype = ctypes.c_int
    lib.bnb_read.argtypes = [_SEARCH, ctypes.c_int64] + _NODE_BUFFERS
    lib.bnb_open_min_lb.restype = ctypes.c_double
    lib.bnb_open_min_lb.argtypes = [_SEARCH]
    lib.bnb_run.restype = ctypes.c_int
    lib.bnb_run.argtypes = [_SEARCH, ctypes.c_int64, ctypes.c_int64]


# ---------------------------------------------------------------------------
# Build, cache and load
# ---------------------------------------------------------------------------
def source_bytes() -> bytes:
    """The C source, read as package data (works from an installed wheel)."""
    return resources.files("repro.bnb").joinpath(SOURCE).read_bytes()


def cache_dir() -> Path:
    """``$XDG_CACHE_HOME/repro``, else ``~/.cache/repro``."""
    root = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(root):
        root = os.path.join(os.path.expanduser("~"), ".cache")
    return Path(root) / "repro"


def library_path(source: bytes) -> Path:
    """Cache path keyed by sha256(source + flags + machine)."""
    key = hashlib.sha256()
    key.update(source)
    key.update(" ".join(CFLAGS).encode())
    key.update(
        f"{sys.platform}-{platform.machine()}-{struct.calcsize('P')}".encode()
    )
    return cache_dir() / f"bnb-search-{key.hexdigest()[:24]}.so"


def _untrusted(path: Path) -> Optional[str]:
    """Why ``path`` must not be loaded from, or ``None`` if it may."""
    st = path.stat()
    if hasattr(os, "getuid") and st.st_uid != os.getuid():
        return f"{path} is not owned by the current user"
    if st.st_mode & 0o022:
        return f"{path} is writable by other users"
    return None


def _compile(source: bytes, target: Path) -> None:
    """Compile ``source`` to ``target`` via a temp file and ``os.replace``."""
    compiler = shlex.split(os.environ.get("CC") or "cc")
    fd, tmp = tempfile.mkstemp(
        prefix=target.name + ".", suffix=".tmp", dir=target.parent
    )
    os.close(fd)
    try:
        proc = subprocess.run(
            [*compiler, *CFLAGS, "-x", "c", "-", "-o", tmp],
            input=source, capture_output=True, timeout=300,
        )
        if proc.returncode != 0:
            detail = proc.stderr.decode(errors="replace").strip()
            raise OSError(
                f"{compiler[0]} exited with {proc.returncode}"
                + (f": {detail.splitlines()[-1]}" if detail else "")
            )
        os.chmod(tmp, 0o700)
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _load() -> ctypes.CDLL:
    """Load the cached library, compiling it first if it is missing."""
    source = source_bytes()
    path = library_path(source)
    path.parent.mkdir(mode=0o700, parents=True, exist_ok=True)
    reason = _untrusted(path.parent)
    if reason is None:
        if not path.exists():
            _compile(source, path)
        reason = _untrusted(path)
    if reason is not None:
        raise PermissionError(reason)
    lib = ctypes.CDLL(str(path))
    _declare(lib)
    return lib


#: ``(library or None, reason it is unavailable or None)`` once resolved.
_resolved: Optional[Tuple[Optional[ctypes.CDLL], Optional[str]]] = None
_resolve_lock = threading.Lock()


def _resolve() -> Tuple[Optional[ctypes.CDLL], Optional[str]]:
    global _resolved
    if _resolved is not None:
        return _resolved
    with _resolve_lock:
        if _resolved is None:
            try:
                _resolved = (_load(), None)
            except Exception as exc:  # noqa: BLE001 - any failure falls back
                reason = f"{type(exc).__name__}: {exc}"
                _resolved = (None, reason)
                warnings.warn(
                    f"native branch-and-bound core unavailable ({reason}); "
                    "using the NumPy branching kernel",
                    RuntimeWarning,
                    stacklevel=4,
                )
        return _resolved


def library() -> Optional[ctypes.CDLL]:
    """The loaded core, or ``None`` (warned once per process) if it cannot
    be built or loaded.  The first call may compile; later calls are free."""
    return _resolve()[0]


def library_for(n: int) -> Optional[ctypes.CDLL]:
    """:func:`library` if the core can search ``n`` species, else ``None``."""
    return library() if MIN_SPECIES <= n <= MAX_SPECIES else None


def backend() -> str:
    """The active branching backend: ``native``, or ``numpy (<reason>)``."""
    lib, reason = _resolve()
    return "native" if lib is not None else f"numpy ({reason})"


# ---------------------------------------------------------------------------
# One search
# ---------------------------------------------------------------------------
class NativeSearch:
    """A C-owned DFS stack over one ``M / 2`` matrix, with its counters.

    ``nodes`` are pushed in order (the last one is popped first);
    ``keep_margin`` and ``eps`` are the solver's prune margin and
    incumbent tolerance.  The counters (``nodes_expanded``, ...) and
    ``upper_bound`` are read and written straight through the C struct.
    ``len(search)`` and :meth:`min_lower_bound` describe the open stack
    the way :class:`~repro.obs.progress.ProgressTracker` reads an open
    list.  Use as a context manager; the C memory is freed on exit.
    """

    def __init__(
        self,
        lib: ctypes.CDLL,
        half: Sequence[Sequence[float]],
        tails: Sequence[float],
        nodes: Sequence[PartialTopology],
        upper_bound: float,
        *,
        keep_margin: float,
        eps: float,
    ) -> None:
        n = len(half)
        if any(len(row) != n for row in half) or len(tails) != n + 1:
            raise ValueError("half must be n x n and tails n + 1 long")
        self._lib = lib
        self._half = half
        self.n = n
        flat = _array(ctypes.c_double, n * n)(*itertools.chain.from_iterable(half))
        tail_arr = _array(ctypes.c_double, n + 1)(*tails)
        self._ptr = lib.bnb_new(n, flat, tail_arr, len(nodes), keep_margin, eps)
        if not self._ptr:
            raise MemoryError(f"cannot allocate a native search over {n} species")
        self.header = self._ptr.contents
        self.header.upper_bound = upper_bound
        for node in nodes:
            m = 2 * node.num_leaves - 1
            if node.n != n or len(node.parent) != m or len(node.leaf_of) != n:
                self.close()
                raise ValueError(f"{node!r} does not fit a {n}-species search")
            ints = _array(ctypes.c_int32, 2 + 4 * m + n)(
                node.num_leaves, node.root, *node.parent, *node.child_a,
                *node.child_b, *node.species, *node.leaf_of,
            )
            floats = _array(ctypes.c_double, 2 + m)(
                node.internal_sum, node.lower_bound, *node.height
            )
            leafset = _array(ctypes.c_uint64, m)(*node.leafset)
            if lib.bnb_push(self._ptr, ints, floats, leafset) != 0:
                self.close()
                raise ValueError(f"cannot push {node!r} onto a native search")

    def __enter__(self) -> "NativeSearch":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        if self._ptr:
            self._lib.bnb_free(self._ptr)
            self._ptr = None
            self.header = None

    @property
    def stats(self) -> _Header:
        """The live counters, named like ``SearchStats``'s."""
        return self.header

    @property
    def upper_bound(self) -> float:
        return self.header.upper_bound

    @upper_bound.setter
    def upper_bound(self, value: float) -> None:
        self.header.upper_bound = value

    # ------------------------------------------------------------------
    def run(self, max_iterations: int, expansion_limit: Optional[int] = None) -> int:
        """Pop up to ``max_iterations`` nodes; returns :data:`STRIDE`,
        :data:`EXHAUSTED`, :data:`IMPROVED` (after the expansion that
        improved the incumbent) or :data:`LIMIT` (``nodes_expanded``
        reached ``expansion_limit`` with nodes still open)."""
        limit = -1 if expansion_limit is None else expansion_limit
        status = self._lib.bnb_run(self._ptr, max_iterations, limit)
        if status == _OVERFLOW:
            raise RuntimeError("native search stack overflowed its bound")
        return status

    def __len__(self) -> int:
        return self.header.open_size

    def min_lower_bound(self) -> float:
        return self._lib.bnb_open_min_lb(self._ptr)

    def _read(self, which: int) -> PartialTopology:
        n = self.n
        width = 2 * n - 1
        ints = _array(ctypes.c_int32, 2 + 4 * width + n)()
        floats = _array(ctypes.c_double, 2 + width)()
        leafset = _array(ctypes.c_uint64, width)()
        leaves = self._lib.bnb_read(self._ptr, which, ints, floats, leafset)
        if leaves < 0:
            raise IndexError(f"no native search node {which}")
        m = 2 * leaves - 1
        payload = (
            n, leaves,
            ints[2:2 + m], ints[2 + m:2 + 2 * m], ints[2 + 2 * m:2 + 3 * m],
            floats[2:2 + m], leafset[:m], ints[2 + 3 * m:2 + 4 * m],
            ints[2 + 4 * m:2 + 4 * m + n], ints[1], floats[0], floats[1],
        )
        return PartialTopology.from_payload(payload, self._half)

    def best(self) -> Optional[PartialTopology]:
        """The best complete topology found so far (``None`` if none
        improved on, or matched, the starting upper bound)."""
        return self._read(-1) if self.header.has_best else None

    def incumbents(self) -> List[PartialTopology]:
        """Every incumbent improvement of the last :meth:`run`, in order."""
        return [self._read(k) for k in range(self.header.n_improvements)]

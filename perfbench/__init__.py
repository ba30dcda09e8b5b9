"""The repository's benchmark: three seeded workloads run against the
public entry points (``construct_tree`` in-process and a ``repro-mut
serve`` subprocess over HTTP).  ``python3 perfbench/run.py --help``
describes the command; ``perfbench/NOTES.md`` the workloads and metrics.
"""

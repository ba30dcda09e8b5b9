"""The traced run's instruments, all in the benchmark's own files.

* :class:`LayerTimers` wraps functions *as imported by* a module
  (``repro.bnb.sequential`` binds ``expand_positions`` & co. at import,
  so patching its globals times exactly the solver's calls and nothing
  else) and totals their time per solve.  Installed only in the traced
  run; removed when it ends.
* :class:`SpanLog` keeps the benchmark's spans -- its own timings plus
  the program's ``Recorder`` / ``--trace-out`` spans grouped by trace id
  -- in memory and writes them once, when the run ends.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List

from perfbench.common import write_jsonl

#: The functions ``repro.bnb.sequential`` calls into, by layer.
BNB_FUNCTIONS = ("expand_positions", "search_context", "apply_maxmin", "upgmm")


class LayerTimers:
    """Accumulating timing wrappers around a module's imported functions."""

    def __init__(self, module) -> None:
        self.module = module
        self.names = BNB_FUNCTIONS
        self.seconds: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self._originals: Dict[str, Callable] = {}

    def _wrap(self, name: str, fn: Callable) -> Callable:
        clock = time.perf_counter
        seconds, calls = self.seconds, self.calls

        def timed(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[name] += clock() - t0
                calls[name] += 1

        return timed

    def __enter__(self) -> "LayerTimers":
        for name in self.names:
            original = getattr(self.module, name)
            self._originals[name] = original
            setattr(self.module, name, self._wrap(name, original))
        return self

    def __exit__(self, *exc_info) -> None:
        for name, original in self._originals.items():
            setattr(self.module, name, original)
        self._originals.clear()

    def take(self) -> Dict[str, dict]:
        """Totals since the last ``take``, then reset."""
        out = {
            name: {"seconds": self.seconds[name], "calls": self.calls[name]}
            for name in self.names
        }
        self.seconds.clear()
        self.calls.clear()
        return out


class SpanLog:
    """In-memory span records, written as JSON lines at the end of a run."""

    def __init__(self) -> None:
        self.records: List[dict] = []

    def add(self, name: str, start: float, end: float, **attrs) -> None:
        self.records.append({
            "event": "span", "name": name, "start": start, "end": end,
            "duration": end - start, "source": "perfbench", "attrs": attrs,
        })

    def extend(self, events: Iterable[dict], source: str) -> None:
        for event in events:
            record = dict(event)
            record["source"] = source
            self.records.append(record)

    def write(self, name: str) -> None:
        write_jsonl(name, self.records)


def group_by_trace(events: Iterable[dict]) -> Dict[str, List[dict]]:
    """The program's span and counter events (``to_json`` shape), keyed by
    the trace id the program stamped on them."""
    groups: Dict[str, List[dict]] = defaultdict(list)
    for event in events:
        trace_id = (event.get("attrs") or {}).get("trace_id")
        if trace_id is not None:
            groups[trace_id].append(event)
    return groups


def total(spans: Iterable[dict], name: str, **match) -> float:
    """Summed duration of the spans called ``name`` (attrs matching)."""
    return sum(
        s["end"] - s["start"] for s in spans
        if s["event"] == "span" and s["name"] == name
        and all((s.get("attrs") or {}).get(k) == v for k, v in match.items())
    )


def count(spans: Iterable[dict], name: str) -> int:
    return sum(1 for s in spans if s["event"] == "span" and s["name"] == name)


def counter_sum(events: Iterable[dict], name: str) -> float:
    return sum(
        e["value"] for e in events
        if e["event"] == "counter" and e["name"] == name
    )

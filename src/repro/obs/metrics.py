"""Live metrics: counters, gauges and fixed-bucket histograms.

The :class:`~repro.obs.recorder.Recorder` answers "what happened during
*this* run" -- a complete event log, bounded only by the run's length.
A long-lived ``repro-mut serve`` process needs the complementary shape:
**aggregates** whose memory is bounded by the number of distinct metric
series, not by traffic.  :class:`MetricsRegistry` provides exactly that:

* **counters** -- monotone tallies (``cache.miss``, ``queue.rejected``);
* **gauges** -- point-in-time values, either set explicitly or computed
  at scrape time from a callback (queue depth, in-flight jobs);
* **histograms** -- fixed-bucket latency distributions
  (``service.job.seconds``, ``solve.seconds``) with Prometheus-style
  cumulative ``le`` buckets.

The registry is a sink for the schema-v1 event stream.  Emitters record
spans and counters on a :class:`~repro.obs.recorder.Recorder` (or the
trace-off :class:`~repro.obs.recorder.NullRecorder`), which hands each
event to its registry's :meth:`MetricsRegistry.record`; the one table
:data:`DERIVATIONS` says which counter, histogram or progress gauge an
event feeds.  Each fact is therefore emitted once, and crosses a process
boundary once, as an event.  The only direct writes left are scrape-time
``set_function`` gauges, which read live state rather than record facts.

Design constraints, mirroring the recorder's:

1. **Bounded label cardinality.**  Each metric holds at most
   ``max_series_per_metric`` distinct label combinations; further
   combinations collapse into a reserved ``"_other_"`` series instead of
   growing without bound when a caller labels by something unbounded.
2. **Lock-protected.**  One registry is shared by every scheduler
   worker thread and every HTTP handler thread; all mutation happens
   under a single re-entrant lock.
3. **Allocation-free when unused.**  The registry allocates per-series
   state lazily on first observation, and :data:`NULL_METRICS` is a
   shared no-op registry for callers that want metrics off entirely
   (e.g. the benchmark's overhead baseline).

Rendering: :meth:`MetricsRegistry.render_prometheus` emits the text
exposition format (``GET /metrics``), :meth:`MetricsRegistry.snapshot`
a JSON view (``GET /stats``).  Metric names use dotted form internally
(``service.job.seconds``) and are mangled to Prometheus conventions on
render (``service_job_seconds``; counters gain ``_total``).
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from operator import attrgetter
from typing import (
    Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple,
)

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "DERIVATIONS",
    "OVERFLOW_LABEL",
    "Counter",
    "Derivation",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "NULL_METRICS",
    "REGISTRY",
    "as_metrics",
    "prometheus_name",
]

#: Default histogram buckets, in seconds.  Chosen for the serving layer's
#: range: warm cache hits are sub-millisecond, cold exact solves seconds.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

#: Label value that absorbs observations beyond the per-metric series cap.
OVERFLOW_LABEL = "_other_"

_LabelKey = Tuple[str, ...]


def prometheus_name(name: str) -> str:
    """Mangle a dotted metric name to Prometheus conventions."""
    return name.replace(".", "_").replace("-", "_")


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_labels(labelnames: Sequence[str], values: _LabelKey) -> str:
    if not labelnames:
        return ""
    parts = ",".join(
        f'{name}="{_escape_label_value(value)}"'
        for name, value in zip(labelnames, values)
    )
    return "{" + parts + "}"


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == int(value):
        return str(int(value))
    return repr(value)


class _Instrument:
    """Shared plumbing: named series keyed by a tuple of label values.

    ``_series`` maps the label-value tuple to instrument-specific state;
    everything is guarded by the owning registry's lock.  The cardinality
    bound lives here: the first label combination past the cap is
    redirected to the all-``"_other_"`` overflow series and counted on
    the registry, so runaway labels degrade (one coarse series) instead
    of leaking.
    """

    kind = "untyped"

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        help: str,  # noqa: A002 - mirrors prometheus_client's API
        labelnames: Sequence[str],
    ) -> None:
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._labelset = frozenset(self.labelnames)
        self._registry = registry
        self._lock = registry._lock
        self._series: Dict[_LabelKey, object] = {}

    def _key(self, labels: Mapping[str, object]) -> _LabelKey:
        if labels.keys() != self._labelset:
            raise ValueError(
                f"metric {self.name!r} takes labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}"
            )
        return self._capped(
            tuple([str(labels[name]) for name in self.labelnames])
        )

    def _capped(self, key: _LabelKey) -> _LabelKey:
        if key not in self._series and len(self._series) >= (
            self._registry.max_series_per_metric
        ):
            overflow = (OVERFLOW_LABEL,) * len(self.labelnames)
            if key != overflow:
                self._registry._overflowed += 1
                key = overflow
        return key

    def _new_state(self) -> object:  # pragma: no cover - overridden
        raise NotImplementedError

    def _state(self, key: _LabelKey) -> object:
        state = self._series.get(key)
        if state is None:
            state = self._series[key] = self._new_state()
        return state


class Counter(_Instrument):
    """Monotonically increasing tally."""

    kind = "counter"

    def _new_state(self) -> List[float]:
        return [0.0]

    def inc(self, value: float = 1, **labels) -> None:
        if value < 0:
            raise ValueError(f"counters only go up; got {value!r}")
        with self._lock:
            self._apply(self._state(self._key(labels)), value)

    @staticmethod
    def _apply(state, value: float) -> None:
        state[0] += value

    def value(self, **labels) -> float:
        with self._lock:
            state = self._series.get(self._key(labels))
            return state[0] if state is not None else 0.0


class Gauge(_Instrument):
    """Point-in-time value: set directly, or computed at scrape time."""

    kind = "gauge"

    def _new_state(self) -> List[object]:
        # [value, callback]; the callback (when set) wins at read time.
        return [0.0, None]

    def set(self, value: float, **labels) -> None:
        with self._lock:
            self._apply(self._state(self._key(labels)), value)

    @staticmethod
    def _apply(state, value: float) -> None:
        state[0] = float(value)
        state[1] = None

    def inc(self, value: float = 1, **labels) -> None:
        with self._lock:
            self._state(self._key(labels))[0] += value

    def dec(self, value: float = 1, **labels) -> None:
        self.inc(-value, **labels)

    def set_function(self, fn: Callable[[], float], **labels) -> None:
        """Evaluate ``fn`` at every scrape instead of storing a value.

        The natural fit for derived quantities (queue depth, in-flight
        count) that already live in some data structure; the gauge then
        can never go stale.  Exceptions from ``fn`` read as 0.
        """
        with self._lock:
            self._state(self._key(labels))[1] = fn

    @staticmethod
    def _read(state: List[object]) -> float:
        fn = state[1]
        if fn is None:
            return float(state[0])  # type: ignore[arg-type]
        try:
            return float(fn())  # type: ignore[operator]
        except Exception:
            return 0.0

    def value(self, **labels) -> float:
        with self._lock:
            state = self._series.get(self._key(labels))
            return self._read(state) if state is not None else 0.0


class Histogram(_Instrument):
    """Fixed-bucket distribution with Prometheus ``le`` semantics.

    ``buckets`` are the finite upper bounds; an implicit ``+Inf`` bucket
    always exists.  A bound is *inclusive*: ``observe(0.01)`` lands in
    the ``le="0.01"`` bucket.  Per-series state is one count per bucket
    plus running sum and count -- O(len(buckets)), independent of the
    number of observations.
    """

    kind = "histogram"

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        help: str,  # noqa: A002
        labelnames: Sequence[str],
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        super().__init__(registry, name, help, labelnames)
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if list(bounds) != sorted(set(bounds)):
            raise ValueError(f"bucket bounds must strictly increase: {bounds}")
        self.buckets = bounds

    def _new_state(self) -> Dict[str, object]:
        return {
            "counts": [0] * (len(self.buckets) + 1),  # + the +Inf bucket
            "sum": 0.0,
            "count": 0,
        }

    def observe(self, value: float, **labels) -> None:
        with self._lock:
            self._apply(self._state(self._key(labels)), value)

    def _apply(self, state, value: float) -> None:
        value = float(value)
        state["counts"][bisect_left(self.buckets, value)] += 1
        state["sum"] += value
        state["count"] += 1

    def count(self, **labels) -> int:
        with self._lock:
            state = self._series.get(self._key(labels))
            return int(state["count"]) if state is not None else 0

    def sum(self, **labels) -> float:
        with self._lock:
            state = self._series.get(self._key(labels))
            return float(state["sum"]) if state is not None else 0.0

    def bucket_counts(self, **labels) -> Dict[str, int]:
        """Cumulative ``le -> count`` map (as rendered to Prometheus)."""
        with self._lock:
            state = self._series.get(self._key(labels))
            raw = (
                list(state["counts"]) if state is not None
                else [0] * (len(self.buckets) + 1)
            )
        result: Dict[str, int] = {}
        running = 0
        for bound, n in zip(self.buckets, raw):
            running += n
            result[_format_value(bound)] = running
        result["+Inf"] = running + raw[-1]
        return result


class MetricsRegistry:
    """A named set of instruments sharing one lock and one budget.

    Instruments are created idempotently: asking for an existing name
    returns the existing instrument (so modules can declare their
    metrics at use sites without coordinating), but re-declaring a name
    with a different type or label set raises -- that is always a bug.
    """

    enabled = True

    def __init__(self, *, max_series_per_metric: int = 64) -> None:
        if max_series_per_metric < 1:
            raise ValueError("max_series_per_metric must be >= 1")
        self.max_series_per_metric = max_series_per_metric
        self._lock = threading.RLock()
        self._metrics: Dict[str, _Instrument] = {}
        self._overflowed = 0
        # Event name -> [(derivation, its instrument)], resolved once.
        self._feeds: Dict[str, List[tuple]] = {}

    # ------------------------------------------------------------------
    # instrument registration
    # ------------------------------------------------------------------
    def _register(self, cls, name, help, labelnames, **kwargs):  # noqa: A002
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls) or (
                    existing.labelnames != tuple(labelnames)
                ):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind} with labels {existing.labelnames}"
                    )
                return existing
            instrument = cls(self, name, help, labelnames, **kwargs)
            self._metrics[name] = instrument
            return instrument

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Counter:  # noqa: A002
        return self._register(Counter, name, help, labelnames)

    def gauge(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Gauge:  # noqa: A002
        return self._register(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",  # noqa: A002
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        return self._register(
            Histogram, name, help, labelnames, buckets=buckets
        )

    def record(self, event) -> None:
        """Feed one event through :data:`DERIVATIONS`; an instrument is
        registered (and so rendered) from its first event on."""
        rows = DERIVATIONS.get(event.name)
        if rows is None:
            return
        feeds = self._feeds.get(event.name)
        if feeds is None:
            feeds = self._feeds[event.name] = [
                (row, getattr(self, row.kind)(row.metric, row.help, row.labels))
                for row in rows
            ]
        for row, instrument in feeds:
            value = row.value(event)
            if value is None or (not value and row.kind == "counter"):
                continue
            key = tuple([str(event.attrs.get(n, "")) for n in row.labels])
            with self._lock:
                instrument._apply(
                    instrument._state(instrument._capped(key)), value
                )

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    @property
    def overflowed_series(self) -> int:
        """Observations redirected to ``"_other_"`` by the cardinality cap."""
        with self._lock:
            return self._overflowed

    def render_prometheus(self) -> str:
        """The text exposition format (``GET /metrics``).

        Deterministic: metrics render in registration order, series in
        sorted label order, so a fixed workload under a fixed clock
        produces byte-identical output (golden-tested).
        """
        lines: List[str] = []
        with self._lock:
            metrics = list(self._metrics.values())
            for metric in metrics:
                base = prometheus_name(metric.name)
                if metric.kind == "counter":
                    base += "_total"
                if metric.help:
                    lines.append(f"# HELP {base} {metric.help}")
                lines.append(f"# TYPE {base} {metric.kind}")
                for key in sorted(metric._series):
                    labels = _format_labels(metric.labelnames, key)
                    state = metric._series[key]
                    if isinstance(metric, Histogram):
                        lines.extend(
                            self._render_histogram_series(
                                metric, base, key, state
                            )
                        )
                    elif isinstance(metric, Gauge):
                        value = Gauge._read(state)  # type: ignore[arg-type]
                        lines.append(
                            f"{base}{labels} {_format_value(value)}"
                        )
                    else:
                        lines.append(
                            f"{base}{labels} "
                            f"{_format_value(state[0])}"  # type: ignore[index]
                        )
        return "\n".join(lines) + ("\n" if lines else "")

    @staticmethod
    def _render_histogram_series(
        metric: Histogram, base: str, key: _LabelKey, state
    ) -> List[str]:
        lines: List[str] = []
        running = 0
        bounds = [*metric.buckets, float("inf")]
        for bound, n in zip(bounds, state["counts"]):
            running += n
            le = _format_value(bound)
            label_parts = [
                f'{name}="{_escape_label_value(value)}"'
                for name, value in zip(metric.labelnames, key)
            ]
            label_parts.append(f'le="{le}"')
            lines.append(
                f"{base}_bucket{{{','.join(label_parts)}}} {running}"
            )
        labels = _format_labels(metric.labelnames, key)
        lines.append(f"{base}_sum{labels} {_format_value(state['sum'])}")
        lines.append(f"{base}_count{labels} {state['count']}")
        return lines

    def snapshot(self) -> Dict[str, object]:
        """JSON-serializable view of every series (``GET /stats``)."""
        out: Dict[str, object] = {}
        with self._lock:
            for name, metric in self._metrics.items():
                series = []
                for key in sorted(metric._series):
                    labels = dict(zip(metric.labelnames, key))
                    state = metric._series[key]
                    if isinstance(metric, Histogram):
                        series.append({
                            "labels": labels,
                            "count": state["count"],
                            "sum": state["sum"],
                        })
                    elif isinstance(metric, Gauge):
                        series.append({
                            "labels": labels,
                            "value": Gauge._read(state),
                        })
                    else:
                        series.append({
                            "labels": labels,
                            "value": state[0],  # type: ignore[index]
                        })
                out[name] = {"type": metric.kind, "series": series}
        return out


class _NullInstrument:
    """Accepts every instrument method as a no-op."""

    def inc(self, value: float = 1, **labels) -> None:
        return None

    def dec(self, value: float = 1, **labels) -> None:
        return None

    def set(self, value: float, **labels) -> None:
        return None

    def set_function(self, fn, **labels) -> None:
        return None

    def observe(self, value: float, **labels) -> None:
        return None

    def value(self, **labels) -> float:
        return 0.0

    def count(self, **labels) -> int:
        return 0

    def sum(self, **labels) -> float:
        return 0.0

    def bucket_counts(self, **labels) -> Dict[str, int]:
        return {}


_NULL_INSTRUMENT = _NullInstrument()


class NullMetricsRegistry(MetricsRegistry):
    """Registry that records nothing (the overhead baseline)."""

    enabled = False

    def counter(self, name, help="", labelnames=()):  # noqa: A002
        return _NULL_INSTRUMENT  # type: ignore[return-value]

    def gauge(self, name, help="", labelnames=()):  # noqa: A002
        return _NULL_INSTRUMENT  # type: ignore[return-value]

    def histogram(
        self, name, help="", labelnames=(), buckets=DEFAULT_LATENCY_BUCKETS
    ):  # noqa: A002
        return _NULL_INSTRUMENT  # type: ignore[return-value]

    def record(self, event) -> None:
        return None

    def render_prometheus(self) -> str:
        return ""

    def snapshot(self) -> Dict[str, object]:
        return {}


#: Shared no-op registry, for callers that want metrics off entirely.
NULL_METRICS = NullMetricsRegistry()

#: The process-wide default registry.  The default recorder (and any
#: recorder built without ``metrics=``) feeds it, which is what makes
#: ``GET /metrics`` observe the whole stack.
REGISTRY = MetricsRegistry()


def as_metrics(metrics: Optional[MetricsRegistry]) -> MetricsRegistry:
    """``metrics`` itself, or the process-wide default for ``None``."""
    return REGISTRY if metrics is None else metrics


# ----------------------------------------------------------------------
# the derivation table: every counter, histogram and progress gauge is
# computed from schema-v1 events
# ----------------------------------------------------------------------
class Derivation(NamedTuple):
    """One metric fed by an event: ``value`` reads the amount off the
    event (``None`` skips it); labels are read from its attributes."""

    kind: str  # "counter", "histogram" or "gauge"
    metric: str
    help: str
    labels: Tuple[str, ...] = ()
    value: Callable[[object], Optional[float]] = attrgetter("value")


#: Event name -> the metrics its events feed.  This is the only place a
#: counter, histogram or progress gauge is written; emitters record
#: events on their recorder, which hands each one to
#: :meth:`MetricsRegistry.record`.
DERIVATIONS: Dict[str, Tuple[Derivation, ...]] = {
    "cache.hit": (Derivation(
        "counter", "cache.hit", "Content-addressed result-cache hits."),),
    "cache.miss": (Derivation(
        "counter", "cache.miss", "Content-addressed result-cache misses."),),
    "queue.rejected": (Derivation(
        "counter", "queue.rejected",
        "Submissions shed by queue admission control."),),
    "queue.deduped": (Derivation(
        "counter", "queue.deduped",
        "Submissions merged into an in-flight job."),),
    "worker.crashed": (Derivation(
        "counter", "service.workers.crashed",
        "Worker processes that died mid-job (slot respawned)."),),
    "job.settled": (Derivation(
        "counter", "service.jobs", "Jobs settled, by terminal state.",
        ("state",)),),
    "service.worker.error": (Derivation(
        "counter", "service.worker.errors",
        "Jobs settled by the worker loop's last-resort isolation "
        "(an exception escaped normal job execution)."),),
    "service.job": (Derivation(
        "histogram", "service.job.seconds",
        "End-to-end job execution latency, per method and cache outcome.",
        ("method", "cache"), attrgetter("duration")),),
    "solve": (Derivation(
        "histogram", "solve.seconds",
        "Engine latency of construct_tree, per method.",
        ("method",), attrgetter("duration")),),
    "ingest.stage": (Derivation(
        "histogram", "ingest.stage.seconds",
        "Ingestion stage latency, per stage.", ("stage",),
        attrgetter("duration")),),
    "ingest.run": (Derivation(
        "counter", "ingest.runs", "Completed ingestion pipeline runs."),),
    "ingest.failure": (Derivation(
        "counter", "ingest.failures",
        "Ingestion pipeline runs that failed QC."),),
    "verify.oracle": (Derivation(
        "counter", "verify.violations",
        "Oracle violations found by result verification.",
        ("oracle",), lambda event: event.attrs.get("violations")),),
    # One span per settled case, so each one counts 1.
    "campaign.case": (Derivation(
        "counter", "campaign.cases",
        "Campaign cases settled, by terminal state.",
        ("state",), lambda event: 1),),
    "bnb.progress": (
        Derivation(
            "gauge", "bnb.gap",
            "Relative incumbent/lower-bound gap of the current "
            "branch-and-bound search",
            value=lambda event: event.attrs.get("gap")),
        Derivation(
            "gauge", "bnb.nodes_per_second",
            "Node-expansion rate of the current branch-and-bound search",
            value=lambda event: event.attrs.get("nodes_per_second")),
    ),
}

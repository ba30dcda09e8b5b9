"""Unit tests for the live metrics registry (`repro.obs.metrics`)."""

import threading
from pathlib import Path

import pytest

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    DERIVATIONS,
    NULL_METRICS,
    OVERFLOW_LABEL,
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetricsRegistry,
    as_metrics,
    prometheus_name,
)
from repro.obs.recorder import NullRecorder, Recorder


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestCounter:
    def test_starts_at_zero_and_accumulates(self, registry):
        c = registry.counter("cache.miss", "misses")
        assert c.value() == 0.0
        c.inc()
        c.inc(2.5)
        assert c.value() == 3.5

    def test_negative_increment_rejected(self, registry):
        c = registry.counter("cache.miss")
        with pytest.raises(ValueError, match="only go up"):
            c.inc(-1)

    def test_labelled_series_are_independent(self, registry):
        c = registry.counter("jobs", labelnames=("state",))
        c.inc(state="done")
        c.inc(state="done")
        c.inc(state="failed")
        assert c.value(state="done") == 2
        assert c.value(state="failed") == 1
        assert c.value(state="cancelled") == 0

    def test_wrong_label_set_rejected(self, registry):
        c = registry.counter("jobs", labelnames=("state",))
        with pytest.raises(ValueError, match="takes labels"):
            c.inc(status="done")
        with pytest.raises(ValueError, match="takes labels"):
            c.inc()  # missing the label entirely


class TestGauge:
    def test_set_inc_dec(self, registry):
        g = registry.gauge("queue.depth")
        g.set(10)
        g.inc(5)
        g.dec(2)
        assert g.value() == 13

    def test_set_function_evaluates_at_read_time(self, registry):
        items = []
        g = registry.gauge("inflight")
        g.set_function(lambda: len(items))
        assert g.value() == 0
        items.extend([1, 2, 3])
        assert g.value() == 3  # never stale

    def test_set_function_exception_reads_as_zero(self, registry):
        g = registry.gauge("broken")
        g.set_function(lambda: 1 / 0)
        assert g.value() == 0.0

    def test_set_clears_callback(self, registry):
        g = registry.gauge("depth")
        g.set_function(lambda: 99)
        g.set(7)
        assert g.value() == 7


class TestHistogramBuckets:
    def test_boundary_is_le_inclusive(self, registry):
        h = registry.histogram("lat", buckets=(0.01, 0.1, 1.0))
        h.observe(0.01)  # exactly on a bound -> that bucket, not the next
        counts = h.bucket_counts()
        assert counts["0.01"] == 1
        assert counts["0.1"] == 1  # cumulative
        assert counts["+Inf"] == 1

    def test_counts_are_cumulative(self, registry):
        h = registry.histogram("lat", buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 1.5, 3.0, 100.0):
            h.observe(v)
        assert h.bucket_counts() == {
            "1": 1, "2": 3, "4": 4, "+Inf": 5,
        }
        assert h.count() == 5
        assert h.sum() == pytest.approx(106.5)

    def test_value_above_every_bound_lands_in_inf(self, registry):
        h = registry.histogram("lat", buckets=(0.001,))
        h.observe(5.0)
        assert h.bucket_counts() == {"0.001": 0, "+Inf": 1}

    def test_default_buckets_cover_latency_range(self, registry):
        h = registry.histogram("lat")
        assert h.buckets == DEFAULT_LATENCY_BUCKETS
        assert h.buckets[0] == 0.001 and h.buckets[-1] == 30.0

    def test_unsorted_buckets_rejected(self, registry):
        with pytest.raises(ValueError, match="strictly increase"):
            registry.histogram("bad", buckets=(1.0, 0.5))
        with pytest.raises(ValueError, match="strictly increase"):
            registry.histogram("dup", buckets=(1.0, 1.0))
        with pytest.raises(ValueError, match="at least one"):
            registry.histogram("empty", buckets=())

    def test_labelled_histograms(self, registry):
        h = registry.histogram("lat", buckets=(1.0,), labelnames=("m",))
        h.observe(0.5, m="a")
        h.observe(2.0, m="b")
        assert h.count(m="a") == 1
        assert h.count(m="b") == 1
        assert h.bucket_counts(m="a") == {"1": 1, "+Inf": 1}
        assert h.bucket_counts(m="b") == {"1": 0, "+Inf": 1}


class TestRegistry:
    def test_registration_is_idempotent(self, registry):
        a = registry.counter("hits", "help text")
        b = registry.counter("hits")
        assert a is b

    def test_kind_mismatch_raises(self, registry):
        registry.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("x")

    def test_label_mismatch_raises(self, registry):
        registry.counter("x", labelnames=("a",))
        with pytest.raises(ValueError, match="already registered"):
            registry.counter("x", labelnames=("b",))

    def test_cardinality_cap_redirects_to_overflow(self):
        registry = MetricsRegistry(max_series_per_metric=2)
        c = registry.counter("c", labelnames=("k",))
        c.inc(k="a")
        c.inc(k="b")
        c.inc(k="c")  # third distinct combination -> overflow series
        c.inc(k="d")
        assert c.value(k="a") == 1
        assert c.value(k=OVERFLOW_LABEL) == 2
        assert registry.overflowed_series == 2
        # Bounded: the cap's series plus the single overflow series.
        assert len(c._series) == 3
        c.inc(k="e")
        assert len(c._series) == 3  # further novelty stays in overflow

    def test_cap_validated(self):
        with pytest.raises(ValueError):
            MetricsRegistry(max_series_per_metric=0)

    def test_snapshot_shape(self, registry):
        registry.counter("hits").inc(3)
        registry.gauge("depth").set(2)
        registry.histogram("lat", buckets=(1.0,)).observe(0.5)
        snap = registry.snapshot()
        assert snap["hits"] == {
            "type": "counter", "series": [{"labels": {}, "value": 3.0}],
        }
        assert snap["depth"]["series"][0]["value"] == 2.0
        assert snap["lat"]["series"][0] == {
            "labels": {}, "count": 1, "sum": 0.5,
        }

    def test_thread_safety_under_contention(self, registry):
        c = registry.counter("n", labelnames=("t",))
        h = registry.histogram("lat", buckets=(0.5,))

        def hammer(tag):
            for _ in range(500):
                c.inc(t=tag)
                h.observe(0.1)

        threads = [
            threading.Thread(target=hammer, args=(str(i),)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sum(c.value(t=str(i)) for i in range(4)) == 2000
        assert h.count() == 2000


class TestPrometheusRendering:
    def test_golden_exposition(self):
        """Byte-exact golden: fixed workload -> fixed text."""
        registry = MetricsRegistry()
        jobs = registry.counter(
            "service.jobs", "Jobs by terminal state.", labelnames=("state",)
        )
        jobs.inc(state="completed")
        jobs.inc(2, state="failed")
        depth = registry.gauge("service.queue.depth", "Queued jobs.")
        depth.set(3)
        lat = registry.histogram(
            "service.job.seconds",
            "Job latency.",
            labelnames=("method",),
            buckets=(0.01, 0.1),
        )
        lat.observe(0.005, method="compact")
        lat.observe(0.05, method="compact")
        lat.observe(7.0, method="compact")
        expected = (
            "# HELP service_jobs_total Jobs by terminal state.\n"
            "# TYPE service_jobs_total counter\n"
            'service_jobs_total{state="completed"} 1\n'
            'service_jobs_total{state="failed"} 2\n'
            "# HELP service_queue_depth Queued jobs.\n"
            "# TYPE service_queue_depth gauge\n"
            "service_queue_depth 3\n"
            "# HELP service_job_seconds Job latency.\n"
            "# TYPE service_job_seconds histogram\n"
            'service_job_seconds_bucket{method="compact",le="0.01"} 1\n'
            'service_job_seconds_bucket{method="compact",le="0.1"} 2\n'
            'service_job_seconds_bucket{method="compact",le="+Inf"} 3\n'
            'service_job_seconds_sum{method="compact"} 7.055\n'
            'service_job_seconds_count{method="compact"} 3\n'
        )
        assert registry.render_prometheus() == expected

    def test_rendering_is_deterministic_across_insert_order(self):
        registry = MetricsRegistry()
        c = registry.counter("c", labelnames=("k",))
        c.inc(k="z")
        c.inc(k="a")
        text = registry.render_prometheus()
        assert text.index('k="a"') < text.index('k="z"')  # sorted series

    def test_label_values_escaped(self, registry):
        c = registry.counter("c", labelnames=("k",))
        c.inc(k='he said "hi"\nback\\slash')
        text = registry.render_prometheus()
        assert r'k="he said \"hi\"\nback\\slash"' in text

    def test_empty_registry_renders_empty(self, registry):
        assert registry.render_prometheus() == ""

    def test_name_mangling(self):
        assert prometheus_name("service.job.seconds") == "service_job_seconds"
        assert prometheus_name("a-b.c") == "a_b_c"


class TestNullRegistry:
    def test_null_accepts_everything_and_records_nothing(self):
        c = NULL_METRICS.counter("x")
        c.inc(5)
        g = NULL_METRICS.gauge("y")
        g.set(1)
        g.set_function(lambda: 9)
        h = NULL_METRICS.histogram("z")
        h.observe(0.5)
        assert c.value() == 0.0
        assert g.value() == 0.0
        assert h.count() == 0
        assert h.bucket_counts() == {}
        assert NULL_METRICS.render_prometheus() == ""
        assert NULL_METRICS.snapshot() == {}
        assert NULL_METRICS.enabled is False

    def test_as_metrics(self):
        assert as_metrics(None) is REGISTRY
        own = MetricsRegistry()
        assert as_metrics(own) is own
        assert as_metrics(NULL_METRICS) is NULL_METRICS
        assert isinstance(NULL_METRICS, NullMetricsRegistry)


class TestInstrumentKinds:
    def test_kinds(self, registry):
        assert isinstance(registry.counter("a"), Counter)
        assert isinstance(registry.gauge("b"), Gauge)
        assert isinstance(registry.histogram("c"), Histogram)


#: One emission per derivation-table row, in the shape its emitter uses:
#: (kind, attrs).  A new row without a sample fails the table test.
SAMPLE_EVENTS = {
    "cache.hit": ("counter", {"key": "0123456789ab"}),
    "cache.miss": ("counter", {"key": "0123456789ab"}),
    "queue.rejected": ("counter", {"key": "0123456789ab"}),
    "queue.deduped": ("counter", {"key": "0123456789ab"}),
    "worker.crashed": ("counter", {"worker": 0}),
    "job.settled": ("counter", {"state": "completed"}),
    "service.worker.error": ("counter", {}),
    "service.job": ("span", {"job": "job-1", "method": "compact",
                             "cache": "miss", "backend": "thread"}),
    "solve": ("span", {"method": "bnb"}),
    "ingest.stage": ("span", {"stage": "qc", "index": 1}),
    "ingest.run": ("counter", {}),
    "ingest.failure": ("counter", {}),
    "verify.oracle": ("span", {"oracle": "cost", "method": "bnb",
                               "violations": 2}),
    "campaign.case": ("span", {"case": "c1", "state": "done"}),
    "bnb.progress": ("counter", {"gap": 0.25, "nodes_per_second": 900.0,
                                 "final": False}),
}


def _ticking_clock():
    ticks = iter(range(10_000))
    return lambda: 0.5 * next(ticks)


def _emit(rec, name):
    kind, attrs = SAMPLE_EVENTS[name]
    if kind == "span":
        with rec.span(name, **attrs):
            pass
    else:
        rec.counter(name, **attrs)


class TestDerivationTable:
    """Every counter, histogram and progress gauge comes from events."""

    @pytest.mark.parametrize("name", sorted(DERIVATIONS))
    def test_trace_on_and_off_derive_the_same_metrics(self, name):
        traced, untraced = MetricsRegistry(), MetricsRegistry()
        _emit(Recorder(_ticking_clock(), metrics=traced), name)
        _emit(NullRecorder(_ticking_clock(), metrics=untraced), name)
        snapshot = traced.snapshot()
        assert snapshot == untraced.snapshot()
        for row in DERIVATIONS[name]:
            assert snapshot[row.metric]["series"], row.metric

    def test_rows_keep_their_exposition_names_and_labels(self):
        registry = MetricsRegistry()
        rec = NullRecorder(_ticking_clock(), metrics=registry)
        for name in ("service.job", "job.settled", "cache.hit"):
            _emit(rec, name)
        text = registry.render_prometheus()
        assert (
            "# HELP service_job_seconds End-to-end job execution latency, "
            "per method and cache outcome.\n"
        ) in text
        assert 'service_job_seconds_count{method="compact",cache="miss"} 1' \
            in text
        assert 'service_jobs_total{state="completed"} 1' in text
        assert "cache_hit_total 1" in text

    def test_untraced_names_build_nothing(self):
        rec = NullRecorder(metrics=MetricsRegistry())
        assert rec.span("bnb.solve") is rec._null_context
        assert rec.span("solve", method="bnb") is not rec._null_context
        off = NullRecorder(metrics=NULL_METRICS)
        assert off.span("solve", method="bnb") is off._null_context

    def test_zero_violations_register_no_series(self):
        registry = MetricsRegistry()
        with NullRecorder(metrics=registry).span(
            "verify.oracle", oracle="cost", violations=0
        ):
            pass
        assert registry.snapshot()["verify.violations"]["series"] == []

    def test_every_derived_metric_is_documented(self):
        doc = (
            Path(__file__).resolve().parents[2] / "docs" / "observability.md"
        ).read_text()
        for rows in DERIVATIONS.values():
            for row in rows:
                assert f"`{row.metric}`" in doc, row.metric


class TestShippedEvents:
    """Cross-process metrics: a worker's serialized events, ingested by
    the parent's recorder, feed the parent's registry."""

    def _shipped(self):
        child = Recorder(_ticking_clock(), metrics=NULL_METRICS)
        for name in ("solve", "cache.miss", "verify.oracle"):
            _emit(child, name)
        with child.span("bnb.solve"):
            child.counter("bnb.nodes_expanded", 42)
        return [event.to_json() for event in child.events]

    def test_child_events_feed_parent_registry(self):
        parent = MetricsRegistry()
        NullRecorder(metrics=parent).ingest(self._shipped(), offset=5.0)
        snap = parent.snapshot()
        assert snap["solve.seconds"]["series"][0]["count"] == 1
        assert snap["cache.miss"]["series"][0]["value"] == 1.0
        assert snap["verify.violations"]["series"] == [
            {"labels": {"oracle": "cost"}, "value": 2.0},
        ]

    def test_shipped_events_survive_pickling(self):
        import pickle

        events = pickle.loads(pickle.dumps(self._shipped()))
        parent = MetricsRegistry()
        assert NullRecorder(metrics=parent).ingest(events) == 3
        assert "solve.seconds" in parent.snapshot()

    def test_ingest_accumulates_with_existing_series(self):
        parent = MetricsRegistry()
        rec = Recorder(metrics=parent)
        rec.counter("cache.miss")
        rec.ingest(self._shipped())
        assert parent.snapshot()["cache.miss"]["series"][0]["value"] == 2.0
        assert len(rec.spans("bnb.solve")) == 1  # the trace keeps all

    def test_events_outside_the_table_feed_nothing(self):
        parent = MetricsRegistry()
        shipped = [e for e in self._shipped() if e["name"] == "bnb.solve"]
        assert NullRecorder(metrics=parent).ingest(shipped) == 0
        assert parent.snapshot() == {}

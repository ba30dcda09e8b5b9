"""The cache-aware construction entry point (``construct_tree_cached``)."""

from repro.core.api import construct_tree, construct_tree_cached
from repro.obs import Recorder
from repro.service.cache import ResultCache
from repro.tree.newick import to_newick


class TestConstructTreeCached:
    def test_miss_then_hit(self, square5):
        cache = ResultCache()
        rec = Recorder()
        first = construct_tree_cached(
            square5, "compact", cache=cache, recorder=rec
        )
        second = construct_tree_cached(
            square5, "compact", cache=cache, recorder=rec
        )
        assert to_newick(first.tree) == to_newick(second.tree)
        assert first.cost == second.cost
        assert rec.counter_total("cache.miss") == 1
        assert rec.counter_total("cache.hit") == 1
        # The hit's details is the cached payload, not an engine result.
        assert second.details["newick"] == to_newick(first.tree)

    def test_matches_uncached_result(self, square5):
        plain = construct_tree(square5, "upgmm")
        cached = construct_tree_cached(square5, "upgmm", cache=ResultCache())
        assert cached.cost == plain.cost
        assert to_newick(cached.tree) == to_newick(plain.tree)

    def test_hit_survives_cache_restart_via_disk(self, square5, tmp_path):
        first = construct_tree_cached(
            square5, "upgmm", cache=ResultCache(directory=tmp_path)
        )
        rec = Recorder()
        second = construct_tree_cached(
            square5, "upgmm",
            cache=ResultCache(directory=tmp_path), recorder=rec,
        )
        assert rec.counter_total("cache.hit") == 1
        assert to_newick(second.tree) == to_newick(first.tree)

    def test_nj_bypasses_cache(self, square5):
        cache = ResultCache()
        rec = Recorder()
        result = construct_tree_cached(
            square5, "nj", cache=cache, recorder=rec
        )
        assert result.method == "nj"
        assert len(cache) == 0
        assert rec.counter_total("cache.miss") == 0

    def test_options_partition_the_cache(self, square5):
        cache = ResultCache()
        construct_tree_cached(
            square5, "compact", cache=cache, reduction="maximum"
        )
        construct_tree_cached(
            square5, "compact", cache=cache, reduction="minimum"
        )
        assert len(cache) == 2

    def test_metrics_counters_track_hits_and_misses(self, square5):
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.recorder import NullRecorder

        registry = MetricsRegistry()
        rec = NullRecorder(metrics=registry)
        cache = ResultCache()
        construct_tree_cached(square5, "compact", cache=cache, recorder=rec)
        construct_tree_cached(square5, "compact", cache=cache, recorder=rec)
        assert registry.counter("cache.miss").value() == 1
        assert registry.counter("cache.hit").value() == 1
        # The miss also timed the underlying solve.
        hist = registry.histogram("solve.seconds", labelnames=("method",))
        assert hist.count(method="compact") == 1

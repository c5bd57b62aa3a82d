"""Cache correctness for the EvaluationContext layer.

The contracts under test:

* cached and cache-disabled evaluation produce bit-identical flows, for
  both strategies, with caches cold and hot;
* a fresh context with different parameters (a new ``v_max``) never serves
  regions computed under the old parameters;
* monitors over a caching engine return exactly the same updates as over a
  cache-disabled engine;
* warm sliding-interval ticks compute strictly fewer regions than cold
  ones (the sliding window only rebuilds boundary episodes).
"""

from __future__ import annotations

import pytest

from repro.core import EvaluationContext, LruCache
from repro.core.caching import RowCache
from repro.core.monitor import SlidingIntervalTopKMonitor, SnapshotTopKMonitor

COUNTER_KEYS = (
    "regions_computed",
    "region_cache_hits",
    "presence_evaluations",
    "presence_cache_hits",
    "topology_prunes",
)


@pytest.fixture()
def cached_engine(synthetic_dataset):
    return synthetic_dataset.engine()


@pytest.fixture()
def uncached_engine(synthetic_dataset):
    return synthetic_dataset.engine(region_cache_size=0, presence_cache_size=0)


class TestLruCache:
    def test_eviction_order(self):
        cache = LruCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refreshes "a"
        cache.put("c", 3)  # evicts "b", the LRU entry
        assert "b" not in cache
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert len(cache) == 2

    def test_zero_capacity_disables_storage(self):
        cache = LruCache(0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert len(cache) == 0
        assert not cache.enabled

    def test_get_or_build_reports_hits(self):
        cache = LruCache(4)
        value, hit = cache.get_or_build("k", lambda: 41)
        assert (value, hit) == (41, False)
        value, hit = cache.get_or_build("k", lambda: 42)
        assert (value, hit) == (41, True)


class TestRowCache:
    def test_counts_values_and_evicts_whole_rows(self):
        cache = RowCache(3)
        cache.put("a", "p", 0.1)
        cache.put("a", "q", 0.2)
        cache.put("b", "p", 0.3)
        assert len(cache) == 3
        assert cache.row("a") == {"p": 0.1, "q": 0.2}  # refreshes "a"
        cache.put("c", "p", 0.4)  # over capacity: evicts row "b"
        assert cache.row("b") is None
        assert len(cache) == 3
        cache.put("c", "q", 0.5)  # evicts row "a" (two values)
        assert cache.row("a") is None
        assert len(cache) == 2

    def test_handed_out_row_sees_later_values(self):
        cache = RowCache(8)
        cache.put("a", "p", 0.1)
        row = cache.row("a")
        cache.put("a", "q", 0.2)
        assert row == {"p": 0.1, "q": 0.2}

    def test_zero_capacity_disables_storage(self):
        cache = RowCache(0)
        cache.put("a", "p", 0.1)
        assert cache.row("a") is None
        assert len(cache) == 0


class TestFlowEquivalence:
    def test_snapshot_flows_bit_identical_cold_and_hot(
        self, synthetic_dataset, cached_engine, uncached_engine
    ):
        t = synthetic_dataset.mid_time()
        reference = uncached_engine.snapshot_flows(t)
        cold = cached_engine.snapshot_flows(t)
        hot = cached_engine.snapshot_flows(t)
        assert cold == reference  # bit-identical, no tolerance
        assert hot == reference
        stats = cached_engine.stats()
        assert stats["region_cache_hits"] > 0
        assert stats["presence_cache_hits"] > 0

    def test_interval_flows_bit_identical_cold_and_hot(
        self, synthetic_dataset, cached_engine, uncached_engine
    ):
        start, end = synthetic_dataset.window(4)
        reference = uncached_engine.interval_flows(start, end)
        assert cached_engine.interval_flows(start, end) == reference
        assert cached_engine.interval_flows(start, end) == reference

    def test_join_and_iterative_agree_with_hot_caches(
        self, synthetic_dataset, cached_engine
    ):
        t = synthetic_dataset.mid_time()
        start, end = synthetic_dataset.window(4)
        for _ in range(2):  # second pass runs entirely against warm caches
            snap_iter = cached_engine.snapshot_topk(t, 5, method="iterative")
            snap_join = cached_engine.snapshot_topk(t, 5, method="join")
            assert sorted(snap_iter.flows, reverse=True) == pytest.approx(
                sorted(snap_join.flows, reverse=True), abs=1e-6
            )
            iv_iter = cached_engine.interval_topk(start, end, 5, method="iterative")
            iv_join = cached_engine.interval_topk(start, end, 5, method="join")
            assert sorted(iv_iter.flows, reverse=True) == pytest.approx(
                sorted(iv_join.flows, reverse=True), abs=1e-6
            )

    def test_presence_cache_shared_between_methods(
        self, synthetic_dataset, cached_engine
    ):
        """Iterative warms the caches; the join must reuse, not recompute."""
        t = synthetic_dataset.mid_time()
        cached_engine.snapshot_flows(t)
        cached_engine.reset_stats()
        cached_engine.snapshot_topk(t, 5, method="join")
        stats = cached_engine.stats()
        assert stats["regions_computed"] == 0
        assert stats["presence_evaluations"] == 0


class TestParameterIsolation:
    def test_new_v_max_is_never_served_stale_regions(self, synthetic_dataset):
        t = synthetic_dataset.mid_time()
        slow = synthetic_dataset.engine(v_max=0.6)
        slow.snapshot_flows(t)  # warm slow-engine caches
        fast = synthetic_dataset.engine(v_max=2.4)
        fast_flows = fast.snapshot_flows(t)
        reference = synthetic_dataset.engine(
            v_max=2.4, region_cache_size=0, presence_cache_size=0
        ).snapshot_flows(t)
        assert fast_flows == reference

    def test_params_epoch_differs_across_parameterisations(
        self, synthetic_dataset
    ):
        a = synthetic_dataset.engine(v_max=0.6).ctx
        b = synthetic_dataset.engine(v_max=2.4).ctx
        assert a.params_epoch != b.params_epoch

    def test_context_replace_starts_cold(self, synthetic_dataset, cached_engine):
        t = synthetic_dataset.mid_time()
        cached_engine.snapshot_flows(t)
        replaced = cached_engine.ctx.replace(v_max=cached_engine.v_max * 2)
        assert replaced.stats_dict()["region_cache_entries"] == 0
        assert replaced.v_max == cached_engine.v_max * 2


class TestMonitorEquivalence:
    def ticks(self, dataset, count=4):
        start, end = dataset.time_span()
        span = end - start
        return [start + (i + 1) / (count + 1) * span for i in range(count)]

    @staticmethod
    def assert_same_updates(updates_a, updates_b):
        assert len(updates_a) == len(updates_b)
        for a, b in zip(updates_a, updates_b):
            assert a.t == b.t
            assert a.result.poi_ids == b.result.poi_ids
            assert a.result.flows == b.result.flows
            assert a.entered == b.entered
            assert a.exited == b.exited
            assert a.rank_changes == b.rank_changes

    def test_snapshot_monitor_matches_uncached(
        self, synthetic_dataset, cached_engine, uncached_engine
    ):
        times = self.ticks(synthetic_dataset)
        cached = SnapshotTopKMonitor(cached_engine, k=5).run(times)
        uncached = SnapshotTopKMonitor(uncached_engine, k=5).run(times)
        self.assert_same_updates(cached, uncached)

    def test_sliding_monitor_matches_uncached(
        self, synthetic_dataset, cached_engine, uncached_engine
    ):
        times = self.ticks(synthetic_dataset)
        cached = SlidingIntervalTopKMonitor(
            cached_engine, k=5, window_seconds=120.0
        ).run(times)
        uncached = SlidingIntervalTopKMonitor(
            uncached_engine, k=5, window_seconds=120.0
        ).run(times)
        self.assert_same_updates(cached, uncached)


class TestWarmTicksComputeFewerRegions:
    def test_sliding_ticks_reuse_interior_episodes(
        self, synthetic_dataset, cached_engine
    ):
        """Acceptance criterion: a warm sliding-interval tick computes
        strictly fewer regions than the cold tick over a nearby window —
        only the episodes cut by a window boundary are rebuilt."""
        monitor = SlidingIntervalTopKMonitor(
            cached_engine, k=5, window_seconds=240.0, method="iterative"
        )
        t = synthetic_dataset.mid_time()
        cached_engine.reset_stats()
        monitor.advance(t)
        cold = cached_engine.stats()
        assert cold["regions_computed"] > 0
        for step in (5.0, 10.0, 15.0):
            cached_engine.reset_stats()
            monitor.advance(t + step)
            warm = cached_engine.stats()
            assert warm["regions_computed"] < cold["regions_computed"]
            assert warm["region_cache_hits"] > 0

    def test_repeated_snapshot_tick_computes_no_regions(
        self, synthetic_dataset, cached_engine
    ):
        monitor = SnapshotTopKMonitor(cached_engine, k=5)
        t = synthetic_dataset.mid_time()
        monitor.advance(t)
        cached_engine.reset_stats()
        monitor.advance(t)
        stats = monitor.stats()
        assert stats["regions_computed"] == 0
        assert stats["presence_evaluations"] == 0


class TestIntrospectionLookup:
    def test_entries_for_matches_full_scan(self, synthetic_engine):
        artree = synthetic_engine.artree
        for object_id in synthetic_engine.ott.object_ids[:5]:
            entries = artree.entries_for(object_id)
            assert entries  # every tracked object has leaf entries
            assert all(e.object_id == object_id for e in entries)
            assert list(entries) == sorted(entries, key=lambda e: (e.t1, e.t2))
        assert artree.entries_for("no-such-object") == ()

    def test_region_of_agrees_with_uncached_engine(
        self, synthetic_dataset, cached_engine, uncached_engine
    ):
        t = synthetic_dataset.mid_time()
        start, end = synthetic_dataset.window(3)
        for object_id in synthetic_dataset.ott.object_ids[:5]:
            cached_region = cached_engine.snapshot_region_of(object_id, t)
            uncached_region = uncached_engine.snapshot_region_of(object_id, t)
            assert (cached_region is None) == (uncached_region is None)
            cached_iv = cached_engine.interval_region_of(object_id, start, end)
            uncached_iv = uncached_engine.interval_region_of(object_id, start, end)
            assert (cached_iv is None) == (uncached_iv is None)
            if cached_iv is not None:
                assert [e.kind for e in cached_iv.episodes] == [
                    e.kind for e in uncached_iv.episodes
                ]


class TestEstimatorSampleCacheBound:
    def test_lru_bound_respected(self, synthetic_dataset):
        from repro.core.presence import PresenceEstimator

        estimator = PresenceEstimator(resolution=8, max_cached_pois=2)
        pois = synthetic_dataset.pois[:3]
        for poi in pois:
            estimator.samples_of(poi)
        assert estimator.sample_cache_size == 2

    def test_eviction_does_not_change_presence(self, synthetic_dataset):
        from repro.core.presence import PresenceEstimator

        bounded = PresenceEstimator(resolution=16, max_cached_pois=1)
        unbounded = PresenceEstimator(resolution=16)
        engine = synthetic_dataset.engine()
        t = synthetic_dataset.mid_time()
        object_id = engine.ott.object_ids[0]
        region = engine.snapshot_region_of(object_id, t)
        if region is None:
            pytest.skip("first object not trackable at mid time")
        pois = synthetic_dataset.pois[:4]
        for _ in range(2):  # second round re-derives evicted grids
            for poi in pois:
                assert bounded.presence(region, poi) == unbounded.presence(
                    region, poi
                )

    def test_engine_stats_exposes_sample_cache_size(
        self, synthetic_dataset, cached_engine
    ):
        cached_engine.snapshot_flows(synthetic_dataset.mid_time())
        stats = cached_engine.stats()
        assert stats["estimator_cached_pois"] > 0


class TestStandaloneContext:
    def test_context_validation(self, synthetic_dataset):
        with pytest.raises(ValueError):
            EvaluationContext(synthetic_dataset.deployment, v_max=0.0)
        with pytest.raises(ValueError):
            EvaluationContext(
                synthetic_dataset.deployment, v_max=1.0, inner_allowance=-1.0
            )

    def test_counters_reset(self, synthetic_dataset, cached_engine):
        cached_engine.snapshot_flows(synthetic_dataset.mid_time())
        cached_engine.reset_stats()
        stats = cached_engine.stats()
        for key in COUNTER_KEYS:
            assert stats[key] == 0
        # Cache contents survive a counter reset.
        assert stats["region_cache_entries"] > 0

"""Merge equivalence: ``FlowEngine(num_shards=N)`` against the monolith.

The contract under test is *bit identity*: for every shard count, query
form, processing method and contracts setting, a sharded `FlowEngine`
must return exactly the monolith's ranking **and** exactly its float flow
values — the shards' AR-tree candidates merge into the monolith's entry
order, so not even the last ulp may differ — and it must do exactly the
monolith's work.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.contracts import set_contracts
from repro.core import FlowEngine, SnapshotTopKMonitor, shard_of
from repro.storage import MemoryBackend
from repro.tracking.records import TrackingRecord
from repro.tracking.table import LiveTrackingTable


def assert_identical(result_a, result_b):
    """Rankings and float flows must match bit for bit."""
    assert result_a.poi_ids == result_b.poi_ids
    assert result_a.flows == result_b.flows


def make_sharded(dataset, num_shards, **kwargs):
    kwargs.setdefault("detection_slack", 2.0 * dataset.sampling_interval)
    return FlowEngine(
        dataset.floorplan,
        dataset.deployment,
        dataset.ott,
        dataset.pois,
        v_max=dataset.v_max,
        num_shards=num_shards,
        **kwargs,
    )


@pytest.fixture(scope="module")
def sharded_engines(synthetic_dataset):
    return {
        n: make_sharded(synthetic_dataset, n) for n in (1, 2, 4)
    }


class TestBitIdentity:
    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    @pytest.mark.parametrize("method", ["join", "iterative"])
    @pytest.mark.parametrize("k", [1, 5, 30])
    def test_snapshot_topk(
        self, synthetic_engine, sharded_engines, num_shards, method, k
    ):
        t = 600.0
        assert_identical(
            synthetic_engine.snapshot_topk(t, k, method=method),
            sharded_engines[num_shards].snapshot_topk(t, k, method=method),
        )

    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    @pytest.mark.parametrize("method", ["join", "iterative"])
    @pytest.mark.parametrize("k", [1, 5, 30])
    def test_interval_topk(
        self, synthetic_engine, sharded_engines, num_shards, method, k
    ):
        assert_identical(
            synthetic_engine.interval_topk(300.0, 900.0, k, method=method),
            sharded_engines[num_shards].interval_topk(
                300.0, 900.0, k, method=method
            ),
        )

    @pytest.mark.parametrize("method", ["join", "iterative"])
    def test_poi_subsets(
        self, synthetic_dataset, synthetic_engine, sharded_engines, method
    ):
        subset = sorted(synthetic_dataset.pois, key=lambda p: p.poi_id)[:8]
        assert_identical(
            synthetic_engine.snapshot_topk(600.0, 3, pois=subset, method=method),
            sharded_engines[2].snapshot_topk(
                600.0, 3, pois=subset, method=method
            ),
        )
        assert_identical(
            synthetic_engine.interval_topk(
                300.0, 900.0, 3, pois=subset, method=method
            ),
            sharded_engines[4].interval_topk(
                300.0, 900.0, 3, pois=subset, method=method
            ),
        )

    def test_flow_maps_match(self, synthetic_engine, sharded_engines):
        for n, sharded in sharded_engines.items():
            assert synthetic_engine.snapshot_flows(600.0) == (
                sharded.snapshot_flows(600.0)
            ), f"N={n}"
            assert synthetic_engine.interval_flows(300.0, 900.0) == (
                sharded.interval_flows(300.0, 900.0)
            ), f"N={n}"

    def test_density_ranking_matches(self, synthetic_engine, sharded_engines):
        assert_identical(
            synthetic_engine.snapshot_density_topk(600.0, 5),
            sharded_engines[2].snapshot_density_topk(600.0, 5),
        )
        assert_identical(
            synthetic_engine.interval_density_topk(300.0, 900.0, 5),
            sharded_engines[2].interval_density_topk(300.0, 900.0, 5),
        )

    def test_with_contracts_enabled(self, synthetic_engine, sharded_engines):
        set_contracts(True)
        try:
            assert_identical(
                synthetic_engine.snapshot_topk(600.0, 5, method="join"),
                sharded_engines[2].snapshot_topk(600.0, 5, method="join"),
            )
            assert_identical(
                synthetic_engine.interval_topk(
                    300.0, 900.0, 5, method="iterative"
                ),
                sharded_engines[4].interval_topk(
                    300.0, 900.0, 5, method="iterative"
                ),
            )
        finally:
            set_contracts(None)

    def test_segment_mbr_ablation_matches(
        self, synthetic_engine, sharded_engines
    ):
        assert_identical(
            synthetic_engine.interval_topk(
                300.0, 900.0, 5, use_segment_mbrs=False
            ),
            sharded_engines[2].interval_topk(
                300.0, 900.0, 5, use_segment_mbrs=False
            ),
        )


class TestValidation:
    def test_rejects_bad_shard_count(self, synthetic_dataset):
        with pytest.raises(ValueError, match="num_shards"):
            make_sharded(synthetic_dataset, 0)

    def test_rejects_unknown_method(self, sharded_engines):
        with pytest.raises(ValueError, match="method"):
            sharded_engines[2].snapshot_topk(600.0, 5, method="magic")

    def test_rejects_bad_k(self, sharded_engines):
        for method in ("join", "iterative"):
            with pytest.raises(ValueError, match="k must be positive"):
                sharded_engines[2].snapshot_topk(600.0, 0, method=method)

    def test_rejects_empty_subset(self, sharded_engines):
        with pytest.raises(ValueError, match="empty"):
            sharded_engines[2].snapshot_topk(600.0, 5, pois=[])

    @pytest.mark.parametrize("num_shards", [1, 2])
    @pytest.mark.parametrize("method", ["join", "iterative"])
    def test_rejects_a_subset_repeating_a_poi(
        self, synthetic_dataset, sharded_engines, num_shards, method
    ):
        """A repeated POI used to count twice in iterative, once in join."""
        first, second = sorted(synthetic_dataset.pois, key=lambda p: p.poi_id)[:2]
        engine = sharded_engines[num_shards]
        with pytest.raises(ValueError, match=f"repeats poi_id {first.poi_id!r}"):
            engine.snapshot_topk(600.0, 3, pois=[first, first, second], method=method)
        with pytest.raises(ValueError, match=f"repeats poi_id {first.poi_id!r}"):
            engine.interval_topk(
                300.0, 900.0, 3, pois=[first, second, first], method=method
            )
        with pytest.raises(ValueError, match="repeats poi_id"):
            engine.snapshot_flows(600.0, pois=[second, second])

    @pytest.mark.parametrize("num_shards", [1, 2])
    @pytest.mark.parametrize("element", ["poi-0", None, 3], ids=["str", "none", "int"])
    def test_rejects_a_subset_element_that_is_not_a_poi(
        self, synthetic_dataset, sharded_engines, num_shards, element
    ):
        poi = synthetic_dataset.pois[0]
        engine = sharded_engines[num_shards]
        with pytest.raises(TypeError, match="not a Poi"):
            engine.snapshot_topk(600.0, 3, pois=[poi, element])
        with pytest.raises(TypeError, match="not a Poi"):
            engine.interval_topk(300.0, 900.0, 3, pois=[element])

    def test_rejects_inverted_window(self, sharded_engines):
        with pytest.raises(ValueError, match="precedes"):
            sharded_engines[2].interval_topk(900.0, 300.0, 5)

    def test_frozen_fleet_rejects_ingest(self, sharded_engines):
        with pytest.raises(RuntimeError, match="frozen-batch"):
            sharded_engines[2].ingest([])

    @pytest.mark.parametrize(
        "num_shards, storage",
        [(1, "directory"), (2, "backend")],
        ids=["one-shard-directory", "fleet-backend"],
    )
    def test_rejects_storage_of_the_other_shape(
        self, synthetic_dataset, tmp_path, num_shards, storage
    ):
        store = tmp_path / "fleet" if storage == "directory" else MemoryBackend()
        with pytest.raises(ValueError, match="stores into"):
            make_sharded(synthetic_dataset, num_shards, live=True, storage=store)


class TestShardCountArgument:
    """``num_shards`` is checked like ``k``: ``True`` used to be taken as
    1, and a float or a string failed deep inside construction."""

    @pytest.mark.parametrize(
        "value", [True, 2.0, "2", None], ids=["bool", "float", "str", "none"]
    )
    def test_non_int_shard_count_is_a_type_error(self, synthetic_dataset, value):
        with pytest.raises(TypeError, match="num_shards must be an int"):
            make_sharded(synthetic_dataset, value)

    @pytest.mark.parametrize("value", [0, -2])
    def test_non_positive_shard_count_is_a_value_error(
        self, synthetic_dataset, value
    ):
        with pytest.raises(ValueError, match="num_shards must be positive"):
            make_sharded(synthetic_dataset, value)


class TestPartitioning:
    def test_shard_of_is_stable_and_in_range(self):
        for n in (1, 2, 4, 7):
            for object_id in ("o0", "o1", "alpha", 42):
                index = shard_of(object_id, n)
                assert 0 <= index < n
                assert index == shard_of(object_id, n)

    def test_shard_of_rejects_bad_count(self):
        with pytest.raises(ValueError):
            shard_of("o1", 0)

    def test_shards_partition_the_population(
        self, synthetic_dataset, sharded_engines
    ):
        engine = sharded_engines[4]
        seen: dict[str, int] = {}
        for index, shard in enumerate(engine.shards):
            for object_id in shard.ott.object_ids:
                assert object_id not in seen, "object in two shards"
                seen[object_id] = index
                assert shard_of(object_id, 4) == index
        assert set(seen) == set(synthetic_dataset.ott.object_ids)
        assert sum(len(shard.ott) for shard in engine.shards) == len(
            synthetic_dataset.ott
        )


class TestSameWork:
    def _work(self, dataset, num_shards):
        """Stats and join heap pops of one fixed query sequence."""
        engine = make_sharded(dataset, num_shards)
        subset = sorted(dataset.pois, key=lambda p: p.poi_id)[:8]
        obs.enable()
        obs.reset()
        try:
            for pois in (None, subset):
                for method in ("join", "iterative"):
                    engine.snapshot_topk(600.0, 5, pois=pois, method=method)
                    engine.interval_topk(
                        300.0, 900.0, 5, pois=pois, method=method
                    )
            metric = obs.snapshot_dict()["metrics"]["join.heap_pops"]
        finally:
            obs.disable()
            obs.reset()
        return engine.stats(), metric["value"]

    def test_fleet_does_exactly_the_monoliths_work(self, synthetic_dataset):
        """Every counter — regions, quadratures, cache traffic, subset
        trees, join heap pops — is the one-shard engine's at every N."""
        stats_1, pops_1 = self._work(synthetic_dataset, 1)
        assert stats_1["regions_computed"] > 0 and pops_1 > 0
        for num_shards in (2, 4):
            stats_n, pops_n = self._work(synthetic_dataset, num_shards)
            assert stats_n == stats_1, f"N={num_shards}"
            assert pops_n == pops_1, f"N={num_shards}"


class TestLiveIngest:
    def _split_dataset(self, dataset):
        records = sorted(
            dataset.ott, key=lambda r: (r.t_s, r.t_e, r.record_id)
        )
        half = len(records) // 2
        return records[:half], records[half:]

    def _live_pair(self, dataset, num_shards):
        head, tail = self._split_dataset(dataset)
        mono = FlowEngine(
            dataset.floorplan,
            dataset.deployment,
            LiveTrackingTable(head),
            dataset.pois,
            v_max=dataset.v_max,
            detection_slack=2.0 * dataset.sampling_interval,
        )
        sharded = FlowEngine(
            dataset.floorplan,
            dataset.deployment,
            LiveTrackingTable(head),
            dataset.pois,
            v_max=dataset.v_max,
            num_shards=num_shards,
            detection_slack=2.0 * dataset.sampling_interval,
        )
        return mono, sharded, tail

    def test_routed_ingest_stays_bit_identical(self, synthetic_dataset):
        mono, sharded, tail = self._live_pair(synthetic_dataset, 3)
        assert mono.ingest(tail) == sharded.ingest(tail) == len(tail)
        assert sharded.generation == mono.generation
        for method in ("join", "iterative"):
            assert_identical(
                mono.snapshot_topk(600.0, 5, method=method),
                sharded.snapshot_topk(600.0, 5, method=method),
            )
            assert_identical(
                mono.interval_topk(300.0, 900.0, 5, method=method),
                sharded.interval_topk(300.0, 900.0, 5, method=method),
            )

    def test_open_episode_lifecycle_matches_monolith(self, synthetic_dataset):
        mono, sharded, tail = self._live_pair(synthetic_dataset, 3)
        mono.ingest(tail)
        sharded.ingest(tail)
        template = tail[-1]
        t0 = max(r.t_e for r in tail) + 5.0
        record = TrackingRecord(
            record_id=10**6,
            object_id=template.object_id,
            device_id=template.device_id,
            t_s=t0,
            t_e=t0,
        )
        mono.ingest_open(record)
        sharded.ingest_open(record)
        assert mono.extend_episode(record.object_id, t0 + 20.0) == (
            sharded.extend_episode(record.object_id, t0 + 20.0)
        )
        assert_identical(
            mono.snapshot_topk(t0 + 10.0, 5),
            sharded.snapshot_topk(t0 + 10.0, 5),
        )
        assert mono.close_episode(record.object_id, t0 + 30.0) == (
            sharded.close_episode(record.object_id, t0 + 30.0)
        )
        assert_identical(
            mono.interval_topk(t0, t0 + 30.0, 5),
            sharded.interval_topk(t0, t0 + 30.0, 5),
        )
        assert sharded.generation == mono.generation


class TestMonitorOverCoordinator:
    def test_monitor_ticks_through_the_fleet(self, synthetic_dataset):
        mono, sharded, tail = TestLiveIngest()._live_pair(synthetic_dataset, 2)
        monitor_mono = SnapshotTopKMonitor(mono, k=5)
        monitor_sharded = SnapshotTopKMonitor(sharded, k=5)
        for t, records in ((400.0, tail[: len(tail) // 2]), (800.0, tail[len(tail) // 2 :])):
            update_mono = monitor_mono.tick(t, records)
            update_sharded = monitor_sharded.tick(t, records)
            assert_identical(update_mono.result, update_sharded.result)
            assert update_mono.entered == update_sharded.entered
            assert update_mono.exited == update_sharded.exited


class TestGeneration:
    def test_partially_applied_batch_counts_applied_records(
        self, synthetic_dataset
    ):
        """A shard rejecting a record must not hide the other's append."""
        records = sorted(
            synthetic_dataset.ott, key=lambda r: (r.t_s, r.t_e, r.record_id)
        )[:50]
        fleet = FlowEngine(
            synthetic_dataset.floorplan,
            synthetic_dataset.deployment,
            LiveTrackingTable(),
            synthetic_dataset.pois,
            v_max=synthetic_dataset.v_max,
            num_shards=2,
        )
        assert fleet.ingest(records) == 50
        assert fleet.generation == 50
        last = {record.object_id: record for record in records}
        owner_0 = next(o for o in last if shard_of(o, 2) == 0)
        owner_1 = next(o for o in last if shard_of(o, 2) == 1)
        t_next = max(record.t_e for record in records) + 10.0
        valid = TrackingRecord(
            10**6, owner_0, last[owner_0].device_id, t_next, t_next + 5.0
        )
        overlapping = TrackingRecord(
            10**6 + 1,
            owner_1,
            last[owner_1].device_id,
            last[owner_1].t_e - 1.0,  # starts before the tail record ends
            last[owner_1].t_e + 1.0,
        )
        with pytest.raises(ValueError):
            fleet.ingest([valid, overlapping])
        assert fleet.generation == 51
        assert fleet.generation == sum(s.generation for s in fleet.shards)


class TestRegionIntrospection:
    @pytest.mark.parametrize("num_shards", [2, 4])
    def test_regions_match_monolith(
        self, synthetic_dataset, synthetic_engine, sharded_engines, num_shards
    ):
        sharded = sharded_engines[num_shards]
        bounds = synthetic_dataset.floorplan.bounds
        xs, ys = np.meshgrid(
            np.linspace(bounds.min_x, bounds.max_x, 41),
            np.linspace(bounds.min_y, bounds.max_y, 41),
        )
        xs, ys = xs.ravel(), ys.ravel()

        def signature(region):
            if region is None:
                return None
            return region.mbr, region.contains_many(xs, ys).tolist()

        t = 600.0
        for object_id in synthetic_dataset.ott.object_ids:
            assert signature(
                synthetic_engine.snapshot_region_of(object_id, t)
            ) == signature(sharded.snapshot_region_of(object_id, t))
            expected = synthetic_engine.interval_region_of(
                object_id, 300.0, 900.0
            )
            actual = sharded.interval_region_of(object_id, 300.0, 900.0)
            assert (expected is None) == (actual is None)
            if expected is not None:
                assert [(e.kind, e.key) for e in expected.episodes] == [
                    (e.kind, e.key) for e in actual.episodes
                ]
                assert signature(expected.region) == signature(actual.region)


#: The span paths a cold engine records for the four queries in
#: TestOneShardPath — the monolith's join and iterative code, at every N.
ONE_SHARD_SPANS = {
    ("query.interval.iterative",),
    ("query.interval.iterative", "candidates.interval"),
    ("query.interval.iterative", "presence.accumulate"),
    ("query.interval.iterative", "ur.interval"),
    ("query.interval.join",),
    ("query.interval.join", "candidates.interval"),
    ("query.interval.join", "candidates.interval", "ur.interval"),
    ("query.interval.join", "candidates.interval", "ur.interval",
     "ur.build.detection"),
    ("query.interval.join", "candidates.interval", "ur.interval",
     "ur.build.gap"),
    ("query.interval.join", "join.bound_refine"),
    ("query.interval.join", "join.bound_refine", "presence.quadrature"),
    ("query.interval.join", "join.build_ri"),
    ("query.snapshot.iterative",),
    ("query.snapshot.iterative", "candidates.snapshot"),
    ("query.snapshot.iterative", "presence.accumulate"),
    ("query.snapshot.iterative", "presence.accumulate", "presence.quadrature"),
    ("query.snapshot.iterative", "ur.snapshot"),
    ("query.snapshot.iterative", "ur.snapshot", "ur.build.snapshot"),
    ("query.snapshot.join",),
    ("query.snapshot.join", "candidates.snapshot"),
    ("query.snapshot.join", "join.bound_refine"),
    ("query.snapshot.join", "join.bound_refine", "presence.quadrature"),
    ("query.snapshot.join", "join.bound_refine", "ur.build.snapshot"),
    ("query.snapshot.join", "join.build_ri"),
}

ONE_SHARD_STATS_KEYS = {
    "artree_compactions",
    "artree_delta_entries",
    "data_generation",
    "estimator_cached_pois",
    "poi_subset_trees_built",
    "presence_cache_entries",
    "presence_cache_hits",
    "presence_evaluations",
    "region_cache_entries",
    "region_cache_hits",
    "regions_computed",
    "topology_prunes",
}


class TestOneShardPath:
    def _span_paths(self, engine):
        obs.enable()
        obs.reset()
        try:
            engine.snapshot_topk(600.0, 5)
            engine.interval_topk(300.0, 900.0, 5)
            engine.snapshot_topk(600.0, 5, method="iterative")
            engine.interval_topk(300.0, 900.0, 5, method="iterative")
            return {
                tuple(row["path"]) for row in obs.snapshot_dict()["spans"]
            }
        finally:
            obs.disable()
            obs.reset()

    def test_spans_and_stats_keys_are_the_monoliths(self, synthetic_dataset):
        engine = make_sharded(synthetic_dataset, 1)
        assert self._span_paths(engine) == ONE_SHARD_SPANS
        assert set(engine.stats()) == ONE_SHARD_STATS_KEYS

    def test_fleet_records_the_monoliths_spans_and_stats_keys(
        self, synthetic_dataset
    ):
        engine = make_sharded(synthetic_dataset, 2)
        assert self._span_paths(engine) == ONE_SHARD_SPANS
        assert set(engine.stats()) == ONE_SHARD_STATS_KEYS

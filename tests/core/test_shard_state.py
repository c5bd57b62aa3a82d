# repro: allow-file(seam): this file tests the shard and live-table mutators themselves
"""Unit tests for the shard-layer building blocks.

Covers the pieces a sharded engine composes: stats merge helpers,
tracking-table partition views, the AR-tree's object-subset build seam,
the shard facade, and a property test that throws arbitrary consistent
tables at ``FlowEngine(num_shards=N)`` and requires bit identity with the
monolith.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import EvaluationContext, FlowEngine
from repro.core.shard import ShardState
from repro.core.stats import merge_component_stats, merge_shard_stats
from repro.geometry import Point, Polygon
from repro.index import ARTree
from repro.indoor import Deployment, Device, Door, FloorPlan, Poi, Room
from repro.tracking import ObjectTrackingTable, TrackingRecord
from repro.tracking.table import LiveTrackingTable


# ----------------------------------------------------------------------
# Stats merge helpers
# ----------------------------------------------------------------------


class TestStatsHelpers:
    def test_component_merge_unions_disjoint_dicts(self):
        merged = merge_component_stats({"a": 1}, {"b": 2}, {"c": 0})
        assert merged == {"a": 1, "b": 2, "c": 0}

    def test_component_merge_rejects_duplicate_keys(self):
        with pytest.raises(ValueError, match="'a'"):
            merge_component_stats({"a": 1}, {"a": 2})

    def test_shard_merge_sums_pointwise(self):
        merged = merge_shard_stats([{"a": 1, "b": 2}, {"a": 3}, {"b": 5}])
        assert merged == {"a": 4, "b": 7}

    def test_shard_merge_of_nothing_is_empty(self):
        assert merge_shard_stats([]) == {}


# ----------------------------------------------------------------------
# Partition views
# ----------------------------------------------------------------------


def _records():
    return [
        TrackingRecord(0, "a", "d0", 0.0, 5.0),
        TrackingRecord(1, "b", "d1", 1.0, 6.0),
        TrackingRecord(2, "a", "d1", 7.0, 9.0),
        TrackingRecord(3, "c", "d0", 2.0, 3.0),
    ]


class TestFrozenPartitionView:
    def test_view_keeps_only_selected_objects(self):
        table = ObjectTrackingTable(_records()).freeze()
        view = table.partition_view({"a", "c"})
        assert sorted(view.object_ids) == ["a", "c"]
        assert [r.record_id for r in view] == [0, 2, 3]
        assert view.records_for("a") == table.records_for("a")

    def test_view_shares_record_instances(self):
        table = ObjectTrackingTable(_records()).freeze()
        view = table.partition_view({"b"})
        assert view.records_for("b")[0] is table.records_for("b")[0]

    def test_empty_view_is_queryable(self):
        table = ObjectTrackingTable(_records()).freeze()
        view = table.partition_view(frozenset())
        assert len(view) == 0
        assert view.object_ids == []


class TestLivePartitionView:
    def test_view_preserves_open_episodes(self):
        table = LiveTrackingTable(_records())
        table.append(TrackingRecord(4, "b", "d0", 8.0, 8.0), open=True)
        view = table.partition_view({"b"})
        assert view.open_object_ids == frozenset({"b"})
        assert view.extend_episode("b", 12.0).t_e == 12.0

    def test_view_accepts_new_appends_independently(self):
        table = LiveTrackingTable(_records())
        view = table.partition_view({"a"})
        view.append(TrackingRecord(9, "a", "d0", 20.0, 25.0))
        assert len(view.records_for("a")) == 3
        assert len(table.records_for("a")) == 2  # parent untouched


# ----------------------------------------------------------------------
# AR-tree stats (a shard indexes its partition view with ARTree.build)
# ----------------------------------------------------------------------


class TestARTreeObjectSubset:
    def test_stats_dict_shape(self):
        table = ObjectTrackingTable(_records()).freeze()
        tree = ARTree.build(table)
        assert set(tree.stats_dict()) == {
            "artree_delta_entries",
            "artree_compactions",
        }


# ----------------------------------------------------------------------
# ShardState facade basics
# ----------------------------------------------------------------------


def _world():
    rooms = [
        Room("west", Polygon.rectangle(0, 0, 20, 12)),
        Room("mid", Polygon.rectangle(20, 0, 40, 12)),
        Room("east", Polygon.rectangle(40, 0, 60, 12)),
    ]
    doors = [
        Door("wm", Point(20, 6), "west", "mid"),
        Door("me", Point(40, 6), "mid", "east"),
    ]
    plan = FloorPlan(rooms, doors)
    deployment = Deployment(
        [
            Device.at("d0", Point(5, 6), 2.0),
            Device.at("d1", Point(20, 6), 2.0),
            Device.at("d2", Point(40, 6), 2.0),
            Device.at("d3", Point(55, 6), 2.0),
        ]
    )
    pois = [
        Poi(f"poi{i}", Polygon.rectangle(2 + i * 9.5, 1, 9 + i * 9.5, 11), room)
        for i, room in enumerate(["west", "west", "mid", "mid", "east", "east"])
    ]
    return plan, deployment, pois


_PLAN, _DEPLOYMENT, _POIS = _world()
_DEVICE_IDS = ["d0", "d1", "d2", "d3"]


class TestShardState:
    def _shard(self, **kwargs):
        table = ObjectTrackingTable(_records()).freeze()
        return ShardState(table, EvaluationContext(_DEPLOYMENT, 1.5), **kwargs)

    def _engine(self, num_shards=1):
        return FlowEngine(
            _PLAN,
            _DEPLOYMENT,
            ObjectTrackingTable(_records()).freeze(),
            _POIS,
            v_max=1.5,
            num_shards=num_shards,
        )

    def test_frozen_shard_rejects_mutation(self):
        shard = self._shard()
        with pytest.raises(RuntimeError, match="frozen-batch"):
            shard.ingest_batch([_records()[0]])

    def test_resolve_pois_memoizes_by_id_tuple(self):
        for num_shards in (1, 2):
            engine = self._engine(num_shards)
            subset = _POIS[:2]
            engine.snapshot_topk(2.0, 1, pois=subset)
            engine.interval_topk(
                0.0, 9.0, 1, pois=list(subset), method="iterative"
            )
            assert engine.stats()["poi_subset_trees_built"] == 1

    def test_stats_keys_match_engine(self):
        shard = self._shard()
        engine = self._engine()
        assert set(shard.stats()) < set(engine.stats())


# ----------------------------------------------------------------------
# Property: arbitrary tables, sharded == monolith, bit for bit
# ----------------------------------------------------------------------


@st.composite
def tracking_tables(draw):
    records = []
    record_id = 0
    for obj in range(draw(st.integers(min_value=1, max_value=6))):
        t = draw(st.floats(min_value=0.0, max_value=50.0))
        for _ in range(draw(st.integers(min_value=1, max_value=5))):
            gap = draw(st.floats(min_value=0.5, max_value=60.0))
            duration = draw(st.floats(min_value=0.0, max_value=20.0))
            device = draw(st.sampled_from(_DEVICE_IDS))
            t_s = t + gap
            records.append(
                TrackingRecord(record_id, f"o{obj}", device, t_s, t_s + duration)
            )
            record_id += 1
            t = t_s + duration
    return ObjectTrackingTable(records).freeze()


class TestShardedProperty:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        tracking_tables(),
        st.floats(min_value=0.0, max_value=250.0),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=4),
        st.sampled_from(["join", "iterative"]),
    )
    def test_sharded_topk_is_bit_identical(self, ott, t, k, num_shards, method):
        mono = FlowEngine(
            _PLAN, _DEPLOYMENT, ott, _POIS, v_max=1.5, resolution=16
        )
        sharded = FlowEngine(
            _PLAN,
            _DEPLOYMENT,
            ott,
            _POIS,
            v_max=1.5,
            resolution=16,
            num_shards=num_shards,
        )
        expected = mono.snapshot_topk(t, k, method=method)
        actual = sharded.snapshot_topk(t, k, method=method)
        assert expected.poi_ids == actual.poi_ids
        assert expected.flows == actual.flows
        expected = mono.interval_topk(t, t + 30.0, k, method=method)
        actual = sharded.interval_topk(t, t + 30.0, k, method=method)
        assert expected.poi_ids == actual.poi_ids
        assert expected.flows == actual.flows

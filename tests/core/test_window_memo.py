"""The warm query path: the interval window memo and the presence rows.

A repeated interval query is answered from the window memo (no region
cache lookups) and the presence rows (no quadrature).  Every live
mutation of an object inside the window (an append, an open episode's
start, extension and close, a WAL-replay recovery) must retire what it
invalidates: after each, the answers equal those of an engine with both
caches disabled that saw the same mutations.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.contracts import set_contracts
from repro.core.engine import FlowEngine
from repro.datagen.config import SyntheticConfig
from repro.datagen.synthetic import build_synthetic_dataset
from repro.storage import SQLiteBackend
from repro.tracking import ObjectTrackingTable, TrackingRecord

CONFIG = SyntheticConfig(num_objects=12, duration=400.0, rooms_per_side=4, seed=11)
SHARDS = pytest.mark.parametrize("num_shards", [1, 2], ids=["N1", "N2"])
UNCACHED = dict(region_cache_size=0, presence_cache_size=0)


@pytest.fixture()
def contracts_on():
    set_contracts(True)
    try:
        yield
    finally:
        set_contracts(None)


@pytest.fixture()
def clean_obs():
    obs.disable()
    obs.reset()
    obs.REGISTRY.clear()
    try:
        yield
    finally:
        obs.disable()
        obs.reset()
        obs.REGISTRY.clear()


@pytest.fixture(scope="module")
def split():
    """The history split 70/30 into a base and a time-ordered live tail."""
    ds = build_synthetic_dataset(CONFIG)
    records = sorted(ds.ott, key=lambda r: (r.t_s, r.t_e, r.record_id))
    cut = int(len(records) * 0.7)
    ds.window = (records[0].t_s + 20.0, records[cut + 2].t_e + 1.0)
    return ds, records[:cut], records[cut:]


def live_engine(ds, records, num_shards, storage=None, **overrides):
    return FlowEngine(
        ds.floorplan,
        ds.deployment,
        ObjectTrackingTable(records),
        ds.pois,
        v_max=ds.v_max,
        detection_slack=2.0 * ds.sampling_interval,
        live=True,
        num_shards=num_shards,
        storage=storage,
        **overrides,
    )


def window(ds):
    """A window ending just after the first three tail records.

    Its trail episodes are short, so a stale region would move flows.
    """
    return ds.window


def answers(engine, ds):
    t_start, t_end = window(ds)
    regions = {}
    for object_id in sorted({record.object_id for record in ds.ott}):
        uncertainty = engine.interval_region_of(object_id, t_start, t_end)
        if uncertainty is not None:
            # Geometry, not keys: a trail key carries the engine's own
            # tail epoch, which counts the appends it has seen.
            regions[object_id] = [
                (episode.kind, episode.mbr) for episode in uncertainty.episodes
            ]
    return [
        engine.interval_topk(t_start, t_end, 5, method=method)
        for method in ("join", "iterative")
    ] + [engine.interval_flows(t_start, t_end), regions]


def assert_same_answers(cached, uncached, ds):
    # Twice: the second round is answered from the window memo and rows.
    expected = answers(uncached, ds)
    assert answers(cached, ds) == expected
    assert answers(cached, ds) == expected


@SHARDS
class TestInvalidation:
    def test_append(self, split, num_shards, contracts_on):
        ds, base, tail = split
        cached = live_engine(ds, base, num_shards)
        uncached = live_engine(ds, base, num_shards, **UNCACHED)
        assert_same_answers(cached, uncached, ds)
        for record in tail[:3]:
            cached.ingest([record])
            uncached.ingest([record])
            assert_same_answers(cached, uncached, ds)

    def test_open_episode_start_extend_close(self, split, num_shards, contracts_on):
        ds, base, tail = split
        cached = live_engine(ds, base, num_shards)
        uncached = live_engine(ds, base, num_shards, **UNCACHED)
        assert_same_answers(cached, uncached, ds)
        record = tail[0]
        opening = TrackingRecord(
            record.record_id, record.object_id, record.device_id,
            record.t_s, record.t_s,
        )
        middle = (record.t_s + record.t_e) / 2.0
        for engine in (cached, uncached):
            engine.ingest_open(opening)
        assert_same_answers(cached, uncached, ds)
        for engine in (cached, uncached):
            engine.extend_episode(record.object_id, middle)
        assert_same_answers(cached, uncached, ds)
        for engine in (cached, uncached):
            engine.close_episode(record.object_id, record.t_e)
        assert_same_answers(cached, uncached, ds)

    def test_wal_replay_recovery(self, split, num_shards, tmp_path, contracts_on):
        ds, base, tail = split
        storage = (
            SQLiteBackend(tmp_path / "ott.sqlite")
            if num_shards == 1
            else tmp_path / "fleet"
        )
        writer = live_engine(ds, [], num_shards, storage=storage)
        writer.ingest(base)
        answers(writer, ds)  # warm the writer's memo, then mutate the store
        writer.ingest(tail[:3])
        recovered = live_engine(
            ds,
            [],
            num_shards,
            storage=(
                SQLiteBackend(tmp_path / "ott.sqlite")
                if num_shards == 1
                else tmp_path / "fleet"
            ),
        )
        uncached = live_engine(ds, base + tail[:3], num_shards, **UNCACHED)
        assert_same_answers(recovered, uncached, ds)
        # The recovered engine keeps invalidating through its replayed epochs.
        recovered.ingest(tail[3:5])
        uncached.ingest(tail[3:5])
        assert_same_answers(recovered, uncached, ds)


@SHARDS
class TestWarmCounts:
    @pytest.mark.parametrize("method", ["join", "iterative"])
    def test_repeated_interval_makes_no_lookups(self, split, num_shards, method):
        ds, base, tail = split
        engine = live_engine(ds, base + tail, num_shards)
        t_start, t_end = window(ds)
        first = engine.interval_topk(t_start, t_end, 5, method=method)
        engine.reset_stats()
        assert engine.interval_topk(t_start, t_end, 5, method=method) == first
        stats = engine.stats()
        assert stats["region_cache_hits"] + stats["regions_computed"] == 0
        assert stats["presence_evaluations"] == 0
        assert stats["presence_cache_hits"] > 0

    def test_region_cache_size_zero_disables_the_window_memo(
        self, split, num_shards
    ):
        ds, base, tail = split
        engine = live_engine(ds, base + tail, num_shards, region_cache_size=0)
        t_start, t_end = window(ds)
        engine.interval_topk(t_start, t_end, 5)
        engine.reset_stats()
        engine.interval_topk(t_start, t_end, 5)
        assert engine.stats()["regions_computed"] > 0

    def test_window_counters(self, split, num_shards, clean_obs):
        ds, base, tail = split
        engine = live_engine(ds, base + tail, num_shards)
        t_start, t_end = window(ds)
        obs.enable()
        engine.interval_topk(t_start, t_end, 5)
        cold = obs.snapshot_dict()["metrics"]
        engine.interval_topk(t_start, t_end, 5)
        warm = obs.snapshot_dict()["metrics"]

        def count(metrics, name):
            return metrics.get(name, {"value": 0.0})["value"]

        misses = count(cold, "ctx.window.misses")
        assert misses > 0
        if num_shards == 1:
            # A fleet's join asks each window again in its refinement rounds.
            assert count(cold, "ctx.window.hits") == 0
        assert count(warm, "ctx.window.misses") == misses
        assert count(warm, "ctx.window.hits") > count(cold, "ctx.window.hits")
        # Warm: no region-cache lookups, so the region counters stand still.
        for name in ("ctx.region.hits", "ctx.region.misses"):
            assert warm.get(name) == cold.get(name)


class TestPresenceRows:
    def test_entries_count_values_and_stay_bounded(self, split):
        ds, base, tail = split
        t_start, t_end = window(ds)
        engine = live_engine(ds, base + tail, 1)
        engine.interval_flows(t_start, t_end)
        stats = engine.stats()
        assert stats["presence_cache_entries"] == stats["presence_evaluations"]
        small = live_engine(ds, base + tail, 1, presence_cache_size=7)
        assert small.interval_flows(t_start, t_end) == engine.interval_flows(
            t_start, t_end
        )
        assert 0 < small.stats()["presence_cache_entries"] <= 7

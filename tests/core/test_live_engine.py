"""Live ingestion at the engine level.

The acceptance contract of the streaming refactor: after ``ingest()``, a
live engine's snapshot and interval top-k answers are **bit-identical**
(same POIs, same float flows) to a freshly built batch engine over the
union of all records — for both the join and the iterative algorithm,
with runtime contracts enforced — while the warm incremental path
computes strictly fewer uncertainty regions than the cold rebuild.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.contracts import set_contracts
from repro.core.engine import FlowEngine, LiveFlowEngine
from repro.core.monitor import SnapshotTopKMonitor
from repro.datagen.config import SyntheticConfig
from repro.datagen.synthetic import build_synthetic_dataset
from repro.geometry import Point, Polygon
from repro.indoor import Deployment, Device, Door, FloorPlan, Poi, Room
from repro.tracking import LiveTrackingTable, ObjectTrackingTable, TrackingRecord

SPLIT_SYNTHETIC = SyntheticConfig(
    num_objects=16, duration=500.0, rooms_per_side=4, seed=7
)


@pytest.fixture()
def contracts_on():
    set_contracts(True)
    try:
        yield
    finally:
        set_contracts(None)


@pytest.fixture(scope="module")
def split_dataset():
    """A small synthetic workload split 70/30 into base + live tail."""
    dataset = build_synthetic_dataset(SPLIT_SYNTHETIC)
    records = sorted(dataset.ott, key=lambda r: (r.t_s, r.t_e, r.record_id))
    cut = int(len(records) * 0.7)
    return dataset, records[:cut], records[cut:]


def engine_kwargs(dataset, **overrides):
    kwargs = dict(
        floorplan=dataset.floorplan,
        deployment=dataset.deployment,
        pois=dataset.pois,
        v_max=dataset.v_max,
        detection_slack=2.0 * dataset.sampling_interval,
    )
    kwargs.update(overrides)
    return kwargs


class TestIngestEquivalence:
    @pytest.mark.parametrize("method", ["join", "iterative"])
    def test_topk_bit_identical_to_fresh_engine(
        self, split_dataset, method, contracts_on
    ):
        dataset, base, tail = split_dataset
        live = FlowEngine(ott=LiveTrackingTable(base), **engine_kwargs(dataset))
        assert live.ingest(tail) == len(tail)
        fresh = FlowEngine(
            ott=ObjectTrackingTable(base + tail), **engine_kwargs(dataset)
        )
        t_lo, t_hi = dataset.time_span()
        t_mid = (t_lo + t_hi) / 2

        a = live.snapshot_topk(t_mid, 5, method=method)
        b = fresh.snapshot_topk(t_mid, 5, method=method)
        assert a.poi_ids == b.poi_ids
        assert a.flows == b.flows  # bit-identical floats, not approx

        a = live.interval_topk(t_lo + 10.0, t_hi - 10.0, 5, method=method)
        b = fresh.interval_topk(t_lo + 10.0, t_hi - 10.0, 5, method=method)
        assert a.poi_ids == b.poi_ids
        assert a.flows == b.flows

    def test_warm_tick_computes_strictly_fewer_regions(self, split_dataset):
        dataset, base, tail = split_dataset
        t_lo, t_hi = dataset.time_span()
        window = (t_lo + 10.0, t_hi - 10.0)

        live = FlowEngine(ott=LiveTrackingTable(base), **engine_kwargs(dataset))
        live.interval_topk(*window, 5)  # warm the caches on the base data
        live.ingest(tail)
        live.reset_stats()
        live.interval_topk(*window, 5)
        warm_regions = live.stats()["regions_computed"]

        fresh = FlowEngine(
            ott=ObjectTrackingTable(base + tail), **engine_kwargs(dataset)
        )
        fresh.reset_stats()
        fresh.interval_topk(*window, 5)
        cold_regions = fresh.stats()["regions_computed"]

        assert warm_regions < cold_regions

    def test_generation_tracks_ingest(self, split_dataset):
        dataset, base, tail = split_dataset
        live = FlowEngine(ott=LiveTrackingTable(base), **engine_kwargs(dataset))
        before = live.generation
        live.ingest(tail)
        assert live.generation == before + len(tail)
        assert live.stats()["data_generation"] == len(tail)

    def test_batch_engine_refuses_ingest(self, split_dataset):
        dataset, base, tail = split_dataset
        batch = FlowEngine(ott=ObjectTrackingTable(base), **engine_kwargs(dataset))
        assert not batch.is_live
        assert batch.generation == 0
        with pytest.raises(RuntimeError, match="frozen-batch"):
            batch.ingest(tail)

    def test_live_flag_promotes_batch_table(self, split_dataset):
        dataset, base, tail = split_dataset
        live = FlowEngine(
            ott=ObjectTrackingTable(base), live=True, **engine_kwargs(dataset)
        )
        assert live.is_live
        live.ingest(tail)
        assert len(live.ott) == len(base) + len(tail)


class TestPoiSubsetMemo:
    def test_second_identical_subset_builds_no_tree(self, split_dataset):
        dataset, base, tail = split_dataset
        engine = FlowEngine(
            ott=ObjectTrackingTable(base + tail), **engine_kwargs(dataset)
        )
        subset = dataset.pois[: max(2, len(dataset.pois) // 3)]
        t_mid = dataset.mid_time()

        first = engine.snapshot_topk(t_mid, 2, pois=subset)
        built = engine.stats()["poi_subset_trees_built"]
        assert built >= 1
        second = engine.snapshot_topk(t_mid, 2, pois=subset)
        assert engine.stats()["poi_subset_trees_built"] == built
        assert first.poi_ids == second.poi_ids
        assert first.flows == second.flows

    def test_distinct_subset_builds_new_tree(self, split_dataset):
        dataset, base, tail = split_dataset
        engine = FlowEngine(
            ott=ObjectTrackingTable(base + tail), **engine_kwargs(dataset)
        )
        t_mid = dataset.mid_time()
        engine.snapshot_topk(t_mid, 2, pois=dataset.pois[:3])
        built = engine.stats()["poi_subset_trees_built"]
        engine.snapshot_topk(t_mid, 2, pois=dataset.pois[3:6])
        assert engine.stats()["poi_subset_trees_built"] == built + 1


# ----------------------------------------------------------------------
# A deterministic hand-built scenario (quickstart geometry)
# ----------------------------------------------------------------------


def tiny_floorplan():
    rooms = [
        Room("hall", Polygon.rectangle(0, 0, 30, 6), kind="hallway"),
        Room("cafe", Polygon.rectangle(0, 6, 15, 16)),
        Room("shop", Polygon.rectangle(15, 6, 30, 16)),
    ]
    doors = [
        Door("d-cafe", Point(7.5, 6), "cafe", "hall"),
        Door("d-shop", Point(22.5, 6), "shop", "hall"),
    ]
    return FloorPlan(rooms, doors)


def tiny_world():
    plan = tiny_floorplan()
    deployment = Deployment(
        [
            Device.at("rfid-cafe", plan.door("d-cafe").position, 1.5),
            Device.at("rfid-shop", plan.door("d-shop").position, 1.5),
            Device.at("rfid-hall", Point(15.0, 2.0), 1.5),
        ]
    )
    pois = [
        Poi("poi-cafe", Polygon.rectangle(1, 7, 14, 15), "cafe"),
        Poi("poi-shop", Polygon.rectangle(16, 7, 29, 15), "shop"),
        Poi("poi-hall", Polygon.rectangle(1, 1, 29, 5), "hall"),
    ]
    return plan, deployment, pois


BASE_ROWS = [
    ("anna", "rfid-hall", 0.0, 2.0),
    ("anna", "rfid-cafe", 10.0, 12.0),
    ("anna", "rfid-cafe", 300.0, 302.0),
    ("bo", "rfid-hall", 5.0, 7.0),
    ("bo", "rfid-shop", 15.0, 17.0),
    ("cai", "rfid-hall", 100.0, 102.0),
]

# dan hovers at the cafe door, detections tightly bracketing t=200: his
# gap region is a small lens inside the cafe, boosting its flow there.
TAIL_ROWS = [
    ("dan", "rfid-cafe", 195.0, 197.0),
    ("dan", "rfid-cafe", 203.0, 205.0),
]


def as_records(rows, start_id=0):
    return [
        TrackingRecord(start_id + i, obj, dev, t_s, t_e)
        for i, (obj, dev, t_s, t_e) in enumerate(rows)
    ]


class TestMonitorRegression:
    def test_advance_at_unchanged_t_reports_ingested_changes(self):
        """Satellite regression: ingest between two advances at the same t.

        Before the tail arrives, only anna is trackable at t=200 and the
        shop ranks first; dan's cafe dwell then lifts the cafe above it,
        and the second ``advance`` at the *same* instant must report the
        rank change.
        """
        plan, deployment, pois = tiny_world()
        engine = LiveFlowEngine(
            plan, deployment, pois, v_max=1.2, ott=LiveTrackingTable(as_records(BASE_ROWS))
        )
        monitor = SnapshotTopKMonitor(engine, k=3)

        first = monitor.advance(200.0)
        assert first.result.poi_ids.index("poi-shop") < first.result.poi_ids.index(
            "poi-cafe"
        )

        monitor.ingest(as_records(TAIL_ROWS, start_id=len(BASE_ROWS)))
        update = monitor.advance(200.0)
        assert update.changed
        assert update.rank_changes
        assert update.result.poi_ids.index("poi-cafe") < update.result.poi_ids.index(
            "poi-shop"
        )

    def test_tick_combines_ingest_and_advance(self):
        plan, deployment, pois = tiny_world()
        engine = LiveFlowEngine(plan, deployment, pois, v_max=1.2)
        monitor = SnapshotTopKMonitor(engine, k=3)
        update = monitor.tick(200.0, records=as_records(BASE_ROWS))
        assert len(update.result) == 3
        assert update.changed  # first tick reports everything as entered

    def test_open_episode_queryable_then_closed(self, contracts_on):
        plan, deployment, pois = tiny_world()
        engine = LiveFlowEngine(plan, deployment, pois, v_max=1.2)
        engine.ingest(as_records(BASE_ROWS))
        engine.ingest_open(TrackingRecord(99, "bo", "rfid-shop", 330.0, 332.0))
        engine.extend_episode("bo", 350.0)
        snapshot = engine.snapshot_topk(340.0, 3)
        assert "poi-shop" in snapshot.poi_ids
        engine.close_episode("bo", 360.0)

        fresh = FlowEngine(
            plan,
            deployment,
            engine.ott.freeze(),
            pois,
            v_max=1.2,
        )
        a = engine.interval_topk(0.0, 400.0, 3)
        b = fresh.interval_topk(0.0, 400.0, 3)
        assert a.poi_ids == b.poi_ids
        assert a.flows == b.flows


# ----------------------------------------------------------------------
# Property: generation-aware caching never changes answers
# ----------------------------------------------------------------------


@st.composite
def tail_batches(draw):
    """1-3 extra dan records after the base scenario, varied in time."""
    count = draw(st.integers(1, 3))
    rows, clock = [], 110.0
    for _ in range(count):
        gap = draw(st.floats(5.0, 60.0))
        dwell = draw(st.floats(1.0, 4.0))
        device = draw(st.sampled_from(["rfid-cafe", "rfid-shop", "rfid-hall"]))
        t_s = clock + gap
        rows.append(("dan", device, t_s, t_s + dwell))
        clock = t_s + dwell
    return rows


@given(tail=tail_batches(), t_probe=st.floats(50.0, 380.0))
@settings(max_examples=25, deadline=None)
def test_generation_aware_caching_is_bit_identical(tail, t_probe):
    """Warm caches + ingest ≡ cold context, for arbitrary live tails.

    The live engine answers queries before and after ingesting the tail
    (so its region/presence caches are warm and must be invalidated
    precisely); the cold engine sees the union once.  Every flow must
    match bit-for-bit.
    """
    plan, deployment, pois = tiny_world()
    base = as_records(BASE_ROWS)
    live = LiveFlowEngine(
        plan, deployment, pois, v_max=1.2, ott=LiveTrackingTable(base)
    )
    live.snapshot_topk(t_probe, 3)  # warm the caches pre-ingest
    live.interval_topk(0.0, 400.0, 3)
    live.ingest(as_records(tail, start_id=len(BASE_ROWS)))

    cold = FlowEngine(
        plan,
        deployment,
        ObjectTrackingTable(base + as_records(tail, start_id=len(BASE_ROWS))),
        pois,
        v_max=1.2,
    )
    for method in ("join", "iterative"):
        warm_snapshot = live.snapshot_topk(t_probe, 3, method=method)
        cold_snapshot = cold.snapshot_topk(t_probe, 3, method=method)
        assert warm_snapshot.poi_ids == cold_snapshot.poi_ids
        assert warm_snapshot.flows == cold_snapshot.flows
        warm_interval = live.interval_topk(0.0, 400.0, 3, method=method)
        cold_interval = cold.interval_topk(0.0, 400.0, 3, method=method)
        assert warm_interval.poi_ids == cold_interval.poi_ids
        assert warm_interval.flows == cold_interval.flows

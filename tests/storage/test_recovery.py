"""Crash recovery: kill mid-ingest, reopen, answers are bit-identical.

The headline guarantee of the storage seam: a SQLite-backed live engine
killed at an **arbitrary ingest-call boundary** can be reopened from the
store alone; after the producer re-sends its stream (idempotent
redelivery skips the persisted prefix), snapshot and interval top-k are
bit-identical — same POIs, same float flows — to an uninterrupted run,
for the join and the iterative algorithm, with runtime contracts
enforced.  The crash is simulated by severing the backend's raw SQLite
connection mid-stream: everything past the cut never reaches disk,
exactly like a ``kill -9`` between two ingest calls (one transaction
each).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.contracts import set_contracts
from repro.core import FlowEngine
from repro.datagen.config import SyntheticConfig
from repro.datagen.synthetic import build_synthetic_dataset
from repro.storage import SQLiteBackend, sqlite_shard_stores
from repro.tracking import ObjectTrackingTable, TrackingRecord

CONFIG = SyntheticConfig(
    num_objects=10, duration=300.0, rooms_per_side=4, seed=17
)


@pytest.fixture(scope="module")
def dataset():
    ds = build_synthetic_dataset(CONFIG)
    records = sorted(ds.ott, key=lambda r: (r.t_s, r.t_e, r.record_id))
    assert len(records) > 20
    return ds, records


@pytest.fixture()
def contracts_on():
    set_contracts(True)
    try:
        yield
    finally:
        set_contracts(None)


def engine_kwargs(ds, **overrides):
    kwargs = dict(
        floorplan=ds.floorplan,
        deployment=ds.deployment,
        pois=ds.pois,
        v_max=ds.v_max,
        detection_slack=2.0 * ds.sampling_interval,
    )
    kwargs.update(overrides)
    return kwargs


def storage_engine(ds, backend):
    """A live engine attached to (or recovering from) ``backend``."""
    return FlowEngine(
        ott=ObjectTrackingTable(), live=True, storage=backend,
        **engine_kwargs(ds),
    )


def fleet_storage(fleet_dir, num_shards):
    """A fleet stores into a directory; one shard into shard 0's store."""
    if num_shards == 1:
        return sqlite_shard_stores(fleet_dir)(0)
    return fleet_dir


def sever(engine):
    """Simulate ``kill -9``: the store's connection dies mid-stream."""
    engine.storage._conn.close()


def assert_identical_answers(ds, engine_a, engine_b, methods=("join", "iterative")):
    t_lo, t_hi = ds.time_span()
    t_mid = (t_lo + t_hi) / 2
    for method in methods:
        a = engine_a.snapshot_topk(t_mid, 5, method=method)
        b = engine_b.snapshot_topk(t_mid, 5, method=method)
        assert a.poi_ids == b.poi_ids
        assert a.flows == b.flows  # bit-identical floats, not approx
        a = engine_a.interval_topk(t_lo + 10.0, t_hi - 10.0, 5, method=method)
        b = engine_b.interval_topk(t_lo + 10.0, t_hi - 10.0, 5, method=method)
        assert a.poi_ids == b.poi_ids
        assert a.flows == b.flows


@pytest.fixture(scope="module")
def reference_engine(dataset):
    """The uninterrupted run every recovery must reproduce bit for bit."""
    ds, records = dataset
    return FlowEngine(ott=ObjectTrackingTable(records), **engine_kwargs(ds))


class TestReopen:
    def test_clean_close_then_reopen(self, dataset, reference_engine, tmp_path,
                                     contracts_on):
        ds, records = dataset
        path = tmp_path / "ott.sqlite"
        writer = storage_engine(ds, SQLiteBackend(path))
        assert writer.ingest(records) == len(records)
        writer.storage.close()

        recovered = storage_engine(ds, SQLiteBackend(path))
        assert recovered.generation == len(records)
        assert len(recovered.ott) == len(records)
        assert_identical_answers(ds, recovered, reference_engine)

    def test_checkpoint_then_reopen_bulk_loads_the_snapshot(
        self, dataset, reference_engine, tmp_path, contracts_on
    ):
        ds, records = dataset
        path = tmp_path / "ott.sqlite"
        writer = storage_engine(ds, SQLiteBackend(path))
        writer.ingest(records[:-5])
        assert writer.checkpoint() == len(records) - 5
        writer.ingest(records[-5:])
        writer.storage.close()

        backend = SQLiteBackend(path)
        assert backend.snapshot_generation == len(records) - 5
        recovered = storage_engine(ds, backend)
        # The snapshot bulk-loads; only the 5-mutation tail replays
        # through the delta seam.
        assert recovered.ctx.data_generation == len(records)
        assert_identical_answers(ds, recovered, reference_engine)

    def test_recovery_refuses_a_populated_table(self, dataset, tmp_path):
        ds, records = dataset
        path = tmp_path / "ott.sqlite"
        writer = storage_engine(ds, SQLiteBackend(path))
        writer.ingest(records[:10])
        writer.storage.close()
        with pytest.raises(ValueError, match="empty tracking table"):
            FlowEngine(
                ott=ObjectTrackingTable(records[:10]), live=True,
                storage=SQLiteBackend(path), **engine_kwargs(ds),
            )


class TestCrashMidIngest:
    @pytest.mark.parametrize("cut_fraction", [0.0, 0.3, 0.7])
    def test_kill_reopen_resend_is_bit_identical(
        self, dataset, reference_engine, tmp_path, contracts_on, cut_fraction
    ):
        ds, records = dataset
        cut = int(len(records) * cut_fraction)
        path = tmp_path / "ott.sqlite"

        writer = storage_engine(ds, SQLiteBackend(path))
        writer.ingest(records[:cut])
        sever(writer)
        if cut < len(records):
            with pytest.raises(Exception):
                writer.ingest(records[cut:])

        backend = SQLiteBackend(path)
        assert backend.generation == cut  # call-boundary loss only
        recovered = storage_engine(ds, backend)
        # The producer re-sends its whole stream; the persisted prefix
        # is skipped idempotently, the rest ingests normally.
        assert recovered.ingest(records) == len(records) - cut
        assert recovered.generation == len(records)
        assert_identical_answers(ds, recovered, reference_engine)

    @settings(max_examples=6, deadline=None)
    @given(data=st.data())
    def test_any_record_boundary(self, dataset, reference_engine, tmp_path_factory,
                                 data):
        """Hypothesis sweep: the cut may land after *any* record."""
        ds, records = dataset
        cut = data.draw(st.integers(0, len(records)), label="cut")
        path = tmp_path_factory.mktemp("crash") / "ott.sqlite"

        set_contracts(True)
        try:
            writer = storage_engine(ds, SQLiteBackend(path))
            writer.ingest(records[:cut])
            sever(writer)

            recovered = storage_engine(ds, SQLiteBackend(path))
            assert recovered.ingest(records) == len(records) - cut
            assert_identical_answers(ds, recovered, reference_engine)
        finally:
            set_contracts(None)


class TestOpenEpisodeCrash:
    def build_prefix(self, ds, records):
        """A closed prefix plus one still-open episode for its object."""
        prefix = records[: len(records) // 2]
        done = {r.object_id for r in prefix}
        tail = next(r for r in records[len(prefix):] if r.object_id in done)
        return prefix, tail

    def test_crash_with_open_episode(self, dataset, tmp_path, contracts_on):
        ds, records = dataset
        prefix, tail = self.build_prefix(ds, records)
        path = tmp_path / "ott.sqlite"

        writer = storage_engine(ds, SQLiteBackend(path))
        writer.ingest(prefix)
        open_record = TrackingRecord(
            tail.record_id, tail.object_id, tail.device_id, tail.t_s, tail.t_s
        )
        writer.ingest_open(open_record)
        writer.extend_episode(tail.object_id, tail.t_e)
        sever(writer)

        recovered = storage_engine(ds, SQLiteBackend(path))
        # The episode survives at its last durable extent, still open.
        restored = recovered.ott.last_record(tail.object_id)
        assert restored.record_id == tail.record_id
        assert restored.t_e == tail.t_e
        recovered.extend_episode(tail.object_id, tail.t_e + 5.0)
        closed = recovered.close_episode(tail.object_id)
        assert closed.t_e == tail.t_e + 5.0

        # An uninterrupted engine making the same mutations agrees.
        reference = storage_engine(ds, SQLiteBackend(tmp_path / "ref.sqlite"))
        reference.ingest(prefix)
        reference.ingest_open(open_record)
        reference.extend_episode(tail.object_id, tail.t_e)
        reference.extend_episode(tail.object_id, tail.t_e + 5.0)
        reference.close_episode(tail.object_id)
        assert recovered.generation == reference.generation
        assert_identical_answers(ds, recovered, reference)


class TestShardedStores:
    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    def test_per_shard_store_roundtrip(
        self, dataset, reference_engine, tmp_path, contracts_on, num_shards
    ):
        ds, records = dataset
        fleet_dir = tmp_path / "fleet"
        kwargs = dict(detection_slack=2.0 * ds.sampling_interval)

        sharded = FlowEngine(
            ds.floorplan, ds.deployment, ObjectTrackingTable(), ds.pois,
            v_max=ds.v_max, num_shards=num_shards, live=True,
            storage=fleet_storage(fleet_dir, num_shards), **kwargs,
        )
        assert sharded.ingest(records) == len(records)
        assert sharded.checkpoint() == len(records)
        for shard in sharded.shards:
            shard.storage.close()

        reopened = FlowEngine(
            ds.floorplan, ds.deployment, ObjectTrackingTable(), ds.pois,
            v_max=ds.v_max, num_shards=num_shards, live=True,
            storage=fleet_storage(fleet_dir, num_shards), **kwargs,
        )
        assert reopened.generation == len(records)
        assert_identical_answers(ds, reopened, reference_engine)

    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    def test_data_generation_counts_every_store(
        self, dataset, tmp_path, num_shards
    ):
        """Each store's snapshot generation adds to the shared context;
        the WAL tails replay on top."""
        ds, records = dataset
        fleet_dir = tmp_path / "fleet"
        kwargs = dict(detection_slack=2.0 * ds.sampling_interval)

        def open_fleet():
            return FlowEngine(
                ds.floorplan, ds.deployment, ObjectTrackingTable(), ds.pois,
                v_max=ds.v_max, num_shards=num_shards, live=True,
                storage=fleet_storage(fleet_dir, num_shards), **kwargs,
            )

        writer = open_fleet()
        writer.ingest(records[:-5])
        writer.checkpoint()
        writer.ingest(records[-5:])
        for shard in writer.shards:
            shard.storage.close()

        reopened = open_fleet()
        assert reopened.stats()["data_generation"] == len(records)
        assert reopened.generation == len(records)

    def test_wrong_shard_count_is_detected(self, dataset, tmp_path):
        ds, records = dataset
        fleet_dir = tmp_path / "fleet"
        kwargs = dict(detection_slack=2.0 * ds.sampling_interval)

        sharded = FlowEngine(
            ds.floorplan, ds.deployment, ObjectTrackingTable(), ds.pois,
            v_max=ds.v_max, num_shards=4, live=True, storage=fleet_dir,
            **kwargs,
        )
        sharded.ingest(records)
        for shard in sharded.shards:
            shard.storage.close()

        with pytest.raises(ValueError, match="different shard count"):
            FlowEngine(
                ds.floorplan, ds.deployment, ObjectTrackingTable(), ds.pois,
                v_max=ds.v_max, num_shards=3, live=True, storage=fleet_dir,
                **kwargs,
            )

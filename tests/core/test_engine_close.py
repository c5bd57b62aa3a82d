"""``close()`` at every shard count: flush, release, stay idempotent.

The serving layer (and any ``with`` block) relies on ``close()`` being
terminal but safe to call twice, folding the WAL so the *next* process
bulk-loads without replay, and degrading to a no-op for storage-less or
frozen-batch engines.
"""

from __future__ import annotations

import pytest

from repro.core.engine import FlowEngine, LiveFlowEngine
from repro.storage import SQLiteBackend, sqlite_shard_stores
from repro.tracking.table import ObjectTrackingTable


def _engine_kwargs(ds):
    return dict(
        floorplan=ds.floorplan,
        deployment=ds.deployment,
        pois=ds.pois,
        v_max=ds.v_max,
        detection_slack=2.0 * ds.sampling_interval,
    )


def _live_engine(ds, backend=None):
    return LiveFlowEngine(storage=backend, **_engine_kwargs(ds))


def _fleet_storage(fleet_dir, num_shards):
    """A fleet stores into a directory; one shard into shard 0's store."""
    if num_shards == 1:
        return sqlite_shard_stores(fleet_dir)(0)
    return fleet_dir


class TestFlowEngineClose:
    def test_close_folds_the_wal_and_releases_the_backend(
        self, synthetic_dataset, tmp_path
    ):
        ds = synthetic_dataset
        records = tuple(ds.ott)
        path = tmp_path / "venue.sqlite"

        engine = _live_engine(ds, SQLiteBackend(path))
        engine.ingest(records)
        engine.close()
        engine.close()  # idempotent

        # Closing is terminal: a *new* record (idempotent redelivery of
        # old ones never reaches storage) finds the backend gone.
        from repro.tracking.records import TrackingRecord

        t_next = max(r.t_e for r in records) + 1.0
        fresh = TrackingRecord(
            record_id=max(r.record_id for r in records) + 1,
            object_id="after-close",
            device_id=records[0].device_id,
            t_s=t_next,
            t_e=t_next + 1.0,
        )
        with pytest.raises(RuntimeError, match="closed"):
            engine.ingest([fresh])

        # The store was checkpointed on the way out — a fresh backend
        # bulk-loads everything and has nothing left to replay.
        backend = SQLiteBackend(path)
        assert backend.snapshot_generation == backend.generation == len(records)
        assert backend.replay_since(backend.snapshot_generation) == []

        recovered = _live_engine(ds, backend)
        assert recovered.generation == len(records)
        t_lo, t_hi = ds.time_span()
        t_mid = (t_lo + t_hi) / 2
        reference = ds.engine().snapshot_topk(t_mid, 5)
        answered = recovered.snapshot_topk(t_mid, 5)
        assert answered.poi_ids == reference.poi_ids
        assert answered.flows == reference.flows
        recovered.close()

    def test_post_close_mutators_raise_cleanly_and_reads_survive(
        self, synthetic_dataset, tmp_path
    ):
        # Every mutator must be rejected *before* touching the released
        # backend (a clean RuntimeError, not a storage-driver error
        # surfacing mid-mutation) and without perturbing in-memory
        # state: read-only queries keep answering bit-identically.
        ds = synthetic_dataset
        records = tuple(ds.ott)
        engine = _live_engine(ds, SQLiteBackend(tmp_path / "venue.sqlite"))
        engine.ingest(records)
        t_lo, t_hi = ds.time_span()
        t_mid = (t_lo + t_hi) / 2
        before = engine.snapshot_topk(t_mid, 5)
        engine.close()

        from repro.tracking.records import TrackingRecord

        t_next = max(r.t_e for r in records) + 1.0
        fresh = TrackingRecord(
            record_id=max(r.record_id for r in records) + 1,
            object_id="after-close",
            device_id=records[0].device_id,
            t_s=t_next,
            t_e=t_next + 1.0,
        )
        mutations = [
            lambda: engine.ingest([fresh]),
            lambda: engine.ingest_open(fresh),
            lambda: engine.extend_episode("after-close", t_next + 2.0),
            lambda: engine.close_episode("after-close"),
            lambda: engine.checkpoint(),
        ]
        for mutate in mutations:
            with pytest.raises(RuntimeError, match="closed"):
                mutate()

        after = engine.snapshot_topk(t_mid, 5)
        assert after.poi_ids == before.poi_ids
        assert after.flows == before.flows

    def test_with_protocol_closes_on_exit(self, synthetic_dataset, tmp_path):
        ds = synthetic_dataset
        records = tuple(ds.ott)
        path = tmp_path / "venue.sqlite"

        with _live_engine(ds, SQLiteBackend(path)) as engine:
            assert engine.ingest(records) == len(records)

        backend = SQLiteBackend(path)
        assert backend.snapshot_generation == len(records)
        backend.close()

    def test_storage_less_and_frozen_engines_close_as_no_ops(
        self, synthetic_dataset, synthetic_engine
    ):
        live = _live_engine(synthetic_dataset)
        live.close()
        live.close()

        # The session-shared frozen-batch engine: closing must neither
        # raise nor disturb it (other tests keep querying it).
        assert not synthetic_engine.is_live
        synthetic_engine.close()
        t_lo, t_hi = synthetic_dataset.time_span()
        assert len(synthetic_engine.snapshot_topk((t_lo + t_hi) / 2, 3)) <= 3


class TestShardedEngineClose:
    @pytest.mark.parametrize("num_shards", [1, 3])
    def test_close_flushes_every_shard_store(
        self, synthetic_dataset, tmp_path, num_shards
    ):
        ds = synthetic_dataset
        records = tuple(ds.ott)
        fleet_dir = tmp_path / "fleet"
        kwargs = _engine_kwargs(ds)

        with FlowEngine(
            kwargs.pop("floorplan"), kwargs.pop("deployment"),
            ObjectTrackingTable(), kwargs.pop("pois"),
            num_shards=num_shards, live=True,
            storage=_fleet_storage(fleet_dir, num_shards), **kwargs,
        ) as sharded:
            assert sharded.ingest(records) == len(records)
            sharded.close()  # explicit close + __exit__ close: idempotent

        kwargs = _engine_kwargs(ds)
        reopened = FlowEngine(
            kwargs.pop("floorplan"), kwargs.pop("deployment"),
            ObjectTrackingTable(), kwargs.pop("pois"),
            num_shards=num_shards, live=True,
            storage=_fleet_storage(fleet_dir, num_shards), **kwargs,
        )
        assert reopened.generation == len(records)
        # Every per-shard store was folded before it was released.
        for shard in reopened.shards:
            backend = shard.storage
            assert backend.replay_since(backend.snapshot_generation) == []
        t_lo, t_hi = ds.time_span()
        t_mid = (t_lo + t_hi) / 2
        reference = ds.engine().snapshot_topk(t_mid, 5)
        answered = reopened.snapshot_topk(t_mid, 5)
        assert answered.poi_ids == reference.poi_ids
        assert answered.flows == reference.flows
        reopened.close()

    def test_storage_less_fleet_close_is_idempotent(self, synthetic_dataset):
        ds = synthetic_dataset
        kwargs = _engine_kwargs(ds)
        sharded = FlowEngine(
            kwargs.pop("floorplan"), kwargs.pop("deployment"),
            ds.ott, kwargs.pop("pois"), num_shards=2, **kwargs,
        )
        t_lo, t_hi = ds.time_span()
        assert len(sharded.snapshot_topk((t_lo + t_hi) / 2, 3)) <= 3
        sharded.close()
        sharded.close()


class TestBatchEngineContextManager:
    def test_frozen_batch_engine_supports_with(self, synthetic_dataset):
        ds = synthetic_dataset
        with FlowEngine(ott=ds.ott, **_engine_kwargs(ds)) as engine:
            t_lo, t_hi = ds.time_span()
            assert len(engine.snapshot_topk((t_lo + t_hi) / 2, 3)) <= 3

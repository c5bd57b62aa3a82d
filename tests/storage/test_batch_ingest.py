# repro: allow-file(seam): this file tests the storage and live-table write path itself
"""Batch-grain ingest: one validation pass, one storage write, one unit.

``FlowEngine.ingest(records)`` validates the whole batch against the table
and the batch's earlier records, persists its new records with one
``append_rows`` call (one SQLite transaction) and then applies them.
These tests pin the three promises that makes:

* the outcome — exception, table rows, generation, store rows and AR-tree
  entries — is the one appending the same records one by one gives, for
  every kind of bad record, on the in-memory and the SQLite backend;
* a failure inside the transaction leaves the store at the previous
  call's generation with none of the batch, and a resend then answers
  bit-identically;
* each batch is one ``storage.append`` span, and ``storage.rows_appended``
  counts its new rows.
"""

from __future__ import annotations

import sqlite3

import pytest

from repro import obs
from repro.contracts import set_contracts
from repro.core import FlowEngine
from repro.datagen.config import SyntheticConfig
from repro.datagen.synthetic import build_synthetic_dataset
from repro.storage import MemoryBackend, Mutation, SQLiteBackend, StoredRow
from repro.tracking import LiveTrackingTable, ObjectTrackingTable, TrackingRecord

CONFIG = SyntheticConfig(num_objects=10, duration=300.0, rooms_per_side=4, seed=17)

BASE = 20  # records ingested before the batch under test
FRESH = slice(20, 25)  # new records at the head of the batch
TRAILING = slice(25, 30)  # new records after the scenario's bad record


@pytest.fixture(scope="module")
def dataset():
    ds = build_synthetic_dataset(CONFIG)
    records = sorted(ds.ott, key=lambda r: (r.t_s, r.t_e, r.record_id))
    assert len(records) > TRAILING.stop
    return ds, records


@pytest.fixture()
def contracts_on():
    set_contracts(True)
    try:
        yield
    finally:
        set_contracts(None)


@pytest.fixture()
def obs_on():
    obs.disable()
    obs.reset()
    obs.REGISTRY.clear()
    obs.enable()
    try:
        yield
    finally:
        obs.disable()
        obs.reset()
        obs.REGISTRY.clear()


def make_backend(kind, path):
    return MemoryBackend() if kind == "memory" else SQLiteBackend(path)


def live_engine(ds, backend):
    return FlowEngine(
        ds.floorplan,
        ds.deployment,
        ObjectTrackingTable(),
        ds.pois,
        v_max=ds.v_max,
        detection_slack=2.0 * ds.sampling_interval,
        live=True,
        storage=backend,
    )


def fresh_id(records, offset):
    return max(r.record_id for r in records) + 1000 + offset


def scenario(records, kind):
    """``(open_record, batch)``: ``batch`` holds fresh records, an in-batch
    duplicate and a redelivery, then the scenario's record, then more
    fresh records.  ``open_record`` (or ``None``) is opened before it."""
    fresh = records[FRESH]
    batch = list(fresh) + [fresh[1], records[3]]
    open_record = None
    if kind == "conflict":
        stored = records[5]
        other = next(r.object_id for r in records if r.object_id != stored.object_id)
        batch.append(
            TrackingRecord(
                stored.record_id, other, stored.device_id, stored.t_s, stored.t_e
            )
        )
    elif kind in ("overlap_batch", "overlap_table"):
        # Overlap the object's tail: a batch record or a stored one.
        tail = fresh[-1] if kind == "overlap_batch" else records[BASE - 1]
        assert kind == "overlap_table" or tail.object_id in {r.object_id for r in fresh}
        batch.append(
            TrackingRecord(
                fresh_id(records, 0), tail.object_id, tail.device_id,
                tail.t_s, tail.t_e + 1.0,
            )
        )
    elif kind == "open":
        # An object the batch does not otherwise touch, opened after its
        # last stored record.
        touched = {r.object_id for r in records[BASE : TRAILING.stop]}
        tail = next(r for r in reversed(records[:BASE]) if r.object_id not in touched)
        open_record = TrackingRecord(
            fresh_id(records, 1), tail.object_id, tail.device_id, tail.t_e, tail.t_e
        )
        batch.append(
            TrackingRecord(
                fresh_id(records, 2), tail.object_id, tail.device_id,
                tail.t_e + 10.0, tail.t_e + 20.0,
            )
        )
    else:
        assert kind == "clean"
    batch += records[TRAILING]
    return open_record, batch


def state(engine):
    """Everything a batch may move, as comparable values."""
    backend = engine.storage
    table = engine.ott
    return {
        "generation": engine.generation,
        "table": list(table),
        "open": table.open_object_ids,
        "store_generation": backend.generation,
        "store_rows": list(backend.iter_rows()),
        "store_log": backend.replay_since(0),
        "artree": {
            object_id: [
                (e.t1, e.t2, e.predecessor, e.record)
                for e in engine.artree.entries_for(object_id)
            ]
            for object_id in table.object_ids
        },
        "artree_size": len(engine.artree),
    }


def ingest_or_error(engine, records):
    try:
        return engine.ingest(records), None
    except ValueError as error:
        return None, (type(error), str(error))


KINDS = ["clean", "conflict", "overlap_batch", "overlap_table", "open"]


class TestBatchEqualsOneByOne:
    @pytest.mark.parametrize("backend_kind", ["memory", "sqlite"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_same_outcome(self, dataset, tmp_path, contracts_on, backend_kind, kind):
        ds, records = dataset
        open_record, batch = scenario(records, kind)
        engines = []
        for name in ("batch", "single"):
            backend = make_backend(backend_kind, tmp_path / f"{name}.sqlite")
            engine = live_engine(ds, backend)
            engine.ingest(records[:BASE])
            if open_record is not None:
                engine.ingest_open(open_record)
            engines.append(engine)
        batched, single = engines

        count, batch_error = ingest_or_error(batched, batch)
        single_count, single_error = 0, None
        for record in batch:
            appended, single_error = ingest_or_error(single, [record])
            if single_error is not None:
                break
            single_count += appended

        assert batch_error == single_error
        assert (batch_error is None) == (kind == "clean")
        if kind == "clean":
            # The in-batch duplicate and the redelivery are skipped.
            assert count == single_count == len(batch) - 2
        else:
            # The bad record's predecessors are in, its successors not.
            opened = open_record is not None
            assert len(batched.ott) == BASE + len(records[FRESH]) + opened
        assert state(batched) == state(single)
        t_mid = batched.ott.time_span()[1] - 30.0
        a = batched.snapshot_topk(t_mid, 5)
        b = single.snapshot_topk(t_mid, 5)
        assert (a.poi_ids, a.flows) == (b.poi_ids, b.flows)


class TestTableBatch:
    def rec(self, record_id, object_id, t_s, t_e):
        return TrackingRecord(record_id, object_id, "d1", t_s, t_e)

    def test_open_row_inside_the_batch_blocks_the_next(self):
        opened = self.rec(0, "o1", 10.0, 12.0)
        after = self.rec(1, "o1", 20.0, 25.0)
        batch_table = LiveTrackingTable(backend=MemoryBackend())
        with pytest.raises(ValueError) as batch_error:
            batch_table.append_batch([StoredRow(opened, open=True), StoredRow(after)])
        single_table = LiveTrackingTable(backend=MemoryBackend())
        single_table.append(opened, open=True)
        with pytest.raises(ValueError) as single_error:
            single_table.append(after)
        assert str(batch_error.value) == str(single_error.value)
        assert "open episode (record 0)" in str(batch_error.value)
        assert list(batch_table) == list(single_table) == [opened]
        assert batch_table.open_object_ids == frozenset({"o1"})
        assert batch_table.generation == batch_table.backend.generation == 1

    def test_hook_sees_each_row_with_its_predecessor(self):
        table = LiveTrackingTable(backend=MemoryBackend())
        first = self.rec(0, "o1", 0.0, 1.0)
        table.append(first)
        rows = [
            StoredRow(self.rec(1, "o2", 0.5, 2.0)),
            StoredRow(self.rec(2, "o1", 3.0, 4.0)),
            StoredRow(self.rec(3, "o1", 5.0, 6.0), open=True),
        ]
        seen = []
        assert table.append_batch(rows, lambda row, pre: seen.append((row, pre))) == 3
        assert seen == [
            (rows[0], None),
            (rows[1], first),
            (rows[2], rows[1].record),
        ]
        assert table.open_object_ids == frozenset({"o1"})

    def test_one_backend_call_per_batch(self):
        calls = []

        class CountingBackend(MemoryBackend):
            def append_rows(self, rows):
                rows = list(rows)
                calls.append(len(rows))
                return super().append_rows(rows)

        table = LiveTrackingTable(backend=CountingBackend())
        rows = [
            StoredRow(self.rec(i, f"o{i % 3}", float(i), i + 0.5)) for i in range(9)
        ]
        assert table.append_batch(rows + rows[:2]) == 9
        assert table.append_batch(rows) == 0  # all redeliveries: no write
        assert calls == [9]

    def test_replay_applies_runs_through_the_hooks(self):
        backend = MemoryBackend()
        writer = LiveTrackingTable(backend=backend)
        writer.append(self.rec(0, "o1", 0.0, 1.0))
        writer.append(self.rec(1, "o2", 0.5, 2.0), open=True)
        writer.extend_episode("o2", 3.0)
        writer.append(self.rec(2, "o1", 4.0, 5.0))
        writer.close_episode("o2", 6.0)
        log = backend.replay_since(0)

        appended, rewritten = [], []
        table = LiveTrackingTable.restore_snapshot(backend)
        table.replay(
            log,
            lambda row, pre: appended.append((row.record.record_id, row.open, pre)),
            lambda record, open: rewritten.append((record, open)),
        )
        assert list(table) == list(writer)
        assert table.generation == writer.generation == 5
        assert table.open_object_ids == frozenset()
        first = self.rec(0, "o1", 0.0, 1.0)
        assert appended == [(0, False, None), (1, True, None), (2, False, first)]
        assert rewritten == [
            (self.rec(1, "o2", 0.5, 3.0), True),
            (self.rec(1, "o2", 0.5, 6.0), False),
        ]

    def test_replay_refuses_gaps_and_unknown_ops(self):
        backend = MemoryBackend()
        writer = LiveTrackingTable(backend=backend)
        writer.append(self.rec(0, "o1", 0.0, 1.0))
        writer.append(self.rec(1, "o1", 2.0, 3.0))
        log = backend.replay_since(0)
        with pytest.raises(ValueError, match="replayed out of order"):
            LiveTrackingTable.restore_snapshot(backend).replay(log[1:])
        bogus = Mutation(1, "bogus", log[0].record)
        with pytest.raises(ValueError, match="unknown mutation op"):
            LiveTrackingTable.restore_snapshot(backend).replay([bogus])


class TestFailedTransaction:
    def test_rollback_then_resend_is_bit_identical(
        self, dataset, tmp_path, contracts_on
    ):
        ds, records = dataset
        path = tmp_path / "ott.sqlite"
        engine = live_engine(ds, SQLiteBackend(path))
        engine.ingest(records[:BASE])
        batch = records[BASE:TRAILING.stop]
        before = state(engine)

        # Fail the third row's insert: two rows of the batch are already
        # written inside the open transaction when it aborts.
        side = sqlite3.connect(path)
        side.execute(
            "CREATE TRIGGER fail_batch BEFORE INSERT ON wal "
            f"WHEN NEW.record_id = {batch[2].record_id} "
            "BEGIN SELECT RAISE(ABORT, 'injected failure'); END"
        )
        side.commit()
        with pytest.raises(sqlite3.DatabaseError, match="injected failure"):
            engine.ingest(batch)
        assert state(engine) == before
        assert not engine.storage._conn.in_transaction

        # What a crash now would leave behind: the previous call, whole.
        reopened = SQLiteBackend(path)
        assert reopened.generation == BASE
        assert list(reopened.iter_rows()) == before["store_rows"]
        reopened.close()

        side.execute("DROP TRIGGER fail_batch")
        side.commit()
        side.close()
        assert engine.ingest(batch) == len(batch)
        reference = live_engine(ds, MemoryBackend())
        reference.ingest(records[: TRAILING.stop])
        assert engine.generation == reference.generation
        recovered = live_engine(ds, SQLiteBackend(path))
        t_lo, t_hi = engine.ott.time_span()
        for subject in (engine, recovered):
            for method in ("join", "iterative"):
                a = subject.snapshot_topk(t_hi - 20.0, 5, method=method)
                b = reference.snapshot_topk(t_hi - 20.0, 5, method=method)
                assert (a.poi_ids, a.flows) == (b.poi_ids, b.flows)
                a = subject.interval_topk(t_lo, t_hi, 5, method=method)
                b = reference.interval_topk(t_lo, t_hi, 5, method=method)
                assert (a.poi_ids, a.flows) == (b.poi_ids, b.flows)


class TestUnstorableId:
    def test_prefix_is_stored_and_applied_then_resend_works(
        self, dataset, tmp_path, contracts_on
    ):
        ds, records = dataset
        fresh = records[FRESH]
        # A tuple object id passes the table's checks but SQLite cannot
        # store it, so the backend refuses this row mid-batch.
        bad = TrackingRecord(
            fresh_id(records, 0), ("tuple", 1), fresh[0].device_id, 0.0, 1.0
        )
        batch = list(fresh) + [bad] + list(records[TRAILING])
        engines = []
        for name in ("batch", "single"):
            engine = live_engine(ds, SQLiteBackend(tmp_path / f"{name}.sqlite"))
            engine.ingest(records[:BASE])
            engines.append(engine)
        batched, single = engines

        with pytest.raises(TypeError, match="str/int object and device ids"):
            batched.ingest(batch)
        for record in batch:
            if record is bad:
                with pytest.raises(TypeError):
                    single.ingest([record])
                break
            single.ingest([record])
        assert state(batched) == state(single)
        assert batched.ott.generation == batched.storage.generation == BASE + len(fresh)

        path = tmp_path / "batch.sqlite"
        recovered = live_engine(ds, SQLiteBackend(path))
        assert recovered.generation == batched.generation
        assert list(recovered.ott) == list(batched.ott)
        recovered.storage.close()

        assert batched.ingest(list(fresh) + list(records[TRAILING])) == len(
            records[TRAILING]
        )
        reference = live_engine(ds, MemoryBackend())
        reference.ingest(records[: TRAILING.stop])
        assert batched.generation == reference.generation
        t_lo, t_hi = batched.ott.time_span()
        for subject in (batched, live_engine(ds, SQLiteBackend(path))):
            a = subject.interval_topk(t_lo, t_hi, 5)
            b = reference.interval_topk(t_lo, t_hi, 5)
            assert (a.poi_ids, a.flows) == (b.poi_ids, b.flows)

    def test_oversized_record_id_is_refused_before_the_generation_moves(
        self, dataset, tmp_path
    ):
        ds, records = dataset
        fresh = records[FRESH]
        bad = TrackingRecord(2**70, "big-id", fresh[0].device_id, 0.0, 1.0)
        engine = live_engine(ds, SQLiteBackend(tmp_path / "big.sqlite"))
        engine.ingest(records[:BASE])
        with pytest.raises(ValueError, match="64-bit"):
            engine.ingest(list(fresh) + [bad] + list(records[TRAILING]))
        # The valid prefix is stored and applied; the log has no gap.
        assert engine.ott.generation == engine.storage.generation == BASE + len(fresh)
        assert engine.ingest(list(records[TRAILING])) == len(records[TRAILING])
        assert engine.ott.generation == engine.storage.generation
        engine.storage.close()


class TestObservability:
    def test_one_span_per_batch_and_new_rows_counted(self, dataset, tmp_path, obs_on):
        ds, records = dataset
        engine = live_engine(ds, SQLiteBackend(tmp_path / "ott.sqlite"))
        obs.reset()
        batches = [records[:12], records[8:20] + records[:2], records[20:21]]
        new_rows = [engine.ingest(batch) for batch in batches]
        assert new_rows == [12, 8, 1]
        appends = [row for row in obs.TRACER.snapshot() if row.name == "storage.append"]
        assert sum(row.count for row in appends) == len(batches)
        assert obs.counter("storage.rows_appended", unit="rows").value == sum(new_rows)

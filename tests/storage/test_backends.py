# repro: allow-file(seam): this file tests the storage backends themselves
"""The StorageBackend battery, run against every implementation.

Each backend must speak the same mutation vocabulary with the same
generation, idempotency and read-shape semantics — the engine recovery
path (and the CI ``REPRO_STORAGE_BACKEND`` matrix) depends on the two
being interchangeable.
"""

from __future__ import annotations

import pytest

from repro.storage import (
    MemoryBackend,
    Mutation,
    MUTATION_OPS,
    SQLiteBackend,
    StorageBackend,
    StoredRow,
    row_identity,
)
from repro.tracking import TrackingRecord


def rec(record_id, object_id, device_id, t_s, t_e):
    return TrackingRecord(record_id, object_id, device_id, t_s, t_e)


def append_row(backend, record, *, open=False):
    """One row through the batch call; ``True`` if it was appended."""
    return backend.append_rows([StoredRow(record, open=open)]) == 1


@pytest.fixture(params=["memory", "sqlite"])
def backend(request, tmp_path):
    if request.param == "memory":
        store = MemoryBackend()
    else:
        store = SQLiteBackend(tmp_path / "ott.sqlite")
    yield store
    store.close()


class TestAppendSemantics:
    def test_pristine_store(self, backend):
        assert isinstance(backend, StorageBackend)
        assert backend.generation == 0
        assert backend.snapshot_generation == 0
        assert backend.snapshot_rows() == []
        assert backend.replay_since(0) == []
        assert list(backend.iter_rows()) == []

    def test_append_bumps_generation(self, backend):
        assert append_row(backend, rec(0, "o1", "d1", 10.0, 20.0))
        assert append_row(backend, rec(1, "o2", "d1", 12.0, 15.0))
        assert backend.generation == 2
        assert backend.snapshot_generation == 0

    def test_redelivery_is_a_noop(self, backend):
        record = rec(0, "o1", "d1", 10.0, 20.0)
        assert append_row(backend, record)
        assert not append_row(backend, record)
        assert backend.generation == 1
        assert len(list(backend.iter_rows())) == 1

    def test_open_redelivery_at_initial_extent(self, backend):
        # A crashed producer re-sends the episode's *initial* extent
        # while the store already holds a later one: t_e is not part of
        # the upsert identity, so the redelivery is still a no-op.
        append_row(backend, rec(0, "o1", "d1", 10.0, 12.0), open=True)
        backend.rewrite_tail_row(rec(0, "o1", "d1", 10.0, 30.0), open=True)
        assert not append_row(backend, rec(0, "o1", "d1", 10.0, 12.0), open=True)
        (row,) = backend.iter_rows()
        assert row.record.t_e == 30.0

    def test_conflicting_redelivery_raises(self, backend):
        append_row(backend, rec(0, "o1", "d1", 10.0, 20.0))
        with pytest.raises(ValueError, match="already stored"):
            append_row(backend, rec(0, "o2", "d1", 10.0, 20.0))
        with pytest.raises(ValueError, match="already stored"):
            append_row(backend, rec(0, "o1", "d1", 11.0, 20.0))

    def test_rewrite_unknown_record_raises(self, backend):
        with pytest.raises(ValueError, match="never appended"):
            backend.rewrite_tail_row(rec(9, "o1", "d1", 0.0, 1.0), open=True)


class TestEpisodeLifecycle:
    def test_extend_then_close(self, backend):
        append_row(backend, rec(0, "o1", "d1", 10.0, 12.0), open=True)
        backend.rewrite_tail_row(rec(0, "o1", "d1", 10.0, 16.0), open=True)
        backend.rewrite_tail_row(rec(0, "o1", "d1", 10.0, 18.0), open=False)
        assert backend.generation == 3
        (row,) = backend.iter_rows()
        assert row == StoredRow(rec(0, "o1", "d1", 10.0, 18.0), open=False)

    def test_replay_carries_ops_and_post_state(self, backend):
        append_row(backend, rec(0, "o1", "d1", 10.0, 12.0), open=True)
        backend.rewrite_tail_row(rec(0, "o1", "d1", 10.0, 16.0), open=True)
        append_row(backend, rec(1, "o2", "d1", 11.0, 13.0))
        backend.rewrite_tail_row(rec(0, "o1", "d1", 10.0, 18.0), open=False)
        mutations = backend.replay_since(0)
        assert [m.generation for m in mutations] == [1, 2, 3, 4]
        assert [m.op for m in mutations] == [
            "append_open",
            "extend",
            "append",
            "close",
        ]
        assert all(m.op in MUTATION_OPS for m in mutations)
        assert [m.open for m in mutations] == [True, True, False, False]
        assert mutations[1].record.t_e == 16.0  # post-state, not initial
        assert backend.replay_since(2) == mutations[2:]
        assert backend.replay_since(4) == []

    def test_open_flag_survives_iteration(self, backend):
        append_row(backend, rec(0, "o1", "d1", 10.0, 12.0), open=True)
        append_row(backend, rec(1, "o2", "d1", 11.0, 13.0))
        by_id = {row.record.record_id: row for row in backend.iter_rows()}
        assert by_id[0].open
        assert not by_id[1].open


class TestCompaction:
    def fill(self, backend):
        append_row(backend, rec(0, "o1", "d1", 10.0, 20.0))
        append_row(backend, rec(1, "o2", "d1", 12.0, 15.0))
        append_row(backend, rec(2, "o1", "d2", 30.0, 33.0), open=True)

    def test_compact_folds_the_tail(self, backend):
        self.fill(backend)
        assert backend.compact() == 3
        assert backend.snapshot_generation == backend.generation == 3
        assert backend.replay_since(backend.snapshot_generation) == []
        rows = backend.snapshot_rows()
        assert [row.record.record_id for row in rows] == [0, 1, 2]
        assert [row.open for row in rows] == [False, False, True]

    def test_snapshot_rows_are_canonically_ordered(self, backend):
        self.fill(backend)
        backend.compact()
        keys = [
            (row.record.t_s, row.record.t_e, row.record.record_id)
            for row in backend.snapshot_rows()
        ]
        assert keys == sorted(keys)

    def test_mutations_after_compact_land_in_the_tail(self, backend):
        self.fill(backend)
        backend.compact()
        backend.rewrite_tail_row(rec(2, "o1", "d2", 30.0, 40.0), open=False)
        assert backend.generation == 4
        assert backend.snapshot_generation == 3
        (mutation,) = backend.replay_since(backend.snapshot_generation)
        assert mutation == Mutation(4, "close", rec(2, "o1", "d2", 30.0, 40.0))
        # iter_rows sees the merged state; snapshot_rows the old one.
        assert {r.record.t_e for r in backend.iter_rows()} == {20.0, 15.0, 40.0}
        assert backend.snapshot_rows()[2].record.t_e == 33.0

    def test_compact_is_idempotent(self, backend):
        self.fill(backend)
        backend.compact()
        assert backend.compact() == 0
        assert backend.generation == 3


class TestIterRows:
    def fill(self, backend):
        append_row(backend, rec(0, "o1", "d1", 10.0, 20.0))
        append_row(backend, rec(1, "o2", "d1", 12.0, 15.0))
        append_row(backend, rec(2, "o1", "d2", 30.0, 40.0))

    def test_object_filter(self, backend):
        self.fill(backend)
        ids = [row.record.record_id for row in backend.iter_rows("o1")]
        assert ids == [0, 2]

    def test_time_filter(self, backend):
        self.fill(backend)
        ids = [
            row.record.record_id
            for row in backend.iter_rows(t_start=16.0, t_end=29.0)
        ]
        assert ids == [0]  # overlaps [16, 29]; o2 ended, o1's second not begun

    def test_filters_compose_across_snapshot_and_tail(self, backend):
        self.fill(backend)
        backend.compact()
        append_row(backend, rec(3, "o1", "d3", 50.0, 60.0))
        ids = [
            row.record.record_id
            for row in backend.iter_rows("o1", t_start=35.0)
        ]
        assert ids == [2, 3]


class TestRowIdentity:
    def test_identity_excludes_t_e(self):
        a = rec(0, "o1", "d1", 10.0, 12.0)
        b = rec(0, "o1", "d1", 10.0, 99.0)
        assert row_identity(a) == row_identity(b)
        assert row_identity(a) != row_identity(rec(0, "o1", "d2", 10.0, 12.0))

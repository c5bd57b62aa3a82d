# repro: allow-file(seam): this file tests the storage backends themselves
"""SQLite backend durability: reopen, schema guards, env routing."""

from __future__ import annotations

import sqlite3

import pytest

from repro.storage import (
    ENV_VAR,
    MemoryBackend,
    SQLiteBackend,
    StoredRow,
    default_live_backend,
    sqlite_shard_stores,
)
from repro.tracking import TrackingRecord


def rec(record_id, object_id, device_id, t_s, t_e):
    return TrackingRecord(record_id, object_id, device_id, t_s, t_e)


def append_row(backend, record, *, open=False):
    """One row through the batch call; ``True`` if it was appended."""
    return backend.append_rows([StoredRow(record, open=open)]) == 1


class TestReopen:
    def test_rows_and_generation_survive_reopen(self, tmp_path):
        path = tmp_path / "ott.sqlite"
        store = SQLiteBackend(path)
        append_row(store, rec(0, "o1", "d1", 10.0, 20.0))
        append_row(store, rec(1, "o2", "d1", 12.0, 15.0), open=True)
        store.close()

        reopened = SQLiteBackend(path)
        assert reopened.generation == 2
        assert reopened.snapshot_generation == 0
        rows = list(reopened.iter_rows())
        assert [r.record.record_id for r in rows] == [0, 1]
        assert [r.open for r in rows] == [False, True]
        reopened.close()

    def test_snapshot_generation_survives_reopen(self, tmp_path):
        path = tmp_path / "ott.sqlite"
        store = SQLiteBackend(path)
        append_row(store, rec(0, "o1", "d1", 10.0, 20.0))
        store.compact()
        append_row(store, rec(1, "o2", "d1", 12.0, 15.0))
        store.close()

        reopened = SQLiteBackend(path)
        assert reopened.snapshot_generation == 1
        assert reopened.generation == 2
        assert len(reopened.snapshot_rows()) == 1
        (tail,) = reopened.replay_since(reopened.snapshot_generation)
        assert tail.record.record_id == 1
        reopened.close()

    def test_reopen_keeps_idempotency(self, tmp_path):
        path = tmp_path / "ott.sqlite"
        store = SQLiteBackend(path)
        append_row(store, rec(0, "o1", "d1", 10.0, 20.0))
        store.close()

        reopened = SQLiteBackend(path)
        assert not append_row(reopened, rec(0, "o1", "d1", 10.0, 20.0))
        with pytest.raises(ValueError, match="already stored"):
            append_row(reopened, rec(0, "o9", "d1", 10.0, 20.0))
        reopened.close()

    def test_closed_backend_refuses_use(self, tmp_path):
        store = SQLiteBackend(tmp_path / "ott.sqlite")
        store.close()
        store.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            append_row(store, rec(0, "o1", "d1", 10.0, 20.0))


class TestSchemaGuards:
    def test_unsupported_schema_version_raises(self, tmp_path):
        path = tmp_path / "ott.sqlite"
        SQLiteBackend(path).close()
        conn = sqlite3.connect(path)
        conn.execute("UPDATE meta SET value = '99' WHERE key = 'schema_version'")
        conn.commit()
        conn.close()
        with pytest.raises(ValueError, match="schema version 99"):
            SQLiteBackend(path)

    def test_rich_id_types_are_rejected(self, tmp_path):
        store = SQLiteBackend(tmp_path / "ott.sqlite")
        with pytest.raises(TypeError, match="str/int"):
            append_row(store, rec(0, ("o", 1), "d1", 10.0, 20.0))
        store.close()

    def test_int_ids_round_trip_as_ints(self, tmp_path):
        path = tmp_path / "ott.sqlite"
        store = SQLiteBackend(path)
        append_row(store, rec(0, 7, 3, 10.0, 20.0))
        store.close()
        reopened = SQLiteBackend(path)
        (row,) = reopened.iter_rows()
        assert row.record.object_id == 7
        assert row.record.device_id == 3
        reopened.close()

    def test_bad_synchronous_level_raises(self, tmp_path):
        with pytest.raises(ValueError, match="synchronous"):
            SQLiteBackend(tmp_path / "ott.sqlite", synchronous="sometimes")


class TestFreshStore:
    @staticmethod
    def traced_open(monkeypatch, path):
        """Open a backend, recording every statement its connection runs."""
        statements = []
        connect = sqlite3.connect

        def traced_connect(*args, **kwargs):
            conn = connect(*args, **kwargs)
            conn.set_trace_callback(statements.append)
            return conn

        monkeypatch.setattr(sqlite3, "connect", traced_connect)
        return SQLiteBackend(path), statements

    @staticmethod
    def first(statements, prefix):
        return next(
            i for i, text in enumerate(statements)
            if text.lstrip().upper().startswith(prefix)
        )

    def test_pragmas_precede_the_schema(self, monkeypatch, tmp_path):
        store, statements = self.traced_open(monkeypatch, tmp_path / "ott.sqlite")
        store.close()
        first_schema = self.first(statements, "CREATE")
        assert self.first(statements, "PRAGMA JOURNAL_MODE=WAL") < first_schema
        assert self.first(statements, "PRAGMA SYNCHRONOUS=NORMAL") < first_schema

    def test_schema_and_meta_row_are_one_transaction(self, monkeypatch, tmp_path):
        store, statements = self.traced_open(monkeypatch, tmp_path / "ott.sqlite")
        store.close()
        begin = self.first(statements, "BEGIN")
        commit = self.first(statements, "COMMIT")
        writes = [
            i for i, text in enumerate(statements)
            if text.lstrip().upper().startswith(("CREATE", "INSERT"))
        ]
        assert writes and begin < min(writes) and max(writes) < commit
        assert any("SCHEMA_VERSION" in statements[i].upper() for i in writes)

    def test_fresh_store_is_in_wal_mode(self, tmp_path):
        path = tmp_path / "ott.sqlite"
        SQLiteBackend(path).close()
        conn = sqlite3.connect(path)
        assert conn.execute("PRAGMA journal_mode").fetchone()[0] == "wal"
        conn.close()

    def test_reopen_keeps_rows_and_version(self, tmp_path):
        path = tmp_path / "ott.sqlite"
        store = SQLiteBackend(path)
        append_row(store, rec(0, "o1", "d1", 10.0, 20.0))
        store.close()
        reopened = SQLiteBackend(path)
        assert reopened.generation == 1
        assert [row.record.record_id for row in reopened.iter_rows()] == [0]
        reopened.close()
        conn = sqlite3.connect(path)
        assert conn.execute(
            "SELECT value FROM meta WHERE key = 'schema_version'"
        ).fetchall() == [("1",)]
        conn.close()


class TestEphemeral:
    def test_ephemeral_store_unlinks_on_close(self, tmp_path):
        path = tmp_path / "scratch.sqlite"
        store = SQLiteBackend(path, ephemeral=True)
        append_row(store, rec(0, "o1", "d1", 10.0, 20.0))
        assert path.exists()
        store.close()
        assert not path.exists()
        assert not path.with_name("scratch.sqlite-wal").exists()

    def test_durable_store_stays_on_disk(self, tmp_path):
        path = tmp_path / "ott.sqlite"
        store = SQLiteBackend(path)
        store.close()
        assert path.exists()


class TestShardStores:
    def test_factory_lays_out_one_db_per_shard(self, tmp_path):
        factory = sqlite_shard_stores(tmp_path / "fleet")
        stores = [factory(index) for index in range(3)]
        try:
            assert [s.path.name for s in stores] == [
                "shard-00.sqlite",
                "shard-01.sqlite",
                "shard-02.sqlite",
            ]
            assert all(s.path.parent == tmp_path / "fleet" for s in stores)
        finally:
            for s in stores:
                s.close()


class TestEnvRouting:
    def test_default_is_memory(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        backend = default_live_backend()
        assert isinstance(backend, MemoryBackend)
        backend.close()

    def test_memory_value(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "memory")
        backend = default_live_backend()
        assert isinstance(backend, MemoryBackend)
        backend.close()

    def test_sqlite_value_is_ephemeral(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "sqlite")
        backend = default_live_backend()
        assert isinstance(backend, SQLiteBackend)
        path = backend.path
        assert path.exists()
        backend.close()
        assert not path.exists()

    def test_unknown_value_raises(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "parchment")
        with pytest.raises(ValueError, match="parchment"):
            default_live_backend()

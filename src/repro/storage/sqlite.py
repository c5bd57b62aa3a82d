"""The durable backend: SQLite in WAL mode, crash-safe at batch grain.

**Schema** (version 1).  Three tables mirror the protocol's two read
shapes directly:

* ``snapshot(record_id PRIMARY KEY, object_id, device_id, t_s, t_e,
  open)`` — the bulk rows as of the last :meth:`SQLiteBackend.compact`,
  indexed on ``(object_id, t_s)``; ``open`` marks episode tail rows whose
  ``t_e`` was still advancing at compaction time.
* ``wal(generation PRIMARY KEY, op, record_id, object_id, device_id,
  t_s, t_e)`` — the mutation log past the snapshot.  Each row is one
  table mutation carrying the row's post-state; the current store state
  is always ``snapshot`` ⊕ a replay of ``wal``.
* ``meta(key, value)`` — ``schema_version`` and ``snapshot_generation``.

**Durability.**  The connection runs ``journal_mode=WAL`` with
``synchronous=NORMAL``.  Each :meth:`SQLiteBackend.append_rows` call is
one transaction (``BEGIN`` / one ``executemany`` / ``COMMIT``), and each
episode rewrite is its own autocommitted statement.  A live table hands
the backend one batch per ingest call, so the durability grain is the
ingest call: killing the process between two calls loses nothing, and
killing it *inside* one loses all of that call's new rows and nothing
else — the call-boundary guarantee the crash-recovery tests assert.  One
commit per batch also keeps the WAL file small: a per-row commit writes
a page set per row.  Object and device ids are
JSON-encoded and therefore restricted to ``str``/``int`` (the simulated
datasets use both); richer id types belong to the in-memory backend.

**Fork safety.**  SQLite connections must not cross ``fork()``, and
user code embedding an engine may fork.  The backend tags its connection
with the owning pid and transparently opens a fresh one when used from a
forked child.
"""

from __future__ import annotations

import functools
import json
import os
import sqlite3
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from ..obs import counter, obs_enabled, span
from ..tracking.records import ObjectId, TrackingRecord
from .base import Mutation, StoredRow, row_identity

__all__ = ["STORABLE_RECORD_IDS", "SQLiteBackend", "sqlite_shard_stores"]

_SCHEMA_VERSION = 1

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS snapshot (
    record_id INTEGER PRIMARY KEY,
    object_id TEXT NOT NULL,
    device_id TEXT NOT NULL,
    t_s       REAL NOT NULL,
    t_e       REAL NOT NULL,
    open      INTEGER NOT NULL DEFAULT 0
);
CREATE INDEX IF NOT EXISTS snapshot_object_time
    ON snapshot (object_id, t_s);
CREATE TABLE IF NOT EXISTS wal (
    generation INTEGER PRIMARY KEY,
    op         TEXT NOT NULL,
    record_id  INTEGER NOT NULL,
    object_id  TEXT NOT NULL,
    device_id  TEXT NOT NULL,
    t_s        REAL NOT NULL,
    t_e        REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS wal_record ON wal (record_id);
"""

#: Stamps a fresh store with the schema version; a no-op on reopen.
_INIT_META = (
    "INSERT OR IGNORE INTO meta (key, value) "
    f"VALUES ('schema_version', '{_SCHEMA_VERSION}');"
)

_INSERT_WAL = (
    "INSERT INTO wal (generation, op, record_id, object_id, device_id, "
    "t_s, t_e) VALUES (?, ?, ?, ?, ?, ?, ?)"
)

_Identity = tuple[ObjectId, object, float]


# Ids repeat across rows (a venue has few objects and devices), so their
# JSON texts are memoized both ways; ``typed=True`` keeps ``True`` and
# ``1`` apart.
_dumps = functools.lru_cache(maxsize=1 << 16, typed=True)(json.dumps)
_decode_id: Callable[[str], Any] = functools.lru_cache(maxsize=1 << 16)(json.loads)


#: The record ids a SQLite store keeps: its INTEGER column is signed 64-bit.
STORABLE_RECORD_IDS = range(-(2**63), 2**63)


def _encode_id(value: object) -> str:
    if not isinstance(value, (str, int)):
        raise TypeError(
            "SQLite storage keeps str/int object and device ids, got "
            f"{type(value).__name__}: {value!r}"
        )
    return _dumps(value)


class SQLiteBackend:
    """A durable :class:`~repro.storage.base.StorageBackend` on one file.

    Args:
        path: The database file (created, with its schema, on first use).
        synchronous: The ``PRAGMA synchronous`` level — ``"NORMAL"``
            (default) is WAL-safe durability; the env-selected throwaway
            stores use ``"OFF"`` for speed.
        ephemeral: Delete the database (and its WAL sidecars) on
            :meth:`close`; used for backends that only exist to route an
            in-memory workload through SQLite.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        synchronous: str = "NORMAL",
        ephemeral: bool = False,
    ):
        if synchronous.upper() not in ("OFF", "NORMAL", "FULL", "EXTRA"):
            raise ValueError(f"unknown synchronous level {synchronous!r}")
        self._path = Path(path)
        self._synchronous = synchronous.upper()
        self._ephemeral = ephemeral
        self._owner_pid = os.getpid()
        self._closed = False
        self._conn: sqlite3.Connection | None = None
        self._conn_pid = -1
        self._generation = 0
        self._snapshot_generation = 0
        #: record_id → upsert identity, for constant-time idempotency.
        self._known: dict[int, _Identity] | None = None
        self._connection()  # fail fast on an unusable path / old schema

    # ------------------------------------------------------------------
    # Connection management
    # ------------------------------------------------------------------

    @property
    def path(self) -> Path:
        """The database file."""
        return self._path

    def _connection(self) -> sqlite3.Connection:
        if self._closed:
            raise RuntimeError(f"storage backend {self._path} is closed")
        if self._conn is None or self._conn_pid != os.getpid():
            # A connection inherited across fork() must not be reused (or
            # even closed) in the child; drop the reference and reopen.
            # check_same_thread=False: callers serialize access (the
            # engines are single-threaded; the serve layer routes every
            # operation through one engine-actor thread), but the thread
            # that *constructs* the backend — recovering the snapshot —
            # need not be the thread that later appends to it.
            conn = sqlite3.connect(
                str(self._path), isolation_level=None, check_same_thread=False
            )
            # The pragmas come first, so a fresh store's schema is written
            # in WAL mode at the chosen sync level, as one transaction.
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute(f"PRAGMA synchronous={self._synchronous}")
            try:
                conn.executescript(f"BEGIN;{_SCHEMA}{_INIT_META}COMMIT;")
            except BaseException:
                if conn.in_transaction:
                    conn.execute("ROLLBACK")
                conn.close()
                raise
            version = self._get_meta(conn, "schema_version")
            if version is None or int(version) != _SCHEMA_VERSION:
                conn.close()
                raise ValueError(
                    f"{self._path}: schema version {version} is not "
                    f"the supported version {_SCHEMA_VERSION}"
                )
            self._conn = conn
            self._conn_pid = os.getpid()
            self._load_generations(conn)
        return self._conn

    @staticmethod
    def _get_meta(conn: sqlite3.Connection, key: str) -> str | None:
        row = conn.execute(
            "SELECT value FROM meta WHERE key = ?", (key,)
        ).fetchone()
        return None if row is None else str(row[0])

    @staticmethod
    def _set_meta(conn: sqlite3.Connection, key: str, value: str) -> None:
        conn.execute(
            "INSERT INTO meta (key, value) VALUES (?, ?) "
            "ON CONFLICT (key) DO UPDATE SET value = excluded.value",
            (key, value),
        )

    def _load_generations(self, conn: sqlite3.Connection) -> None:
        snapshot = int(self._get_meta(conn, "snapshot_generation") or 0)
        tail = conn.execute("SELECT MAX(generation) FROM wal").fetchone()[0]
        self._snapshot_generation = snapshot
        self._generation = max(snapshot, int(tail or 0))

    # ------------------------------------------------------------------
    # Generations
    # ------------------------------------------------------------------

    @property
    def generation(self) -> int:
        """Monotonic mutation counter; ``0`` iff the store is pristine."""
        return self._generation

    @property
    def snapshot_generation(self) -> int:
        """The generation the bulk snapshot is current as of."""
        return self._snapshot_generation

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------

    def append_rows(self, rows: Iterable[StoredRow]) -> int:
        """Durably log a batch of appended rows in one transaction.

        Rows are checked first (idempotency and id encoding, against the
        store and the batch's earlier rows), then the new ones are
        inserted with one ``BEGIN`` / ``executemany`` / ``COMMIT``.  When
        a row fails its check, the rows before it are committed and the
        error is raised; a failure inside the transaction rolls the whole
        batch back and leaves the store as it was.
        """
        with span("storage.append"):
            conn = self._connection()
            known = self._known_identities(conn)
            fresh: dict[int, _Identity] = {}
            params: list[tuple[Any, ...]] = []
            generation = self._generation
            try:
                for row in rows:
                    record = row.record
                    identity = row_identity(record)
                    existing = fresh.get(record.record_id)
                    if existing is None:
                        existing = known.get(record.record_id)
                    if existing is not None:
                        if existing != identity:
                            raise ValueError(
                                f"record {record.record_id} is already "
                                f"stored with identity {existing!r}; "
                                f"refusing conflicting redelivery of "
                                f"{record!r}"
                            )
                        continue
                    # Checked before the generation moves, so a row whose
                    # ids cannot be stored leaves no gap in the log.
                    if record.record_id not in STORABLE_RECORD_IDS:
                        raise ValueError(
                            f"record id {record.record_id} is outside "
                            "SQLite's signed 64-bit INTEGER range"
                        )
                    object_text = _encode_id(record.object_id)
                    device_text = _encode_id(record.device_id)
                    generation += 1
                    params.append(
                        (
                            generation,
                            "append_open" if row.open else "append",
                            record.record_id,
                            object_text,
                            device_text,
                            record.t_s,
                            record.t_e,
                        )
                    )
                    fresh[record.record_id] = identity
            finally:
                # The valid prefix is stored even when a row failed.
                if params:
                    self._commit_wal_rows(conn, params)
                    known.update(fresh)
                    self._generation = generation
        if obs_enabled() and params:
            counter("storage.rows_appended", unit="rows").inc(len(params))
        return len(params)

    def rewrite_tail_row(self, record: TrackingRecord, *, open: bool) -> None:
        """Durably log an open tail row's new extent (extend or close)."""
        with span("storage.append"):
            conn = self._connection()
            if record.record_id not in self._known_identities(conn):
                raise ValueError(
                    f"record {record.record_id} was never appended; "
                    "cannot rewrite its tail row"
                )
            self._log(conn, "extend" if open else "close", record)

    def _log(
        self, conn: sqlite3.Connection, op: str, record: TrackingRecord
    ) -> None:
        generation = self._generation + 1
        conn.execute(
            _INSERT_WAL,
            (
                generation,
                op,
                record.record_id,
                _encode_id(record.object_id),
                _encode_id(record.device_id),
                record.t_s,
                record.t_e,
            ),
        )
        self._generation = generation

    @staticmethod
    def _commit_wal_rows(
        conn: sqlite3.Connection, params: list[tuple[Any, ...]]
    ) -> None:
        """Insert WAL rows as one transaction; roll back on any failure."""
        conn.execute("BEGIN")
        try:
            conn.executemany(_INSERT_WAL, params)
            conn.execute("COMMIT")
        except BaseException:
            if conn.in_transaction:
                conn.execute("ROLLBACK")
            raise

    def _known_identities(self, conn: sqlite3.Connection) -> dict[int, _Identity]:
        if self._known is None:
            known: dict[int, _Identity] = {}
            for rid, obj, dev, t_s in conn.execute(
                "SELECT record_id, object_id, device_id, t_s FROM snapshot"
            ):
                known[int(rid)] = (_decode_id(obj), _decode_id(dev), float(t_s))
            for rid, obj, dev, t_s in conn.execute(
                "SELECT record_id, object_id, device_id, t_s FROM wal "
                "WHERE op IN ('append', 'append_open') ORDER BY generation"
            ):
                known[int(rid)] = (_decode_id(obj), _decode_id(dev), float(t_s))
            self._known = known
        return self._known

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def snapshot_rows(self) -> list[StoredRow]:
        """The bulk snapshot as of :attr:`snapshot_generation`."""
        with span("storage.snapshot"):
            conn = self._connection()
            return [
                StoredRow(record=record, open=bool(open_flag))
                for record, open_flag in self._snapshot_query(conn, None)
            ]

    @staticmethod
    def _snapshot_query(
        conn: sqlite3.Connection, object_id: ObjectId | None
    ) -> Iterator[tuple[TrackingRecord, int]]:
        sql = (
            "SELECT record_id, object_id, device_id, t_s, t_e, open "
            "FROM snapshot"
        )
        params: tuple[str, ...] = ()
        if object_id is not None:
            sql += " WHERE object_id = ?"
            params = (_encode_id(object_id),)
        sql += " ORDER BY t_s, t_e, record_id"
        for rid, obj, dev, t_s, t_e, open_flag in conn.execute(sql, params):
            yield (
                TrackingRecord(
                    record_id=int(rid),
                    object_id=_decode_id(obj),
                    device_id=_decode_id(dev),
                    t_s=float(t_s),
                    t_e=float(t_e),
                ),
                int(open_flag),
            )

    def replay_since(self, generation: int) -> list[Mutation]:
        """All logged mutations newer than ``generation``, oldest first."""
        with span("storage.replay"):
            conn = self._connection()
            mutations = [
                Mutation(generation=int(gen), op=str(op), record=record)
                for gen, op, record in self._wal_query(conn, generation, None)
            ]
        if obs_enabled() and mutations:
            counter("storage.wal_replays", unit="mutations").inc(
                len(mutations)
            )
        return mutations

    @staticmethod
    def _wal_query(
        conn: sqlite3.Connection,
        after_generation: int,
        object_id: ObjectId | None,
    ) -> Iterator[tuple[int, str, TrackingRecord]]:
        sql = (
            "SELECT generation, op, record_id, object_id, device_id, "
            "t_s, t_e FROM wal WHERE generation > ?"
        )
        params: tuple[Any, ...] = (after_generation,)
        if object_id is not None:
            sql += " AND object_id = ?"
            params = (after_generation, _encode_id(object_id))
        sql += " ORDER BY generation"
        for gen, op, rid, obj, dev, t_s, t_e in conn.execute(sql, params):
            yield (
                int(gen),
                str(op),
                TrackingRecord(
                    record_id=int(rid),
                    object_id=_decode_id(obj),
                    device_id=_decode_id(dev),
                    t_s=float(t_s),
                    t_e=float(t_e),
                ),
            )

    def _current_rows(
        self, conn: sqlite3.Connection, object_id: ObjectId | None = None
    ) -> dict[int, StoredRow]:
        rows: dict[int, StoredRow] = {}
        for record, open_flag in self._snapshot_query(conn, object_id):
            rows[record.record_id] = StoredRow(record, open=bool(open_flag))
        for _, op, record in self._wal_query(conn, 0, object_id):
            rows[record.record_id] = StoredRow(
                record, open=op in ("append_open", "extend")
            )
        return rows

    def iter_rows(
        self,
        object_id: ObjectId | None = None,
        t_start: float | None = None,
        t_end: float | None = None,
    ) -> Iterator[StoredRow]:
        """Iterate current rows (snapshot ⊕ tail), filtered and time-sorted."""
        rows = sorted(
            self._current_rows(self._connection(), object_id).values(),
            key=lambda row: (
                row.record.t_s,
                row.record.t_e,
                row.record.record_id,
            ),
        )
        for row in rows:
            if t_start is not None and row.record.t_e < t_start:
                continue
            if t_end is not None and row.record.t_s > t_end:
                continue
            yield row

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def compact(self) -> int:
        """Fold the mutation log into the bulk snapshot, atomically."""
        conn = self._connection()
        with span("storage.compact"):
            rows = self._current_rows(conn)
            folded_row = conn.execute("SELECT COUNT(*) FROM wal").fetchone()
            folded = int(folded_row[0])
            conn.execute("BEGIN IMMEDIATE")
            try:
                conn.execute("DELETE FROM snapshot")
                conn.executemany(
                    "INSERT INTO snapshot (record_id, object_id, device_id, "
                    "t_s, t_e, open) VALUES (?, ?, ?, ?, ?, ?)",
                    [
                        (
                            row.record.record_id,
                            _encode_id(row.record.object_id),
                            _encode_id(row.record.device_id),
                            row.record.t_s,
                            row.record.t_e,
                            int(row.open),
                        )
                        for row in rows.values()
                    ],
                )
                conn.execute("DELETE FROM wal")
                self._set_meta(conn, "snapshot_generation", str(self._generation))
                conn.execute("COMMIT")
            except BaseException:
                conn.execute("ROLLBACK")
                raise
            self._snapshot_generation = self._generation
            with span("storage.flush"):
                conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
        return folded

    def close(self) -> None:
        """Flush and close the connection; unlink ephemeral stores."""
        if self._closed:
            return
        self._closed = True
        if self._conn is not None and self._conn_pid == os.getpid():
            try:
                with span("storage.flush"):
                    self._conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
            except sqlite3.Error:
                pass
            self._conn.close()
        self._conn = None
        if self._ephemeral and self._owner_pid == os.getpid():
            for suffix in ("", "-wal", "-shm"):
                Path(f"{self._path}{suffix}").unlink(missing_ok=True)

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass


def sqlite_shard_stores(directory: str | Path) -> Callable[[int], SQLiteBackend]:
    """Per-shard stores under one directory — a sharded engine's layout.

    Shard ``i`` of a ``FlowEngine(num_shards=N)`` gets
    ``<directory>/shard-ii.sqlite``; the object partition is
    :func:`~repro.core.shard.shard_of`'s ``crc32(object_id) % N``,
    so reopening the same directory with the same shard count recovers
    each partition into its owning shard.

    Args:
        directory: Where the shard databases live (created if missing).

    Returns:
        A ``shard_index -> SQLiteBackend`` factory.
    """
    base = Path(directory)
    base.mkdir(parents=True, exist_ok=True)

    def factory(index: int) -> SQLiteBackend:
        return SQLiteBackend(base / f"shard-{index:02d}.sqlite")

    return factory

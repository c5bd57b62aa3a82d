"""The in-memory reference backend: same semantics, zero durability.

:class:`MemoryBackend` is the protocol's executable specification — the
SQLite backend must be observationally equivalent to it (the backend test
suite runs both through one parametrized battery).  It is also the
default store beneath every :class:`~repro.tracking.table.LiveTrackingTable`,
so the refactored table keeps its original all-in-RAM behaviour unless a
durable backend is supplied.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from ..tracking.records import ObjectId, TrackingRecord
from .base import MUTATION_OPS, Mutation, StoredRow, row_identity

__all__ = ["MemoryBackend"]


def _sort_key(row: StoredRow) -> tuple[float, float, int]:
    return (row.record.t_s, row.record.t_e, row.record.record_id)


class MemoryBackend:
    """A :class:`~repro.storage.base.StorageBackend` held entirely in RAM.

    State is a bulk snapshot plus a mutation log, exactly like the
    durable backend, so snapshot+replay recovery paths exercise the same
    code shape against it (just without surviving the process).
    """

    def __init__(self) -> None:  # noqa: D107
        self._snapshot: list[StoredRow] = []
        self._snapshot_generation = 0
        self._wal: list[Mutation] = []
        #: current state: record_id → row (insertion-ordered).
        self._rows: dict[int, StoredRow] = {}

    # ------------------------------------------------------------------
    # Generations
    # ------------------------------------------------------------------

    @property
    def generation(self) -> int:
        """Monotonic mutation counter; ``0`` iff the store is pristine."""
        return self._snapshot_generation + len(self._wal)

    @property
    def snapshot_generation(self) -> int:
        """The generation the bulk snapshot is current as of."""
        return self._snapshot_generation

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------

    def append_rows(self, rows: Iterable[StoredRow]) -> int:
        """Log a batch of appended rows (idempotent on ``record_id``)."""
        count = 0
        for row in rows:
            record = row.record
            existing = self._rows.get(record.record_id)
            if existing is not None:
                if row_identity(existing.record) != row_identity(record):
                    raise ValueError(
                        f"record {record.record_id} is already stored as "
                        f"{existing.record!r}; refusing conflicting "
                        f"redelivery of {record!r}"
                    )
                continue
            self._log("append_open" if row.open else "append", row)
            count += 1
        return count

    def rewrite_tail_row(self, record: TrackingRecord, *, open: bool) -> None:
        """Log an open tail row's new extent (extend or close)."""
        if record.record_id not in self._rows:
            raise ValueError(
                f"record {record.record_id} was never appended; "
                "cannot rewrite its tail row"
            )
        op = "extend" if open else "close"
        self._log(op, StoredRow(record, open=open))

    def _log(self, op: str, row: StoredRow) -> None:
        assert op in MUTATION_OPS
        self._wal.append(Mutation(self.generation + 1, op, row.record))
        self._rows[row.record.record_id] = row

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def snapshot_rows(self) -> list[StoredRow]:
        """The bulk snapshot as of :attr:`snapshot_generation` (copy)."""
        return list(self._snapshot)

    def replay_since(self, generation: int) -> list[Mutation]:
        """All logged mutations newer than ``generation``, oldest first."""
        return [m for m in self._wal if m.generation > generation]

    def iter_rows(
        self,
        object_id: ObjectId | None = None,
        t_start: float | None = None,
        t_end: float | None = None,
    ) -> Iterator[StoredRow]:
        """Iterate current rows, filtered, in ``(t_s, t_e, record_id)`` order."""
        rows = sorted(self._rows.values(), key=_sort_key)
        for row in rows:
            if object_id is not None and row.record.object_id != object_id:
                continue
            if t_start is not None and row.record.t_e < t_start:
                continue
            if t_end is not None and row.record.t_s > t_end:
                continue
            yield row

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def compact(self) -> int:
        """Fold the mutation log into the bulk snapshot."""
        folded = len(self._wal)
        self._snapshot = sorted(self._rows.values(), key=_sort_key)
        self._snapshot_generation = self.generation
        self._wal.clear()
        return folded

    def close(self) -> None:
        """Nothing to release; the store dies with the process."""

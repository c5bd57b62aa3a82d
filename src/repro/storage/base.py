"""The storage seam: rows, mutations and the backend protocol.

A :class:`StorageBackend` is the durable (or deliberately volatile)
system of record beneath a :class:`~repro.tracking.table.LiveTrackingTable`.
It speaks the table's own mutation vocabulary — append a closed record,
append an open episode, extend it, close it — and exposes exactly the
two read shapes recovery needs:

* a **bulk snapshot** (:meth:`StorageBackend.snapshot_rows`): the rows as
  of the last :meth:`StorageBackend.compact`, cheap to scan and already
  per-object consistent, which :meth:`repro.index.artree.ARTree.build`
  bulk-loads without replaying history;
* a **WAL tail** (:meth:`StorageBackend.replay_since`): every mutation
  after a generation, replayed one by one through the live ingest seam so
  the delta buffer, the open-episode bookkeeping and the cache epochs end
  up exactly where an uninterrupted run would have left them.

**Generations.**  Each accepted mutation gets the next value of a
monotonic counter persisted with it.  The counter is the lingua franca of
recovery: the table's in-memory :attr:`~repro.tracking.table.LiveTrackingTable.generation`
stays in lockstep with the backend's, the
:class:`~repro.core.context.EvaluationContext` data generation is seeded
from it on restore, and ``replay_since(g)`` hands back exactly the
mutations a crash cut off after ``g``.

**Idempotency.**  ``append_rows`` treats ``record_id`` as the external id
of an ``(source, external_id)``-style upsert: re-delivering a record that
is already stored (or stored earlier in the same call) is a skipped no-op
(no generation bump), while a *conflicting* redelivery — same id,
different object/device/start — raises.  This is what lets a resumed
producer simply re-send its whole stream after a crash.

**Batches.**  ``append_rows`` persists a whole batch with one write: the
durable backend commits it as one transaction.  When a row of the batch
fails its check, the rows before it are persisted and then the error is
raised; the rows after it are not looked at.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, Protocol, runtime_checkable

from ..tracking.records import ObjectId, TrackingRecord

__all__ = [
    "Mutation",
    "StorageBackend",
    "StoredRow",
    "MUTATION_OPS",
    "BULK_CHUNK_ROWS",
    "chunked_rows",
    "row_identity",
]

#: The mutation vocabulary, mirroring the live table's mutators.
MUTATION_OPS = ("append", "append_open", "extend", "close")


def row_identity(record: TrackingRecord) -> tuple[ObjectId, object, float]:
    """The upsert identity a ``record_id`` must keep across redeliveries.

    ``t_e`` is deliberately excluded: an open episode's end keeps
    advancing, so a crashed producer legitimately re-sends the episode's
    *initial* extent while the store already holds a later one.
    """
    return (record.object_id, record.device_id, record.t_s)


@dataclass(frozen=True, slots=True)
class StoredRow:
    """One tracking record at its current extent, plus its episode state."""

    record: TrackingRecord
    #: Whether the episode is still advancing (an open tail row).
    open: bool = False


#: Rows per ``append_rows`` call for the bulk writers (table copies, the
#: CSV importer, the datagen store writer): one transaction per chunk,
#: with at most one chunk of rows held in memory.
BULK_CHUNK_ROWS = 4096


def chunked_rows(rows: Iterable[StoredRow]) -> Iterator[list[StoredRow]]:
    """Split a row stream into lists of at most :data:`BULK_CHUNK_ROWS`
    rows, in order."""
    iterator = iter(rows)
    while chunk := list(islice(iterator, BULK_CHUNK_ROWS)):
        yield chunk


@dataclass(frozen=True, slots=True)
class Mutation:
    """One logged table mutation, replayable through the ingest seam.

    ``record`` always carries the row's **post-state**: for ``extend`` and
    ``close`` it is the updated record (same ``record_id``, advanced
    ``t_e``), so replay never needs to re-derive the new extent.
    """

    #: The backend generation this mutation was persisted as.
    generation: int
    #: One of :data:`MUTATION_OPS`.
    op: str
    record: TrackingRecord

    @property
    def open(self) -> bool:
        """Whether the row is an open tail row *after* this mutation."""
        return self.op in ("append_open", "extend")


@runtime_checkable
class StorageBackend(Protocol):
    """What a tracking-data store must provide (see the module docstring).

    Implementations must be safe to hand to exactly one
    :class:`~repro.tracking.table.LiveTrackingTable` at a time; the table
    is the write path (the ``seam`` checker flags direct mutator calls
    outside it).
    """

    @property
    def generation(self) -> int:
        """Monotonic mutation counter; ``0`` iff the store is pristine."""
        ...

    @property
    def snapshot_generation(self) -> int:
        """The generation the bulk snapshot is current as of."""
        ...

    def append_rows(self, rows: Iterable[StoredRow]) -> int:
        """Durably append a batch of rows (idempotent on ``record_id``).

        The batch is one write: the durable backend commits it as one
        transaction, so after a crash it is stored whole or not at all.
        Each row's ``open`` flag says whether it starts an open episode
        (a tail row).

        Args:
            rows: The rows to persist, in stream order.

        Returns:
            The number of rows appended; idempotent redeliveries of an
            already-stored ``record_id`` are skipped (no generation bump).

        Raises:
            ValueError: If a row's ``record_id`` is already stored with a
                different ``(object_id, device_id, t_s)`` identity.  The
                rows before it are persisted first, one generation each
                (the owning table applies as many rows as the generation
                moved), and the same holds for any other row the backend
                refuses.
        """
        ...

    def rewrite_tail_row(self, record: TrackingRecord, *, open: bool) -> None:
        """Persist an open tail row's new extent (extend or close).

        Args:
            record: The updated record (same ``record_id``, advanced
                ``t_e``).
            open: ``True`` keeps the episode advancing (extend); ``False``
                fixes it (close).

        Raises:
            ValueError: If ``record_id`` was never appended.
        """
        ...

    def snapshot_rows(self) -> list[StoredRow]:
        """The bulk snapshot as of :attr:`snapshot_generation`.

        Rows are sorted by ``(t_s, t_e, record_id)`` — the canonical
        stream order — and are per-object consistent by construction.
        """
        ...

    def replay_since(self, generation: int) -> list[Mutation]:
        """All logged mutations with ``generation > generation`` (arg), in order."""
        ...

    def iter_rows(
        self,
        object_id: ObjectId | None = None,
        t_start: float | None = None,
        t_end: float | None = None,
    ) -> Iterator[StoredRow]:
        """Iterate current rows (snapshot ⊕ tail), filtered and time-sorted.

        Args:
            object_id: Restrict to one object's rows.
            t_start: Keep rows with ``t_e >= t_start``.
            t_end: Keep rows with ``t_s <= t_end``.

        Yields:
            Matching rows sorted by ``(t_s, t_e, record_id)``.
        """
        ...

    def compact(self) -> int:
        """Fold the WAL tail into the bulk snapshot.

        Returns:
            The number of tail mutations folded in.  Afterwards
            ``snapshot_generation == generation`` and ``replay_since``
            from the snapshot is empty.
        """
        ...

    def close(self) -> None:
        """Release the store's resources (idempotent)."""
        ...

"""The Object Tracking Table (OTT), batch and live.

The OTT stores the historical tracking records of all objects (paper,
Table 2).  Two variants share one read-side core (:class:`_TrackingReads`):

* :class:`ObjectTrackingTable` — the batch table.  Records may arrive in
  any global order; per-object ordering and non-overlap are validated on
  :meth:`~ObjectTrackingTable.freeze`, after which the table is immutable
  and query-ready.
* :class:`LiveTrackingTable` — the streaming table.  Records must arrive
  in per-object time order and are validated *at append time*; the table
  is always query-ready, supports **open episodes** (a record whose
  ``t_e`` is still advancing as the object keeps being detected) and
  exposes a monotonically increasing :attr:`~LiveTrackingTable.generation`
  counter that downstream caches key their invalidation on.

Besides plain storage both offer the per-object temporal lookups the
uncertainty analysis needs — the record covering a time point, and the
predecessor/successor records around an undetected gap — which double as
the brute-force reference implementation the AR-tree is tested against.
"""

from __future__ import annotations

import bisect
from itertools import groupby
from typing import AbstractSet, Callable, Iterable, Iterator, Sequence

from ..contracts import contracts_enabled, check_storage_generation
from ..storage.base import (
    Mutation,
    StorageBackend,
    StoredRow,
    chunked_rows,
    row_identity,
)
from ..storage.env import default_live_backend
from .records import ObjectId, TrackingRecord

__all__ = ["ObjectTrackingTable", "LiveTrackingTable"]

#: Called by :meth:`LiveTrackingTable.append_batch` for each appended row,
#: in order, with the object's previous last record (``None`` for its
#: first): how the ingest seam keeps the AR-tree and the cache epochs in
#: step with the table.
AppendHook = Callable[[StoredRow, TrackingRecord | None], None]

#: Called by :meth:`LiveTrackingTable.replay` for each replayed extend or
#: close, with the updated record and whether its episode is still open.
RewriteHook = Callable[[TrackingRecord, bool], None]


def _validate_successor(
    object_id: ObjectId, previous: TrackingRecord, current: TrackingRecord
) -> None:
    """Per-object consistency: sorted by time and non-overlapping.

    An object is seen by one device at a time (the paper assumes
    non-overlapping detection ranges, Section 3.4 Remark), so a record may
    start no earlier than its predecessor ends.
    """
    if current.t_s < previous.t_e:
        raise ValueError(
            f"object {object_id!r}: record {current.record_id} "
            f"(t_s={current.t_s}) overlaps record "
            f"{previous.record_id} (t_e={previous.t_e})"
        )


class _TrackingReads:
    """The read side shared by the frozen and the live table.

    Subclasses maintain ``_records`` (global arrival order), ``_by_object``
    (per-object, time-sorted once queryable) and ``_start_times`` (the
    parallel ``t_s`` lists the bisect lookups run on), and gate queries
    through :meth:`_require_queryable`.
    """

    def __init__(self) -> None:
        self._records: list[TrackingRecord] = []
        self._by_object: dict[ObjectId, list[TrackingRecord]] = {}
        self._start_times: dict[ObjectId, list[float]] = {}

    def _require_queryable(self) -> None:  # pragma: no cover - overridden
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TrackingRecord]:
        return iter(self._records)

    @property
    def object_ids(self) -> list[ObjectId]:
        """All object ids with at least one record (copy)."""
        return list(self._by_object.keys())

    @property
    def object_count(self) -> int:
        """How many distinct objects the table tracks."""
        return len(self._by_object)

    @property
    def open_object_ids(self) -> frozenset[ObjectId]:
        """Objects with an episode still advancing (always empty when frozen)."""
        return frozenset()

    def time_span(self) -> tuple[float, float]:
        """The (min t_s, max t_e) over all records."""
        self._require_queryable()
        if not self._records:
            raise ValueError("empty OTT has no time span")
        return (
            min(record.t_s for record in self._records),
            max(record.t_e for record in self._records),
        )

    def records_for(self, object_id: ObjectId) -> list[TrackingRecord]:
        """The object's records sorted by start time (copy)."""
        self._require_queryable()
        return list(self._by_object.get(object_id, []))

    # ------------------------------------------------------------------
    # Temporal lookups (reference implementation for the AR-tree)
    # ------------------------------------------------------------------

    def record_covering(
        self, object_id: ObjectId, t: float
    ) -> TrackingRecord | None:
        """The record whose detection episode covers ``t``, if any."""
        self._require_queryable()
        sequence = self._by_object.get(object_id)
        if not sequence:
            return None
        index = bisect.bisect_right(self._start_times[object_id], t) - 1
        if index >= 0 and sequence[index].covers(t):
            return sequence[index]
        return None

    def predecessor(
        self, object_id: ObjectId, t: float
    ) -> TrackingRecord | None:
        """The last record with ``t_e < t`` — ``rd_pre`` for an inactive state.

        For an *active* state the paper's ``rd_pre`` is instead the
        predecessor of the covering record; use :meth:`previous_record`.
        """
        self._require_queryable()
        sequence = self._by_object.get(object_id)
        if not sequence:
            return None
        candidate = None
        for record in sequence:
            if record.t_e < t:
                candidate = record
            else:
                break
        return candidate

    def successor(self, object_id: ObjectId, t: float) -> TrackingRecord | None:
        """The first record with ``t_s > t`` — ``rd_suc`` for an inactive state."""
        self._require_queryable()
        sequence = self._by_object.get(object_id)
        if not sequence:
            return None
        index = bisect.bisect_right(self._start_times[object_id], t)
        if index < len(sequence):
            return sequence[index]
        return None

    def previous_record(
        self, object_id: ObjectId, record: TrackingRecord
    ) -> TrackingRecord | None:
        """The record immediately before ``record`` for the same object."""
        self._require_queryable()
        sequence = self._by_object.get(object_id, [])
        for previous, current in zip(sequence, sequence[1:]):
            if current.record_id == record.record_id:
                return previous
        return None

    def records_overlapping(
        self, object_id: ObjectId, t_start: float, t_end: float
    ) -> list[TrackingRecord]:
        """The object's records intersecting the closed window."""
        self._require_queryable()
        return [
            record
            for record in self._by_object.get(object_id, [])
            if record.overlaps(t_start, t_end)
        ]


class ObjectTrackingTable(_TrackingReads):
    """An append-only table of tracking records with per-object ordering.

    Records of the same object must be temporally consistent: sorted by
    ``t_s`` and non-overlapping.  Consistency is validated on
    :meth:`freeze`, after which the table is immutable — this is the
    frozen core batch engines index and the substrate
    :class:`LiveTrackingTable` snapshots into.
    """

    def __init__(self, records: Iterable[TrackingRecord] = ()):  # noqa: D107
        super().__init__()
        self._frozen = False
        for record in records:
            self.append(record)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def append(self, record: TrackingRecord) -> None:
        """Add a record (records may arrive in any global order).

        Args:
            record: The closed tracking record to store.

        Raises:
            RuntimeError: If the table was already frozen.
        """
        if self._frozen:
            raise RuntimeError("cannot append to a frozen OTT")
        self._records.append(record)
        self._by_object.setdefault(record.object_id, []).append(record)

    @classmethod
    def from_backend(cls, backend: StorageBackend) -> "ObjectTrackingTable":
        """A frozen table over a storage backend's current rows.

        Open tail rows are included at their current extent — this is the
        batch snapshot of whatever the store holds right now, validated
        like any other frozen table.

        Args:
            backend: The store to read (snapshot ⊕ WAL tail).

        Returns:
            A new, already-frozen :class:`ObjectTrackingTable`.

        Raises:
            ValueError: If the stored rows are temporally inconsistent.
        """
        return cls(row.record for row in backend.iter_rows()).freeze()

    def freeze(self) -> "ObjectTrackingTable":
        """Sort per-object sequences, validate them and lock the table.

        Idempotent: freezing a frozen table is a no-op.

        Returns:
            ``self``, now immutable and query-ready.

        Raises:
            ValueError: If any object's records overlap in time.
        """
        if self._frozen:
            return self
        for object_id, sequence in self._by_object.items():
            sequence.sort(key=lambda record: (record.t_s, record.t_e))
            self._validate_sequence(object_id, sequence)
            self._start_times[object_id] = [record.t_s for record in sequence]
        self._frozen = True
        return self

    @staticmethod
    def _validate_sequence(
        object_id: ObjectId, sequence: Sequence[TrackingRecord]
    ) -> None:
        for previous, current in zip(sequence, sequence[1:]):
            _validate_successor(object_id, previous, current)

    def _require_queryable(self) -> None:
        if not self._frozen:
            raise RuntimeError("freeze() the OTT before querying it")

    # ------------------------------------------------------------------
    # Partitioning
    # ------------------------------------------------------------------

    def partition_view(
        self, object_ids: AbstractSet[ObjectId]
    ) -> "ObjectTrackingTable":
        """A frozen table holding only the given objects' records.

        The restriction of a consistent table is consistent, so the view
        is assembled directly from the parent's validated per-object
        sequences (sharing the record instances) without re-validating.

        Args:
            object_ids: The objects the view keeps (ids without records
                are simply absent from the view).

        Returns:
            A new, already-frozen :class:`ObjectTrackingTable`.

        Raises:
            RuntimeError: If this table was not frozen yet.
        """
        self._require_queryable()
        view = ObjectTrackingTable()
        view._records = [
            record for record in self._records if record.object_id in object_ids
        ]
        for object_id, sequence in self._by_object.items():
            if object_id in object_ids:
                view._by_object[object_id] = list(sequence)
                view._start_times[object_id] = list(self._start_times[object_id])
        view._frozen = True
        return view


class LiveTrackingTable(_TrackingReads):
    """An append-capable OTT validated at append time, for live ingestion.

    Unlike the batch table, records of one object must arrive in time
    order — each append is checked against the object's current tail
    record immediately, so an inconsistent stream fails at the offending
    record instead of at a much later ``freeze()``.  The table is always
    queryable; there is no frozen state.

    **Open episodes.**  A record appended with ``open=True`` models an
    object currently inside a device's range: its ``t_e`` is the latest
    observation so far and keeps advancing via :meth:`extend_episode`
    until :meth:`close_episode` fixes it.  At most one episode per object
    may be open, and it is always the object's last record.

    **Generation.**  Every mutation (append, extend, close) increments
    :attr:`generation`, a monotonic counter engines and caches use to
    detect that the table moved under them.

    **Storage.**  The table owns its in-memory read structures but not
    the data: every mutation is written through to a
    :class:`~repro.storage.base.StorageBackend` *before* the structures
    are updated, so the store never lags the table (kill the process
    between any two mutations and the store holds a consistent prefix).
    A batch of appends (:meth:`append_batch`) is validated whole, then
    written with one backend call, then applied.
    Without an explicit ``backend`` the environment-selected default is
    used — :class:`~repro.storage.memory.MemoryBackend` unless
    ``REPRO_STORAGE_BACKEND=sqlite``.  Constructing a table over an
    already-populated backend *recovers* it: the bulk snapshot is loaded
    directly and the WAL tail replayed, after which the table (and its
    :attr:`generation`) is exactly where the crashed writer left it.

    **Idempotency.**  Re-appending an already-stored ``record_id`` with
    the same identity is a no-op returning ``False`` (no generation
    bump), so a producer may simply re-send its whole stream after a
    crash; a *conflicting* redelivery raises.
    """

    def __init__(
        self,
        records: Iterable[TrackingRecord] = (),
        *,
        backend: StorageBackend | None = None,
    ):  # noqa: D107
        self._init_state(backend if backend is not None else default_live_backend())
        if self._backend.generation > 0:
            records = list(records)
            if records:
                raise ValueError(
                    "pass initial records or an already-populated backend, "
                    "not both"
                )
            self._fill_from_snapshot()
            self.replay(self._backend.replay_since(self._generation))
            self._check_backend_sync()
        else:
            for chunk in chunked_rows(StoredRow(record) for record in records):
                self.append_batch(chunk)

    def _init_state(self, backend: StorageBackend) -> None:
        _TrackingReads.__init__(self)
        self._generation = 0
        #: open episode per object: index of the record in ``_records``.
        self._open: dict[ObjectId, int] = {}
        #: every stored record by id (idempotent-redelivery detection).
        self._by_record_id: dict[int, TrackingRecord] = {}
        #: write-through off only while applying already-persisted state.
        self._persist = True
        self._backend = backend

    def _require_queryable(self) -> None:
        pass  # a live table is always consistent, hence always queryable

    # ------------------------------------------------------------------
    # Storage
    # ------------------------------------------------------------------

    @property
    def backend(self) -> StorageBackend:
        """The storage backend every mutation is written through to."""
        return self._backend

    def checkpoint(self) -> int:
        """Fold the backend's WAL tail into its bulk snapshot.

        After a checkpoint, reopening the store bulk-loads everything and
        replays nothing.  Returns the number of mutations folded in.
        """
        return self._backend.compact()

    @classmethod
    def restore_snapshot(cls, backend: StorageBackend) -> "LiveTrackingTable":
        """A table over the persisted bulk snapshot only, tail unapplied.

        This is the engine-recovery seam: the returned table matches the
        state the AR-tree bulk-loads, and the caller then drives
        ``backend.replay_since(table.generation)`` through the ingest
        path (:meth:`replay` with index/cache hooks) so every
        layer advances in lockstep.  To recover a standalone table in one
        step, construct ``LiveTrackingTable(backend=backend)`` instead.

        Args:
            backend: The store to recover from.

        Returns:
            A table at ``backend.snapshot_generation``.
        """
        table = cls.__new__(cls)
        table._init_state(backend)
        table._fill_from_snapshot()
        return table

    def _fill_from_snapshot(self) -> None:
        """Bulk-load the backend's snapshot rows (no per-row persistence)."""
        for row in self._backend.snapshot_rows():
            record = row.record
            object_id = record.object_id
            if object_id in self._open:
                raise ValueError(
                    f"corrupt snapshot: object {object_id!r} has a row "
                    f"after its open tail row"
                )
            sequence = self._by_object.get(object_id)
            if sequence:
                _validate_successor(object_id, sequence[-1], record)
            self._records.append(record)
            self._by_object.setdefault(object_id, []).append(record)
            self._start_times.setdefault(object_id, []).append(record.t_s)
            self._by_record_id[record.record_id] = record
            if row.open:
                self._open[object_id] = len(self._records) - 1
        self._generation = self._backend.snapshot_generation

    def replay(
        self,
        mutations: Iterable[Mutation],
        on_append: AppendHook | None = None,
        on_rewrite: RewriteHook | None = None,
    ) -> None:
        """Apply already-persisted mutations without re-persisting them.

        Mutations must come in generation order, immediately following
        this table's current generation.  Each run of consecutive appends
        is applied as one :meth:`append_batch` (calling ``on_append`` per
        row); each extend or close is applied on its own, then
        ``on_rewrite(record, open)`` is called.

        Args:
            mutations: The logged mutations (from ``backend.replay_since``).
            on_append: Called per replayed append, as in :meth:`append_batch`.
            on_rewrite: Called per replayed extend or close.

        Raises:
            ValueError: If a mutation is out of order, has an unknown op
                or fails the usual at-append validation.
        """
        self._persist = False
        try:
            for appends, group in groupby(
                mutations, key=lambda m: m.op in ("append", "append_open")
            ):
                run = list(group)
                for expected, mutation in enumerate(run, self._generation + 1):
                    if mutation.generation != expected:
                        raise ValueError(
                            f"mutation {mutation.generation} replayed out of "
                            f"order (table is at generation {expected - 1})"
                        )
                if appends:
                    rows = (StoredRow(m.record, open=m.open) for m in run)
                    if self.append_batch(rows, on_append) != len(run):
                        raise ValueError(
                            "a logged append replayed as a redelivery"
                        )
                    continue
                for mutation in run:
                    if mutation.op not in ("extend", "close"):
                        raise ValueError(f"unknown mutation op {mutation.op!r}")
                    record = mutation.record
                    self._advance_open(
                        record.object_id, record.t_e, close=not mutation.open
                    )
                    if on_rewrite is not None:
                        on_rewrite(record, mutation.open)
        finally:
            self._persist = True

    def copy_into(self, backend: StorageBackend) -> "LiveTrackingTable":
        """Replay this table's whole stream into an empty backend.

        The attach path for pre-loaded data: the returned table owns
        ``backend`` (now holding every record, open episodes preserved)
        and continues from this table's state; ``self`` is left untouched
        on its own backend.

        Args:
            backend: The pristine store to populate.

        Returns:
            A new :class:`LiveTrackingTable` written through ``backend``.

        Raises:
            ValueError: If ``backend`` already holds data.
        """
        if backend.generation > 0:
            raise ValueError(
                "copy_into needs a pristine backend; construct "
                "LiveTrackingTable(backend=...) to recover a populated one"
            )
        view = LiveTrackingTable(backend=backend)
        for chunk in chunked_rows(self._stored_rows()):
            view.append_batch(chunk)
        return view

    def _stored_rows(
        self, object_ids: AbstractSet[ObjectId] | None = None
    ) -> Iterator[StoredRow]:
        """Rows of ``object_ids`` (every object if ``None``), in arrival order."""
        open_indices = set(self._open.values())
        for index, record in enumerate(self._records):
            if object_ids is None or record.object_id in object_ids:
                yield StoredRow(record, open=index in open_indices)

    def _check_backend_sync(self) -> None:
        if contracts_enabled():
            check_storage_generation(self._generation, self._backend.generation)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def generation(self) -> int:
        """Monotonically increasing mutation counter (0 when pristine)."""
        return self._generation

    @property
    def open_object_ids(self) -> frozenset[ObjectId]:
        """Objects whose latest episode is still advancing."""
        return frozenset(self._open)

    def last_record(self, object_id: ObjectId) -> TrackingRecord | None:
        """The object's latest record (open or closed), if any."""
        sequence = self._by_object.get(object_id)
        return sequence[-1] if sequence else None

    def open_record(self, object_id: ObjectId) -> TrackingRecord | None:
        """The object's open episode at its current extent, if one is open."""
        index = self._open.get(object_id)
        return self._records[index] if index is not None else None

    # ------------------------------------------------------------------
    # Mutation (validated per call)
    # ------------------------------------------------------------------

    def append(self, record: TrackingRecord, *, open: bool = False) -> bool:
        """Append one record, validating order/non-overlap right now.

        ``open=True`` leaves the episode advancing (see the class
        docstring).  Appending to an object with an open episode is
        rejected — close it first, the stream is ambiguous otherwise.
        This is :meth:`append_batch` with a batch of one.

        Args:
            record: The record to append; its ``t_s`` must not precede
                the object's current tail ``t_e``.
            open: Keep the episode advancing (``t_e`` patchable).

        Returns:
            ``True`` if the record was appended, ``False`` for an
            idempotent redelivery of an already-stored ``record_id``
            (a no-op; the generation does not move).

        Raises:
            ValueError: If a conflicting record under a stored id is
                redelivered, the object has an open episode, or the
                record overlaps / precedes the object's tail record.
        """
        return self.append_batch([StoredRow(record, open=open)]) == 1

    def append_batch(
        self, rows: Iterable[StoredRow], on_append: AppendHook | None = None
    ) -> int:
        """Append a batch of rows: validate, then persist once, then apply.

        Every row is validated against the table plus the batch's earlier
        rows, exactly as if the rows were appended one by one: an
        idempotent redelivery (a stored ``record_id`` with the same
        identity, or one repeated inside the batch) is skipped; a
        conflicting redelivery, an append to an object with an open
        episode, and a record overlapping or preceding the object's tail
        record raise.  The new rows are then persisted with **one**
        :meth:`~repro.storage.base.StorageBackend.append_rows` call and
        applied to the read structures in order, one generation each,
        calling ``on_append`` per row.

        When a row fails validation, the rows before it are persisted and
        applied, then its error is raised; the rows after it are not
        looked at.  When the backend refuses a row, the rows it stored
        before that one are applied and its error is raised; when the
        backend's transaction fails, nothing is stored or applied.

        Args:
            rows: The rows in stream order; ``row.open`` starts an open
                episode.
            on_append: Called per appended row with the object's previous
                last record (``None`` for its first).

        Returns:
            The number of rows appended (redeliveries excluded).

        Raises:
            ValueError: As :meth:`append`, for the first invalid row.
            TypeError: From the SQLite backend, for an object or device
                id that is not a ``str``/``int``.
            RuntimeError: If the backend already held a row the table did
                not know about (it has a second writer).
        """
        batch: list[StoredRow] = []
        predecessors: list[TrackingRecord | None] = []
        tails: dict[ObjectId, TrackingRecord] = {}
        fresh: dict[int, TrackingRecord] = {}
        opened: dict[ObjectId, int] = {}
        try:
            for row in rows:
                record = row.record
                object_id = record.object_id
                existing = fresh.get(record.record_id)
                if existing is None:
                    existing = self._by_record_id.get(record.record_id)
                if existing is not None:
                    if row_identity(existing) != row_identity(record):
                        raise ValueError(
                            f"record {record.record_id} is already stored as "
                            f"{existing!r}; refusing conflicting redelivery "
                            f"of {record!r}"
                        )
                    continue
                open_id = opened.get(object_id)
                if open_id is None and object_id in self._open:
                    open_id = self._records[self._open[object_id]].record_id
                if open_id is not None:
                    raise ValueError(
                        f"object {object_id!r} has an open episode (record "
                        f"{open_id}); close_episode() before appending the "
                        "next record"
                    )
                predecessor = tails.get(object_id)
                if predecessor is None:
                    predecessor = self.last_record(object_id)
                if predecessor is not None:
                    _validate_successor(object_id, predecessor, record)
                batch.append(row)
                predecessors.append(predecessor)
                tails[object_id] = record
                fresh[record.record_id] = record
                if row.open:
                    opened[object_id] = record.record_id
        finally:
            # The valid prefix goes in even when a row failed.
            if batch:
                self._apply_batch(batch, predecessors, on_append)
        return len(batch)

    def _apply_batch(
        self,
        batch: list[StoredRow],
        predecessors: list[TrackingRecord | None],
        on_append: AppendHook | None,
    ) -> None:
        """Persist validated rows with one backend call, then apply them.

        When the backend refuses a row (say, an id type it cannot store),
        it has stored the rows before that one; those are applied too, so
        the table stays at the backend's generation, and then the error
        propagates.
        """
        if self._persist:
            before = self._backend.generation
            try:
                stored = self._backend.append_rows(batch)
            except BaseException:
                self._apply_rows(
                    batch[: self._backend.generation - before],
                    predecessors,
                    on_append,
                )
                raise
            if stored != len(batch):
                raise RuntimeError(
                    "backend already held records of the batch the table "
                    "did not know about; a storage backend must have "
                    "exactly one writing table"
                )
        self._apply_rows(batch, predecessors, on_append)

    def _apply_rows(
        self,
        batch: list[StoredRow],
        predecessors: list[TrackingRecord | None],
        on_append: AppendHook | None,
    ) -> None:
        """Apply persisted rows to the read structures, in order."""
        for row, predecessor in zip(batch, predecessors):
            record = row.record
            object_id = record.object_id
            self._records.append(record)
            self._by_object.setdefault(object_id, []).append(record)
            self._start_times.setdefault(object_id, []).append(record.t_s)
            self._by_record_id[record.record_id] = record
            if row.open:
                self._open[object_id] = len(self._records) - 1
            self._generation += 1
            if on_append is not None:
                on_append(row, predecessor)
        if self._persist:
            self._check_backend_sync()

    def extend_episode(self, object_id: ObjectId, t_e: float) -> TrackingRecord:
        """Advance the open episode's ``t_e`` (must not move backwards).

        Args:
            object_id: The object whose episode is open.
            t_e: The new end time.

        Returns:
            The updated record (a fresh immutable instance with the same
            ``record_id``).

        Raises:
            ValueError: If no episode is open or ``t_e`` retreats.
        """
        return self._advance_open(object_id, t_e, close=False)

    def close_episode(
        self, object_id: ObjectId, t_e: float | None = None
    ) -> TrackingRecord:
        """Fix the open episode's end time and make it a normal record.

        Args:
            object_id: The object whose episode is open.
            t_e: Final end time; ``None`` closes at the current extent.

        Returns:
            The final, closed record.

        Raises:
            ValueError: If no episode is open or ``t_e`` retreats.
        """
        return self._advance_open(object_id, t_e, close=True)

    def _advance_open(
        self, object_id: ObjectId, t_e: float | None, *, close: bool
    ) -> TrackingRecord:
        index = self._open.get(object_id)
        if index is None:
            raise ValueError(f"object {object_id!r} has no open episode")
        record = self._records[index]
        if t_e is None:
            t_e = record.t_e
        if t_e < record.t_e:
            raise ValueError(
                f"object {object_id!r}: episode end moved backwards "
                f"({t_e} < {record.t_e})"
            )
        updated = TrackingRecord(
            record_id=record.record_id,
            object_id=record.object_id,
            device_id=record.device_id,
            t_s=record.t_s,
            t_e=t_e,
        )
        if self._persist:
            self._backend.rewrite_tail_row(updated, open=not close)
        self._records[index] = updated
        self._by_object[object_id][-1] = updated
        self._by_record_id[updated.record_id] = updated
        if close:
            del self._open[object_id]
        self._generation += 1
        if self._persist:
            self._check_backend_sync()
        return updated

    # ------------------------------------------------------------------
    # Partitioning
    # ------------------------------------------------------------------

    def partition_view(
        self, object_ids: AbstractSet[ObjectId]
    ) -> "LiveTrackingTable":
        """A live table holding only the given objects' stream so far.

        Open episodes stay open in the view, so a shard can keep
        extending/closing them independently.  The view starts its own
        generation counter at the number of replayed mutations; it does
        not stay connected to the parent — it is the hand-off point when
        a fleet partitions one incoming stream across shards.

        Args:
            object_ids: The objects the view keeps.

        Returns:
            A new :class:`LiveTrackingTable` over the filtered records.
        """
        view = LiveTrackingTable()
        for chunk in chunked_rows(self._stored_rows(object_ids)):
            view.append_batch(chunk)
        return view

    # ------------------------------------------------------------------
    # Snapshotting
    # ------------------------------------------------------------------

    def freeze(self) -> ObjectTrackingTable:
        """An immutable :class:`ObjectTrackingTable` copy of the current state.

        Open episodes are included at their current extent; the live table
        itself stays live (freezing is a snapshot, not a transition).
        """
        return ObjectTrackingTable(self._records).freeze()

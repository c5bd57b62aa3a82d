"""`ShardState` — one object partition's tracking data and index.

The paper's flow score is a per-object sum, ``Φ(p) = Σ_o φ(o)``
(Definition 2), so the tracking data partitions cleanly by object id.
A :class:`~repro.core.engine.FlowEngine` keeps one ``ShardState`` per
partition; each owns exactly:

* its slice of the OTT (a partition view of the batch or live table),
* the AR-tree over that slice (bulk core + LSM-style delta),
* its storage backend, if any,
* the live-ingest seam that keeps table, AR-tree and cache epochs in
  step.

Everything else — the evaluation context (parameters, caches, per-object
tail epochs, one estimator, one topology checker), the POI R-tree and the
subset-tree memo — belongs to the engine and is shared by all shards.  A
shard's ingest hooks roll epochs on that shared context.  Queries run the
paper's algorithms once over the shards' merged AR-tree candidates
(:func:`~repro.core.states.snapshot_contexts`), so a shard answers no
query itself.

:func:`shard_of` is the object partition behind ``num_shards > 1``
(``crc32(object_id) % N``) and :func:`build_shards` splits a tracking
table into a fleet's shards along it.
"""

from __future__ import annotations

import zlib
from pathlib import Path
from typing import Any, Iterable

from ..geometry import Region
from ..index import ARTree
from ..index.artree import DEFAULT_DELTA_THRESHOLD
from ..obs import span
from ..storage.base import Mutation, StorageBackend, StoredRow
from ..storage.sqlite import sqlite_shard_stores
from ..tracking.records import ObjectId, TrackingRecord
from ..tracking.table import LiveTrackingTable, ObjectTrackingTable
from .context import EvaluationContext
from .states import interval_context_from_entries, snapshot_context
from .uncertainty import IntervalUncertainty

__all__ = ["ShardState", "build_shards", "shard_of"]


class ShardState:
    """One object partition's table, AR-tree, store and ingest seam.

    Parameters
    ----------
    ott:
        The tracking table (batch or live).  With ``object_ids`` the
        shard keeps a partition view of it.
    ctx:
        The engine's evaluation context; the shard's ingest hooks report
        every append to it (:meth:`EvaluationContext.note_append`).
    artree_fanout, artree_delta_threshold:
        The AR-tree's node capacity and auto-compaction threshold.
    live:
        Keep the table append-capable (implied by a live ``ott``).
    object_ids:
        The partition's object ids, or ``None`` for the whole table.
    storage:
        A backend the live table writes through to.  A pristine one is
        seeded with the shard's records; a populated one **recovers**
        (``ott`` must then be empty): its snapshot generation is added
        to ``ctx``'s data generation and its WAL tail replayed.
    """

    def __init__(
        self,
        ott: ObjectTrackingTable | LiveTrackingTable,
        ctx: EvaluationContext,
        artree_fanout: int = 16,
        live: bool = False,
        artree_delta_threshold: int = DEFAULT_DELTA_THRESHOLD,
        object_ids: frozenset[ObjectId] | None = None,
        storage: StorageBackend | None = None,
    ):
        self.ctx = ctx
        self._storage = storage
        self._closed = False
        if storage is not None and not (live or isinstance(ott, LiveTrackingTable)):
            raise ValueError(
                "a storage backend needs a live shard; pass live=True or "
                "a LiveTrackingTable"
            )
        self._live: LiveTrackingTable | None
        restored_tail: list[Mutation] = []
        if storage is not None and storage.generation > 0:
            # Recovery: the store is authoritative.  Bulk-load its
            # snapshot (the AR-tree below does the same), keep the WAL
            # tail aside and replay it through the ingest seam once the
            # index exists.
            if len(ott):
                raise ValueError(
                    "recovering from a populated storage backend requires "
                    "an empty tracking table; pass records or storage, "
                    "not both"
                )
            self._live = LiveTrackingTable.restore_snapshot(storage)
            restored_tail = storage.replay_since(self._live.generation)
            table: ObjectTrackingTable | LiveTrackingTable = self._live
        else:
            if isinstance(ott, LiveTrackingTable):
                self._live = ott
            elif live:
                # A batch table allows any arrival order; replaying it
                # sorted satisfies in-order at-append validation.
                self._live = LiveTrackingTable(
                    sorted(ott, key=lambda r: (r.t_s, r.t_e, r.record_id))
                )
            else:
                self._live = None
            table = self._live if self._live is not None else ott.freeze()
            if object_ids is not None:
                table = table.partition_view(object_ids)
                if self._live is not None:
                    assert isinstance(table, LiveTrackingTable)
                    self._live = table
            if storage is not None:
                # Attach: seed the pristine store with the shard's
                # current records (open episodes preserved).
                assert isinstance(table, LiveTrackingTable)
                self._live = table.copy_into(storage)
                table = self._live
        self.ott: ObjectTrackingTable | LiveTrackingTable = table
        self.artree = ARTree.build(
            self.ott,
            fanout=artree_fanout,
            delta_threshold=artree_delta_threshold,
        )
        if storage is not None and storage.generation > 0:
            # The context's data generation counts every shard's
            # mutations: add this store's snapshot generation, then
            # replay the WAL tail as ordinary ingest so table, AR-tree
            # delta and cache epochs advance exactly as the crashed
            # writer's did.
            ctx.sync_generation(ctx.data_generation + storage.snapshot_generation)
            with span("ingest.replay"):
                self._require_live().replay(
                    restored_tail, self._index_append, self._index_rewrite
                )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def is_live(self) -> bool:
        """Whether the shard accepts new tracking records."""
        return self._live is not None

    @property
    def generation(self) -> int:
        """The live table's mutation counter (0 for a frozen shard)."""
        return self._live.generation if self._live is not None else 0

    @property
    def storage(self) -> StorageBackend | None:
        """The explicit storage backend this shard recovers from, if any."""
        return self._storage

    # ------------------------------------------------------------------
    # Uncertainty-region introspection
    # ------------------------------------------------------------------

    def snapshot_region_of(self, object_id: ObjectId, t: float) -> Region | None:
        """``UR(o, t)`` for one of this shard's objects, or ``None``.

        Resolved through the AR-tree's per-object entry lookup, so the cost
        is O(records of the object), independent of the population size.

        Args:
            object_id: The tracked object.
            t: The query instant.

        Returns:
            The (possibly topology-checked) uncertainty region, or
            ``None`` when no detection episode makes the object
            trackable at ``t``.
        """
        for entry in self.artree.entries_for(object_id):
            if entry.covers(t):
                return self.ctx.snapshot_region(snapshot_context(entry, t))
        return None

    def interval_region_of(
        self, object_id: ObjectId, t_start: float, t_end: float
    ) -> IntervalUncertainty | None:
        """``UR(o, [t_s, t_e])`` for one of this shard's objects, or ``None``.

        Like :meth:`snapshot_region_of`, resolved per object rather than by
        scanning every object relevant to the window.

        Args:
            object_id: The tracked object.
            t_start: Window start (inclusive).
            t_end: Window end (inclusive).

        Returns:
            The object's :class:`IntervalUncertainty` (episodes, region,
            MBRs), or ``None`` when none of its records overlap the
            window.

        Raises:
            ValueError: If ``t_end`` precedes ``t_start``.
        """
        if t_end < t_start:
            raise ValueError("t_end precedes t_start")
        entries = [
            entry
            for entry in self.artree.entries_for(object_id)
            if entry.overlaps(t_start, t_end)
        ]
        if not entries:
            return None
        context = interval_context_from_entries(
            object_id, entries, t_start, t_end
        )
        return self.ctx.interval_uncertainty(context)

    # ------------------------------------------------------------------
    # Live ingestion (the engine's ingest seam — see repro.analysis.seams)
    # ------------------------------------------------------------------

    def _require_live(self) -> LiveTrackingTable:
        if self._closed:
            # The live table still holds the closed backend; letting a
            # mutation through would surface as a storage-driver error
            # (e.g. sqlite3.ProgrammingError) instead of the documented
            # terminal state.
            raise RuntimeError(
                "engine is closed: its storage backend has been flushed "
                "and released; closing is terminal"
            )
        if self._live is None:
            raise RuntimeError(
                "this shard is frozen-batch; construct it with live=True "
                "to ingest records"
            )
        return self._live

    def ingest_batch(self, records: Iterable[TrackingRecord]) -> int:
        """Append closed records: table, AR-tree and cache epochs in step.

        The live table validates the whole batch, persists its new
        records with one backend call and applies them; each applied
        record then enters the AR-tree and rolls its object's cache
        epoch, in batch order.

        Args:
            records: Closed tracking records in per-object time order.

        Records the live table reports as idempotent redeliveries (an
        already-stored ``record_id`` re-sent after a producer crash) are
        skipped without touching the index or the cache epochs.

        Returns:
            The number of records ingested (redeliveries excluded).

        Raises:
            RuntimeError: If the shard is frozen-batch.
            ValueError: If a record fails at-append validation; the
                records before it stay ingested.
        """
        live = self._require_live()
        with span("ingest.batch"):
            return live.append_batch(
                (StoredRow(record) for record in records), self._index_append
            )

    def ingest_open_episode(self, record: TrackingRecord) -> None:
        """Start an open detection episode (``t_e`` still advancing).

        Args:
            record: The episode's initial extent.

        Raises:
            RuntimeError: If the shard is frozen-batch.
            ValueError: If the record fails at-append validation or the
                object already has an open episode.
        """
        live = self._require_live()
        # An idempotent redelivery appends nothing and calls no hook.
        live.append_batch([StoredRow(record, open=True)], self._index_append)

    # The table's hooks.  Live ingest and recovery's WAL replay both run
    # through them, so a recovered shard's AR-tree delta and cache epochs
    # are bitwise those of an uninterrupted run.

    def _index_append(
        self, row: StoredRow, predecessor: TrackingRecord | None
    ) -> None:
        """Index an appended row and roll its object's cache epoch."""
        self.artree.append_record(row.record, predecessor, open=row.open)
        self.ctx.note_append(row.record.object_id)

    def _index_rewrite(self, record: TrackingRecord, open: bool) -> None:
        """Patch an extended or closed tail and roll its object's epoch."""
        self.artree.patch_tail(record, open=open)
        self.ctx.note_append(record.object_id)

    def extend_open_episode(
        self, object_id: ObjectId, t_e: float
    ) -> TrackingRecord:
        """Advance an open episode's end time.

        Args:
            object_id: The object whose episode is open.
            t_e: The new end time (must not move backwards).

        Returns:
            The updated (still open) tracking record.

        Raises:
            RuntimeError: If the shard is frozen-batch.
            ValueError: If no episode is open or ``t_e`` retreats.
        """
        updated = self._require_live().extend_episode(object_id, t_e)
        self._index_rewrite(updated, True)
        return updated

    def close_open_episode(
        self, object_id: ObjectId, t_e: float | None = None
    ) -> TrackingRecord:
        """Close an open episode, freezing its extent.

        Args:
            object_id: The object whose episode is open.
            t_e: Optional final end time (defaults to the current extent).

        Returns:
            The closed tracking record.

        Raises:
            RuntimeError: If the shard is frozen-batch.
            ValueError: If no episode is open or ``t_e`` retreats.
        """
        closed = self._require_live().close_episode(object_id, t_e)
        self._index_rewrite(closed, False)
        return closed

    def compact_storage(self) -> int:
        """Checkpoint: fold the live table's WAL tail into its snapshot.

        Returns:
            The number of mutations folded (see
            :meth:`~repro.tracking.table.LiveTrackingTable.checkpoint`).

        Raises:
            RuntimeError: If the shard is frozen-batch.
        """
        return self._require_live().checkpoint()

    def close_storage(self) -> int:
        """Flush and release the shard's storage backend (idempotent).

        Folds the WAL tail into the snapshot (so a reopen bulk-loads and
        replays nothing), then closes the backend's handle.  A shard
        without storage — or one already closed — is a no-op.  Closing
        is terminal for a durable shard: subsequent mutations (ingest,
        episode ops, checkpoint) raise :class:`RuntimeError` rather than
        touching the released backend; read-only queries keep working.

        Returns:
            The number of WAL mutations folded by the final checkpoint.
        """
        storage = self._storage
        if storage is None:
            return 0
        folded = 0
        live = self._live
        if live is not None:
            folded = live.checkpoint()
        storage.close()
        self._storage = None
        self._closed = True
        return folded

    # ------------------------------------------------------------------
    # Instrumentation
    # ------------------------------------------------------------------

    def stats(self) -> dict[str, int]:
        """The shard's own counters: its AR-tree's delta size and compactions."""
        return self.artree.stats_dict()


def shard_of(object_id: ObjectId, num_shards: int) -> int:
    """The shard index owning ``object_id`` (stable across processes).

    Uses CRC-32 of the id's string form rather than :func:`hash`, whose
    per-process salting (``PYTHONHASHSEED``) would scatter the same
    object to different shards in different runs.

    Args:
        object_id: The tracked object's id.
        num_shards: The partition count.

    Returns:
        An index in ``range(num_shards)``.

    Raises:
        ValueError: If ``num_shards < 1``.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be positive")
    return zlib.crc32(str(object_id).encode("utf-8")) % num_shards


def build_shards(
    ott: ObjectTrackingTable | LiveTrackingTable,
    ctx: EvaluationContext,
    num_shards: int,
    storage: str | Path | None,
    **params: Any,
) -> list[ShardState]:
    """Partition ``ott`` by :func:`shard_of` into ``num_shards`` shards.

    Args:
        ott: The tracking table to partition.
        ctx: The engine's evaluation context, shared by every shard.
        num_shards: The partition count N.
        storage: A directory holding one SQLite store per shard
            (:func:`~repro.storage.sqlite.sqlite_shard_stores` layout), or
            ``None``.  Pristine stores are seeded with each shard's
            partition; populated ones recover it (``ott`` must then be
            empty, and N must match the count the stores were written
            under).
        **params: The remaining :class:`ShardState` keyword arguments.

    Returns:
        The shards, index ``i`` owning the objects with
        ``shard_of(object_id, N) == i``.

    Raises:
        ValueError: If ``storage`` is given for a frozen-batch fleet, or
            a recovered store holds objects of another partition.
    """
    live = bool(params.get("live", False)) or isinstance(ott, LiveTrackingTable)
    if storage is not None and not live:
        raise ValueError(
            "per-shard storage needs a live fleet; pass live=True "
            "or a LiveTrackingTable"
        )
    stores = None if storage is None else sqlite_shard_stores(storage)
    all_ids = ott.object_ids
    shards = [
        ShardState(
            ott,
            ctx,
            object_ids=frozenset(
                object_id
                for object_id in all_ids
                if shard_of(object_id, num_shards) == index
            ),
            storage=None if stores is None else stores(index),
            **params,
        )
        for index in range(num_shards)
    ]
    if stores is not None:
        for index, shard in enumerate(shards):
            for object_id in shard.ott.object_ids:
                owner = shard_of(object_id, num_shards)
                if owner != index:
                    raise ValueError(
                        f"shard {index}'s store holds object "
                        f"{object_id!r}, which crc32-partitions to "
                        f"shard {owner} of {num_shards}; was the store "
                        "written under a different shard count?"
                    )
    return shards

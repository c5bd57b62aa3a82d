"""`ShardState` — the per-partition slice of a flow engine's state.

The paper's flow score is a per-object sum, ``Φ(p) = Σ_o φ(o)``
(Definition 2), so every stateful piece of query processing partitions
cleanly by object id.  This facade owns exactly one partition's state:

* its slice of the OTT (a partition view of the batch or live table),
* the AR-tree over that slice (bulk core + LSM-style delta),
* its own :class:`~repro.core.context.EvaluationContext` — evaluation
  parameters plus the shard's slice of the region/presence caches and the
  per-object tail epochs, so a live append rolls only this shard's
  epochs,
* the memoized per-subset POI R-trees.

The interface is deliberately narrow — partial flows and partial bounds
for both query forms, per-object region introspection, the live-ingest
mutators and ``stats()`` — because everything a
:class:`~repro.core.engine.FlowEngine` needs, with one shard or with N
(see :mod:`repro.core.coordinator`), reduces to these calls.

**Bit-reproducible partials.**  Floating-point addition is not
associative, so per-shard *sums* could never be merged back into the
monolith's exact flows.  Instead :meth:`partial_flows` returns the raw
per-(object, POI) presence contributions, each tagged with the object's
canonical AR-tree entry key; the coordinator re-sorts all shards'
contributions on that key and accumulates them in one global pass — the
exact order (and therefore the exact float result) of the monolithic
iterative scan.

**Sound shard pruning.**  :meth:`partial_bounds` counts, per POI, the
shard's objects whose cheap candidate MBR intersects the POI box — the
join algorithms' count bound, read from the same admission matrix the
single-shard join uses (presence never exceeds 1, Section 4.2).
A shard whose bounds are all zero for the POIs still in play cannot
contribute anything but exact zeros, so a coordinator may skip it without
perturbing a single bit of the merged flows.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Sequence

from ..geometry import DEFAULT_RESOLUTION, Mbr, Region
from ..index import ARTree, RTree
from ..index.artree import DEFAULT_DELTA_THRESHOLD
from ..indoor.devices import Deployment
from ..indoor.distance import IndoorDistanceOracle
from ..indoor.floorplan import FloorPlan
from ..indoor.poi import Poi, build_poi_index
from ..analysis.contracts import check_flow, contracts_enabled
from ..obs import span
from ..storage.base import Mutation, StorageBackend, StoredRow
from ..tracking.records import ObjectId, TrackingRecord
from ..tracking.table import LiveTrackingTable, ObjectTrackingTable
from .algorithms.join import poi_bounds
from .caching import LruCache
from .context import (
    DEFAULT_PRESENCE_CACHE_SIZE,
    DEFAULT_REGION_CACHE_SIZE,
    EvaluationContext,
)
from .presence import PresenceEstimator
from .states import interval_context_from_entries, snapshot_context
from .stats import merge_component_stats
from .uncertainty import IntervalUncertainty, TopologyChecker, snapshot_mbr

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np
    from numpy.typing import NDArray

__all__ = ["ShardState", "Contribution", "DEFAULT_POI_SUBSET_CACHE_SIZE"]

#: How many per-subset POI R-trees one shard memoizes (LRU).
DEFAULT_POI_SUBSET_CACHE_SIZE = 16

#: The canonical AR-tree entry order ``(t1, t2, record_id)``.
EntryKey = tuple[float, float, int]

#: One per-(object, POI) presence term of a partial flow:
#: ``(order_key, poi_id, presence)``.
Contribution = tuple[EntryKey, str, float]


class ShardState:
    """One object-partition's engine state behind a narrow facade.

    Constructed exactly like a :class:`~repro.core.engine.FlowEngine`
    (same parameters, same validation), optionally restricted to an
    object-id partition.  See the module docstring for the partial-flow
    and bound semantics.
    """

    def __init__(
        self,
        floorplan: FloorPlan,
        deployment: Deployment,
        ott: ObjectTrackingTable | LiveTrackingTable,
        pois: Sequence[Poi],
        v_max: float,
        resolution: int = DEFAULT_RESOLUTION,
        topology_check: bool = True,
        rtree_fanout: int = 8,
        artree_fanout: int = 16,
        detection_slack: float = 0.0,
        region_cache_size: int = DEFAULT_REGION_CACHE_SIZE,
        presence_cache_size: int = DEFAULT_PRESENCE_CACHE_SIZE,
        live: bool = False,
        artree_delta_threshold: int = DEFAULT_DELTA_THRESHOLD,
        object_ids: frozenset[ObjectId] | None = None,
        topology: TopologyChecker | None = None,
        storage: StorageBackend | None = None,
    ):
        if v_max <= 0:
            raise ValueError("v_max must be positive")
        if detection_slack < 0:
            raise ValueError("detection_slack must be non-negative")
        if not pois:
            raise ValueError("the engine needs at least one POI")
        self.floorplan = floorplan
        self.detection_slack = detection_slack
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
            # index and the caches exist.
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
        self.pois = list(pois)
        self.artree = ARTree.build(
            self.ott,
            fanout=artree_fanout,
            delta_threshold=artree_delta_threshold,
        )
        self.poi_tree = build_poi_index(self.pois, max_entries=rtree_fanout)
        self._subset_trees: LruCache[tuple[list[Poi], RTree]] = LruCache(
            DEFAULT_POI_SUBSET_CACHE_SIZE
        )
        self.poi_subset_trees_built = 0
        if topology is None and topology_check:
            topology = TopologyChecker(IndoorDistanceOracle(floorplan))
        self.ctx = EvaluationContext(
            deployment=deployment,
            v_max=v_max,
            estimator=PresenceEstimator(resolution=resolution),
            topology=topology if topology_check else None,
            inner_allowance=v_max * detection_slack,
            rtree_fanout=rtree_fanout,
            region_cache_size=region_cache_size,
            presence_cache_size=presence_cache_size,
        )
        if storage is not None and storage.generation > 0:
            # The context's data generation tracks the persisted counter:
            # adopt the snapshot generation, then replay the WAL tail as
            # ordinary ingest so table, AR-tree delta and cache epochs
            # advance exactly as the crashed writer's did.
            self.ctx.sync_generation(storage.snapshot_generation)
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
    # POI subsets
    # ------------------------------------------------------------------

    def resolve_pois(
        self, pois: Sequence[Poi] | None
    ) -> tuple[list[Poi], RTree]:
        """Resolve the query POI set P and its (memoized) R-tree R_P.

        Subset R-trees are memoized per ``poi_id`` tuple — stable across
        process boundaries, unlike object identity — and a hit is
        verified against the requested POIs, so passing different POIs
        under recycled ids rebuilds instead of serving a stale tree.

        Args:
            pois: The query subset, or ``None`` for the shard's universe.

        Returns:
            ``(query POIs, their R-tree)``.

        Raises:
            ValueError: If an empty subset is passed.
        """
        if pois is None:
            return self.pois, self.poi_tree
        subset = list(pois)
        if not subset:
            raise ValueError("the query POI set may not be empty")
        key = tuple(poi.poi_id for poi in subset)
        cached = self._subset_trees.get(key)
        if cached is not None and cached[0] == subset:
            return cached
        tree = build_poi_index(subset, max_entries=self.ctx.rtree_fanout)
        self.poi_subset_trees_built += 1
        self._subset_trees.put(key, (subset, tree))
        return subset, tree

    # ------------------------------------------------------------------
    # Partial flows (the merge-ready iterative scan)
    # ------------------------------------------------------------------

    def partial_flows(
        self, t: float, pois: Sequence[Poi] | None = None
    ) -> tuple[list[Contribution], int]:
        """This shard's snapshot presence contributions at ``t``.

        Args:
            t: The query instant.
            pois: Optional query POI subset (defaults to the universe).

        Returns:
            ``(contributions, candidates)`` — every positive
            per-(object, POI) presence term tagged with the object's
            canonical entry key, plus the shard's candidate-object count.
        """
        _, poi_tree = self.resolve_pois(pois)
        with span("candidates.snapshot"):
            entries = self.artree.point_query(t)
        contributions: list[Contribution] = []
        for entry in entries:
            context = snapshot_context(entry, t)
            with span("ur.snapshot"):
                region = self.ctx.snapshot_region(context)
            with span("presence.accumulate"):
                mbr = region.mbr
                if mbr is None:
                    continue
                fingerprint = self.ctx.snapshot_fingerprint(context)
                order_key = (entry.t1, entry.t2, entry.record.record_id)
                for poi in poi_tree.search(mbr):
                    presence = self.ctx.presence(region, poi, fingerprint)
                    if presence > 0.0:
                        contributions.append((order_key, poi.poi_id, presence))
        self._check_partials(contributions, len(entries))
        return contributions, len(entries)

    def partial_interval_flows(
        self,
        t_start: float,
        t_end: float,
        pois: Sequence[Poi] | None = None,
    ) -> tuple[list[Contribution], int]:
        """This shard's interval presence contributions over the window.

        Each object's contributions are tagged with its *first* (minimum)
        overlapping entry key — the object's position in the monolithic
        interval scan's enumeration order.

        Args:
            t_start: Window start (inclusive).
            t_end: Window end (inclusive).
            pois: Optional query POI subset (defaults to the universe).

        Returns:
            ``(contributions, candidates)`` as in :meth:`partial_flows`.
        """
        _, poi_tree = self.resolve_pois(pois)
        with span("candidates.interval"):
            groups: dict[ObjectId, list[Any]] = {}
            first_key: dict[ObjectId, EntryKey] = {}
            for entry in self.artree.range_query(t_start, t_end):
                object_id = entry.object_id
                if object_id not in groups:
                    groups[object_id] = []
                    first_key[object_id] = (
                        entry.t1,
                        entry.t2,
                        entry.record.record_id,
                    )
                groups[object_id].append(entry)
        contributions: list[Contribution] = []
        for object_id, entries in groups.items():
            context = interval_context_from_entries(
                object_id, entries, t_start, t_end
            )
            with span("ur.interval"):
                uncertainty = self.ctx.interval_uncertainty(context)
            with span("presence.accumulate"):
                region = uncertainty.region
                mbr = region.mbr
                if mbr is None:
                    continue
                fingerprint = self.ctx.interval_fingerprint(uncertainty)
                order_key = first_key[object_id]
                for poi in poi_tree.search(mbr):
                    presence = self.ctx.presence(region, poi, fingerprint)
                    if presence > 0.0:
                        contributions.append((order_key, poi.poi_id, presence))
        self._check_partials(contributions, len(groups))
        return contributions, len(groups)

    @staticmethod
    def _check_partials(
        contributions: Sequence[Contribution], candidates: int
    ) -> None:
        """Contract: each partial flow obeys the count bound locally."""
        if not contracts_enabled():
            return
        flows: dict[str, float] = {}
        for _, poi_id, presence in contributions:
            flows[poi_id] = flows.get(poi_id, 0.0) + presence
        for poi_id, flow in flows.items():
            check_flow(flow, candidates, poi_id=poi_id)

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
    # Partial bounds (the join's count bound, per shard)
    # ------------------------------------------------------------------

    def partial_bounds(
        self, t: float, pois: Sequence[Poi] | None = None
    ) -> dict[str, int]:
        """Per-POI count bounds on this shard's snapshot flows at ``t``.

        Counts candidate objects whose cheap snapshot MBR (no region
        derivation) intersects each POI box — the join's admission rule
        (:func:`~repro.core.algorithms.join.poi_bounds`); presence never
        exceeds 1, so the count dominates the shard's exact flow
        (Section 4.2).

        Args:
            t: The query instant.
            pois: Optional query POI subset (defaults to the universe).

        Returns:
            ``{poi_id: bound}`` containing only POIs with positive bound.
        """
        _, poi_tree = self.resolve_pois(pois)
        with span("bounds.snapshot"):
            mbrs: list[Mbr] = []
            for entry in self.artree.point_query(t):
                context = snapshot_context(entry, t)
                mbr = snapshot_mbr(context, self.ctx.deployment, self.ctx.v_max)
                if mbr is not None:
                    mbrs.append(mbr)
            return poi_bounds(poi_tree, mbrs)

    def partial_interval_bounds(
        self,
        t_start: float,
        t_end: float,
        pois: Sequence[Poi] | None = None,
        use_segment_mbrs: bool = True,
    ) -> dict[str, int]:
        """Per-POI count bounds on this shard's interval flows.

        The interval join's admission rule: the overall trajectory MBR
        must intersect the POI box and, with ``use_segment_mbrs``
        (Section 4.3.2), so must at least one tight per-episode MBR.

        Args:
            t_start: Window start (inclusive).
            t_end: Window end (inclusive).
            pois: Optional query POI subset (defaults to the universe).
            use_segment_mbrs: Apply the per-episode MBR refinement.

        Returns:
            ``{poi_id: bound}`` containing only POIs with positive bound.
        """
        _, poi_tree = self.resolve_pois(pois)
        with span("bounds.interval"):
            groups: dict[ObjectId, list[Any]] = {}
            for entry in self.artree.range_query(t_start, t_end):
                groups.setdefault(entry.object_id, []).append(entry)
            mbrs: list[Mbr] = []
            boxes: list[NDArray[np.float64]] = []
            for object_id, entries in groups.items():
                context = interval_context_from_entries(
                    object_id, entries, t_start, t_end
                )
                with span("ur.interval"):
                    uncertainty = self.ctx.interval_uncertainty(context)
                if uncertainty.mbr is not None:
                    mbrs.append(uncertainty.mbr)
                    boxes.append(uncertainty.segment_boxes)
            return poi_bounds(
                poi_tree, mbrs, boxes if use_segment_mbrs else None
            )

    # ------------------------------------------------------------------
    # Live ingestion (the engine's ingest seam — see the context-bypass rule)
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
        """The shard's evaluation counters, one dict per component union.

        Returns:
            The merged counters of the evaluation context, the presence
            estimator, the AR-tree and the POI subset-tree memo.
        """
        return merge_component_stats(
            self.ctx.stats_dict(),
            {"estimator_cached_pois": self.ctx.estimator.sample_cache_size},
            self.artree.stats_dict(),
            {"poi_subset_trees_built": self.poi_subset_trees_built},
        )

    def reset_stats(self) -> None:
        """Zero the evaluation counters (cache contents are kept)."""
        self.ctx.reset_stats()

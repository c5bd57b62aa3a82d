"""`FlowEngine` — the library's main entry point.

Wraps a floor plan, a device deployment, an OTT and a POI set into one
query-ready object: indexes are built once (AR-tree over the OTT, R-tree
over the POIs, door graph + distance oracle for the topology check) and the
two top-k queries are exposed with both processing strategies.

The engine holds one long-lived :class:`EvaluationContext` carrying the
evaluation parameters and the region/presence memo layers, so repeated
ad-hoc queries and monitor ticks reuse previously computed uncertainty
regions and presence values; :meth:`FlowEngine.stats` reports what the
caches saved.

Typical use::

    engine = FlowEngine(plan, deployment, ott, pois, v_max=1.1)
    top = engine.snapshot_topk(t=3600.0, k=10)
    for row in top:
        print(row.poi.name, row.flow)
    print(engine.stats())  # cache hits, regions computed, ...

A **live** engine (``live=True``, a :class:`LiveTrackingTable`, or the
:class:`LiveFlowEngine` convenience subclass) additionally accepts new
tracking records while serving queries: :meth:`FlowEngine.ingest` appends
through the live table's at-append validation, maintains the AR-tree
incrementally (delta buffer + automatic compaction) and rolls the
appended objects' cache epochs — no index rebuild, no cache flush.
Results after an ingest are identical to a freshly built engine over the
union of records.

A **fleet** (``num_shards=N > 1``) partitions the tracked objects across N
:class:`~repro.core.shard.ShardState` partitions, each with its own table
slice, AR-tree and store; ingest routes each record to its owning shard
(see :func:`~repro.core.shard.shard_of`).  The evaluation context, the POI
R-tree and the caches stay one per engine, and every query runs the same
algorithm at every N over the shards' AR-tree candidates merged into the
one-tree order (:func:`~repro.core.states.snapshot_contexts`), so answers
and counters are the one-shard engine's::

    fleet = FlowEngine(plan, deployment, ott, pois, v_max=1.1, num_shards=4)
    top = fleet.snapshot_topk(t=3600.0, k=10)
"""

from __future__ import annotations

import math
from numbers import Real
from pathlib import Path
from typing import Any, Iterable, Sequence

from ..geometry import DEFAULT_RESOLUTION, Region
from ..index import ARTree, RTree
from ..index.artree import DEFAULT_DELTA_THRESHOLD
from ..indoor.devices import Deployment
from ..indoor.distance import IndoorDistanceOracle
from ..indoor.floorplan import FloorPlan
from ..indoor.poi import Poi, build_poi_index
from ..obs import counter, obs_enabled, span
from ..storage.base import StorageBackend
from ..tracking.records import ObjectId, TrackingRecord
from ..tracking.table import LiveTrackingTable, ObjectTrackingTable
from .algorithms.iterative import (
    interval_flows,
    iterative_interval,
    iterative_snapshot,
    snapshot_flows,
)
from .algorithms.join import join_interval, join_snapshot
from .caching import LruCache
from .context import (
    DEFAULT_PRESENCE_CACHE_SIZE,
    DEFAULT_REGION_CACHE_SIZE,
    EvaluationContext,
)
from .presence import PresenceEstimator
from .queries import TopKResult, rank_top_k_by_density
from .shard import ShardState, build_shards, shard_of
from .stats import merge_component_stats, merge_shard_stats
from .uncertainty import IntervalUncertainty, TopologyChecker

__all__ = ["FlowEngine", "LiveFlowEngine", "DEFAULT_POI_SUBSET_CACHE_SIZE"]

#: How many per-subset POI R-trees an engine memoizes (LRU).
DEFAULT_POI_SUBSET_CACHE_SIZE = 16

_METHODS = ("join", "iterative")


def _checked_count(value: object, name: str) -> int:
    """``value`` if it is a positive ``int`` (``bool`` is not a count)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(
            f"{name} must be an int, got {value!r} ({type(value).__name__})"
        )
    if value < 1:
        raise ValueError(f"{name} must be positive")
    return value


def _checked_method(method: str) -> None:
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {_METHODS}")


def _checked_time(value: object, name: str) -> float:
    """``value`` as a float if it is a finite real (``bool`` is not a time)."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise TypeError(
            f"{name} must be a real number, got {value!r} ({type(value).__name__})"
        )
    result = float(value)
    if not math.isfinite(result):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return result


class FlowEngine:
    """Query engine for frequently-visited-POI analysis.

    Parameters
    ----------
    floorplan, deployment, ott, pois:
        The indoor space, its positioning devices, the (frozen or
        freezable) tracking table and the POI universe.
    v_max:
        Maximum indoor movement speed (m/s) — the paper's ``V_max``.
    resolution:
        Presence quadrature resolution (grid cells along the longer POI
        side).
    topology_check:
        Apply the indoor topology check (Section 3.3).  Disable to ablate.
    rtree_fanout, artree_fanout:
        Index node capacities.
    detection_slack:
        Detection latency of the positioning system, in seconds.  The
        paper's model assumes continuous detection; sampled systems may
        miss an object's presence inside a range for up to roughly twice
        the sampling period, during which the rings' inner exclusions
        would be unsound.  Setting this to ``2 * sampling_interval``
        relaxes those exclusions by ``v_max * detection_slack`` meters.
        ``0.0`` (default) reproduces the paper's idealised model exactly.
    region_cache_size, presence_cache_size:
        LRU capacities of the evaluation context's memo layers; ``0``
        disables a layer (useful to compare cached against uncached
        evaluation — results are identical either way).
    live:
        Keep the tracking table append-capable: :meth:`ingest` (and the
        open-episode methods) accept new records after construction.
        Implied when ``ott`` is a :class:`LiveTrackingTable`; a plain
        table is re-validated into one record by record.
    artree_delta_threshold:
        Delta-buffer size at which the live AR-tree auto-compacts.
    storage:
        Durable storage (requires ``live=True`` or a live table).  With
        one shard, a :class:`~repro.storage.base.StorageBackend` the live
        table writes through to; with ``num_shards > 1``, a directory
        holding one SQLite store per shard
        (:func:`~repro.storage.sqlite.sqlite_shard_stores` layout).  A
        pristine store is seeded with ``ott``'s records; a populated one
        **recovers** — ``ott`` must then be empty, the AR-tree
        bulk-loads the persisted snapshot and only the WAL tail is
        replayed through the ingest seam, reproducing the crashed
        writer's state bit for bit (a fleet must be reopened with the
        shard count its stores were written under).  :meth:`checkpoint`
        folds the tail into the snapshot so later reopens replay nothing.
    num_shards:
        The object partition count N (a positive ``int``).  Each of the N
        :class:`~repro.core.shard.ShardState` partitions keeps its table
        slice, AR-tree and store; the evaluation context — one cache
        budget (the capacities above, not split), one estimator, one
        topology checker — and the POI R-trees are shared, and queries
        run over the shards' merged AR-tree candidates.  Answers and
        ``stats()`` keys are the same at every N.
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
        storage: StorageBackend | str | Path | None = None,
        num_shards: int = 1,
    ):
        num_shards = _checked_count(num_shards, "num_shards")
        if v_max <= 0:
            raise ValueError("v_max must be positive")
        if detection_slack < 0:
            raise ValueError("detection_slack must be non-negative")
        if not pois:
            raise ValueError("the engine needs at least one POI")
        if num_shards == 1 and isinstance(storage, (str, Path)):
            raise ValueError(
                "a one-shard engine stores into a StorageBackend, not a directory"
            )
        if num_shards > 1 and storage is not None and not isinstance(
            storage, (str, Path)
        ):
            raise ValueError(
                "a sharded engine stores into a directory of per-shard "
                "stores, not a single StorageBackend"
            )
        self.num_shards = num_shards
        self.floorplan = floorplan
        self.detection_slack = detection_slack
        self._closed = False
        self._ctx = EvaluationContext(
            deployment=deployment,
            v_max=v_max,
            estimator=PresenceEstimator(resolution=resolution),
            topology=(
                TopologyChecker(IndoorDistanceOracle(floorplan))
                if topology_check
                else None
            ),
            inner_allowance=v_max * detection_slack,
            rtree_fanout=rtree_fanout,
            region_cache_size=region_cache_size,
            presence_cache_size=presence_cache_size,
        )
        self._pois = list(pois)
        self._poi_tree = build_poi_index(self._pois, max_entries=rtree_fanout)
        self._subset_trees: LruCache[tuple[list[Poi], RTree]] = LruCache(
            DEFAULT_POI_SUBSET_CACHE_SIZE
        )
        self._poi_subset_trees_built = 0
        params: dict[str, Any] = dict(
            artree_fanout=artree_fanout,
            live=live,
            artree_delta_threshold=artree_delta_threshold,
        )
        if num_shards == 1:
            self._shards = [ShardState(ott, self._ctx, storage=storage, **params)]
        else:
            self._shards = build_shards(
                ott, self._ctx, num_shards, storage, **params
            )

    # ------------------------------------------------------------------
    # Shard-owned state
    # ------------------------------------------------------------------

    @property
    def shards(self) -> list[ShardState]:
        """The engine's shard states, index ``i`` owning partition ``i``."""
        return self._shards

    @property
    def shard(self) -> ShardState:
        """The single :class:`ShardState` of a one-shard engine.

        Raises:
            RuntimeError: If the engine has more than one shard (the
                per-shard state is then in :attr:`shards`).
        """
        if self.num_shards != 1:
            raise RuntimeError(
                f"a {self.num_shards}-shard engine has no single shard "
                "state; use engine.shards"
            )
        return self._shards[0]

    @property
    def ott(self) -> ObjectTrackingTable | LiveTrackingTable:
        """The indexed tracking table (one-shard engines)."""
        return self.shard.ott

    @property
    def pois(self) -> list[Poi]:
        """The engine's POI universe."""
        return self._pois

    @property
    def poi_tree(self) -> RTree:
        """The POI R-tree ``R_P`` over the full universe."""
        return self._poi_tree

    @property
    def ctx(self) -> EvaluationContext:
        """The long-lived evaluation context, shared by every shard."""
        return self._ctx

    @property
    def poi_subset_trees_built(self) -> int:
        """How many per-subset POI R-trees were actually built."""
        return self._poi_subset_trees_built

    @property
    def artree(self) -> ARTree:
        """The AR-tree over the OTT (one-shard engines)."""
        return self.shard.artree

    @property
    def artrees(self) -> list[ARTree]:
        """Every shard's AR-tree, index ``i`` indexing partition ``i``."""
        return [shard.artree for shard in self._shards]

    # ------------------------------------------------------------------
    # Evaluation parameters (the shared context's)
    # ------------------------------------------------------------------

    @property
    def deployment(self) -> Deployment:
        """The positioning-device deployment regions are derived against."""
        return self.ctx.deployment

    @property
    def v_max(self) -> float:
        """Maximum indoor movement speed (m/s) — the paper's ``V_max``."""
        return self.ctx.v_max

    @property
    def estimator(self) -> PresenceEstimator:
        """The presence (grid quadrature) estimator in use."""
        return self.ctx.estimator

    @property
    def topology(self) -> TopologyChecker | None:
        """The indoor topology checker, or ``None`` when ablated."""
        return self.ctx.topology

    @property
    def inner_allowance(self) -> float:
        """Ring inner-exclusion relaxation in meters (``v_max * slack``)."""
        return self.ctx.inner_allowance

    @property
    def rtree_fanout(self) -> int:
        """Node capacity of the POI R-trees (the universe and per-query subsets)."""
        return self.ctx.rtree_fanout

    # ------------------------------------------------------------------
    # Live ingestion
    # ------------------------------------------------------------------

    @property
    def is_live(self) -> bool:
        """Whether the engine accepts new tracking records (see ``live``)."""
        return self._shards[0].is_live

    @property
    def generation(self) -> int:
        """The live tables' mutation count, summed over shards.

        0 for a frozen-batch engine.  Derived from the shards on every
        read, so a batch a shard rejected halfway still counts exactly
        the records that were applied.
        """
        return sum(shard.generation for shard in self._shards)

    @property
    def storage(self) -> StorageBackend | None:
        """The durable storage backend of a one-shard engine, if attached."""
        return self.shard.storage

    def _owner(self, object_id: ObjectId) -> ShardState:
        """The shard holding ``object_id``'s records."""
        if self.num_shards == 1:
            return self._shards[0]
        return self._shards[shard_of(object_id, self.num_shards)]

    def checkpoint(self) -> int:
        """Fold the storage backend's WAL tail into its bulk snapshot.

        After a checkpoint, reopening the store bulk-loads everything
        into the AR-tree's static core and replays nothing.  Cheap to
        call periodically; queries before and after are bit-identical.

        Returns:
            The number of WAL mutations folded in (summed over shards).

        Raises:
            RuntimeError: If the engine is frozen-batch.
        """
        self._require_live()
        return sum(shard.compact_storage() for shard in self._shards)

    def close(self) -> None:
        """Flush and release the engine's storage backend (idempotent).

        A dropped live engine with a durable backend would otherwise
        leave an unflushed WAL tail behind — recoverable (that is the
        WAL's point) but slow to reopen.  ``close()`` folds the tail
        into the snapshot and closes the backend handle; engines without
        storage (or frozen-batch ones) close as a no-op.  After closing,
        further ingest against a durable engine fails — closing is
        terminal, not a pause.
        """
        if self._closed:
            return
        self._closed = True
        for shard in self._shards:
            if shard.is_live and shard.storage is not None:
                shard.close_storage()

    def __enter__(self) -> "FlowEngine":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def _require_live(self) -> None:
        if not self.is_live:
            raise RuntimeError(
                "this engine is frozen-batch; construct it with live=True "
                "(or LiveFlowEngine) to ingest records"
            )

    def ingest(self, records: Iterable[TrackingRecord]) -> int:
        """Append closed tracking records to a live engine; returns the count.

        Each record is validated by the live table (per-object ordering and
        non-overlap, at append time), indexed incrementally in the AR-tree
        and reported to the evaluation context, which rolls the object's
        tail-episode cache epoch.  Subsequent queries — including a monitor
        :meth:`~repro.core.monitor.SnapshotTopKMonitor.advance` at an
        unchanged instant — see the new data immediately and return exactly
        what a freshly built engine over the union of records would.

        The batch is one unit: the live table validates every record
        (against the table and the batch's earlier records), persists the
        new ones with one storage write — one SQLite transaction, so an
        acknowledged call is durable and a crash inside it loses all of
        its new records — and then applies them in order.  If a record
        fails validation, the records before it are persisted and
        ingested and the error propagates.  A fleet routes each record to
        its owning shard (keeping per-shard order) and applies the
        shards' sub-batches in shard order, one write per shard store.

        Args:
            records: Closed tracking records, in per-object chronological
                order (each object's appends must not overlap or run
                backwards in time).

        Returns:
            The number of records ingested.

        Raises:
            RuntimeError: If the engine is frozen-batch (``live=False``).
            ValueError: If a record fails the live table's at-append
                validation; earlier records of the batch stay ingested.
        """
        self._require_live()
        if self.num_shards == 1:
            count = self._shards[0].ingest_batch(records)
        else:
            routed: dict[int, list[TrackingRecord]] = {}
            for record in records:
                routed.setdefault(
                    shard_of(record.object_id, self.num_shards), []
                ).append(record)
            count = sum(
                self._shards[index].ingest_batch(batch)
                for index, batch in sorted(routed.items())
            )
        if obs_enabled():
            counter("engine.ingest.records", unit="records").inc(count)
        return count

    def ingest_open(self, record: TrackingRecord) -> None:
        """Start an open detection episode (``t_e`` still advancing).

        The record enters table and index like a normal append but stays
        patchable: :meth:`extend_episode` advances its end time and
        :meth:`close_episode` fixes it.

        Args:
            record: The episode's initial extent (``t_e`` may equal
                ``t_s``; it will be advanced by :meth:`extend_episode`).

        Raises:
            RuntimeError: If the engine is frozen-batch.
            ValueError: If the record fails at-append validation or the
                object already has an open episode.
        """
        self._require_live()
        self._owner(record.object_id).ingest_open_episode(record)

    def extend_episode(self, object_id: ObjectId, t_e: float) -> TrackingRecord:
        """Advance an open episode's end time.

        Args:
            object_id: The object whose episode is open.
            t_e: The new end time (must not move backwards).

        Returns:
            The updated (still open) tracking record.

        Raises:
            RuntimeError: If the engine is frozen-batch.
            ValueError: If the object has no open episode or ``t_e``
                retreats.
        """
        self._require_live()
        return self._owner(object_id).extend_open_episode(object_id, t_e)

    def close_episode(
        self, object_id: ObjectId, t_e: float | None = None
    ) -> TrackingRecord:
        """Close an open episode, freezing its extent.

        Args:
            object_id: The object whose episode is open.
            t_e: Optional final end time; defaults to the episode's
                current extent.

        Returns:
            The closed tracking record.

        Raises:
            RuntimeError: If the engine is frozen-batch.
            ValueError: If the object has no open episode or ``t_e``
                retreats.
        """
        self._require_live()
        return self._owner(object_id).close_open_episode(object_id, t_e)

    # ------------------------------------------------------------------
    # Instrumentation
    # ------------------------------------------------------------------

    def stats(self) -> dict[str, int]:
        """Evaluation counters and cache occupancy since the last reset.

        These counters are part of the engine's semantics (tests assert
        on them); the :mod:`repro.obs` layer observes *around* them and
        never feeds into them.

        Returns:
            A dict with the keys ``regions_computed``,
            ``region_cache_hits``, ``presence_evaluations``,
            ``presence_cache_hits``, ``topology_prunes``,
            ``region_cache_entries``, ``presence_cache_entries``,
            ``data_generation``, ``estimator_cached_pois``,
            ``artree_delta_entries``, ``artree_compactions`` (the last two
            summed over shards) and ``poi_subset_trees_built`` — the same
            keys at every shard count.
        """
        return merge_component_stats(
            self.ctx.stats_dict(),
            {"estimator_cached_pois": self.estimator.sample_cache_size},
            merge_shard_stats(shard.stats() for shard in self._shards),
            {"poi_subset_trees_built": self.poi_subset_trees_built},
        )

    def reset_stats(self) -> None:
        """Zero the evaluation counters (cache contents are kept)."""
        self.ctx.reset_stats()

    # ------------------------------------------------------------------
    # POI subsets
    # ------------------------------------------------------------------

    def _query_pois(
        self, pois: Sequence[Poi] | None
    ) -> tuple[list[Poi], RTree]:
        """Resolve the query POI set P and its R-tree R_P.

        Subset R-trees are memoized per ``poi_id`` tuple and a hit is
        verified against the requested POIs, so a monitor or dashboard
        re-querying the same subset builds its R_P exactly once, while
        different POIs under recycled ids rebuild instead of serving a
        stale tree.  ``poi_subset_trees_built`` in :meth:`stats` counts
        the actual builds.

        Raises:
            TypeError: If an element of ``pois`` is not a :class:`Poi`.
            ValueError: If ``pois`` is empty or repeats a ``poi_id``.
        """
        if pois is None:
            return self._pois, self._poi_tree
        subset = list(pois)
        if not subset:
            raise ValueError("the query POI set may not be empty")
        key: list[str] = []
        for poi in subset:
            if not isinstance(poi, Poi):
                raise TypeError(
                    f"the query POI set holds {poi!r} "
                    f"({type(poi).__name__}), not a Poi"
                )
            key.append(poi.poi_id)
        if len(set(key)) < len(key):
            repeated = next(poi_id for poi_id in key if key.count(poi_id) > 1)
            raise ValueError(f"the query POI set repeats poi_id {repeated!r}")
        cached = self._subset_trees.get(tuple(key))
        if cached is not None and cached[0] == subset:
            return cached
        tree = build_poi_index(subset, max_entries=self.rtree_fanout)
        self._poi_subset_trees_built += 1
        self._subset_trees.put(tuple(key), (subset, tree))
        return subset, tree

    # ------------------------------------------------------------------
    # Top-k queries (Problems 1 and 2)
    # ------------------------------------------------------------------

    def snapshot_topk(
        self,
        t: float,
        k: int,
        pois: Sequence[Poi] | None = None,
        method: str = "join",
    ) -> TopKResult:
        """Problem 1: the k POIs most visited at time point ``t``.

        Args:
            t: The query instant (same clock as the tracking records).
            k: How many POIs to return.
            pois: Optional query subset P; defaults to the engine's full
                POI universe.  Subset R-trees are memoized per identity.
            method: ``"join"`` (Algorithm 2, default) or ``"iterative"``
                (Algorithm 1) — both return identical rankings.

        Returns:
            The ranked :class:`~repro.core.queries.TopKResult`; flows are
            exact for every returned POI.

        Raises:
            TypeError: If ``k`` is not an ``int`` or ``t`` not a real
                number (either a ``bool``), or an element of ``pois`` is
                not a :class:`Poi`.
            ValueError: If ``method`` is unknown, ``k < 1``, ``t`` is not
                finite, or ``pois`` is empty or repeats a ``poi_id``.
        """
        t = _checked_time(t, "t")
        k = _checked_count(k, "k")
        _checked_method(method)
        query_pois, poi_tree = self._query_pois(pois)
        algorithm = join_snapshot if method == "join" else iterative_snapshot
        with span(f"query.snapshot.{method}"):
            return algorithm(self.artrees, poi_tree, query_pois, self.ctx, t, k)

    def interval_topk(
        self,
        t_start: float,
        t_end: float,
        k: int,
        pois: Sequence[Poi] | None = None,
        method: str = "join",
        use_segment_mbrs: bool = True,
    ) -> TopKResult:
        """Problem 2: the k POIs most visited during ``[t_start, t_end]``.

        Args:
            t_start: Window start (inclusive).
            t_end: Window end (inclusive; must not precede ``t_start``).
            k: How many POIs to return.
            pois: Optional query subset P; defaults to the full universe.
            method: ``"join"`` (Algorithm 5, default) or ``"iterative"``
                (Algorithm 4) — identical rankings either way.
            use_segment_mbrs: Keep the Section 4.3.2 improvement (tight
                per-episode MBRs) on; set ``False`` to ablate it.

        Returns:
            The ranked :class:`~repro.core.queries.TopKResult`.

        Raises:
            TypeError: If ``k`` is not an ``int`` or a window end not a
                real number (either a ``bool``), or an element of
                ``pois`` is not a :class:`Poi`.
            ValueError: If ``method`` is unknown, ``k < 1``, a window end
                is not finite, the window is inverted, or ``pois`` is
                empty or repeats a ``poi_id``.
        """
        t_start = _checked_time(t_start, "t_start")
        t_end = _checked_time(t_end, "t_end")
        k = _checked_count(k, "k")
        _checked_method(method)
        query_pois, poi_tree = self._query_pois(pois)
        with span(f"query.interval.{method}"):
            if method == "join":
                return join_interval(
                    self.artrees,
                    poi_tree,
                    query_pois,
                    self.ctx,
                    t_start,
                    t_end,
                    k,
                    use_segment_mbrs=use_segment_mbrs,
                )
            return iterative_interval(
                self.artrees, poi_tree, query_pois, self.ctx, t_start, t_end, k
            )

    # ------------------------------------------------------------------
    # Flow maps (full Φ for analysis / validation)
    # ------------------------------------------------------------------

    def snapshot_flows(
        self, t: float, pois: Sequence[Poi] | None = None
    ) -> dict[str, float]:
        """``Φ_t(p)`` for every query POI with non-zero flow.

        Args:
            t: The query instant.
            pois: Optional query subset; defaults to the full universe.

        Returns:
            ``{poi_id: flow}`` containing only POIs with positive flow.

        Raises:
            TypeError: If ``t`` is not a real number (or is a ``bool``).
            ValueError: If ``t`` is not finite or an empty or repeating
                ``pois`` is passed.
        """
        t = _checked_time(t, "t")
        _, poi_tree = self._query_pois(pois)
        return snapshot_flows(self.artrees, poi_tree, self.ctx, t)

    def interval_flows(
        self, t_start: float, t_end: float, pois: Sequence[Poi] | None = None
    ) -> dict[str, float]:
        """``Φ_[t_s, t_e](p)`` for every query POI with non-zero flow.

        Args:
            t_start: Window start (inclusive).
            t_end: Window end (inclusive).
            pois: Optional query subset; defaults to the full universe.

        Returns:
            ``{poi_id: flow}`` containing only POIs with positive flow.

        Raises:
            TypeError: If a window end is not a real number (or is a
                ``bool``).
            ValueError: If a window end is not finite, the window is
                inverted, or an empty or repeating ``pois`` is passed.
        """
        t_start = _checked_time(t_start, "t_start")
        t_end = _checked_time(t_end, "t_end")
        _, poi_tree = self._query_pois(pois)
        return interval_flows(self.artrees, poi_tree, self.ctx, t_start, t_end)

    # ------------------------------------------------------------------
    # Density variants (area-normalised ranking; cf. paper Section 6.2)
    # ------------------------------------------------------------------

    def snapshot_density_topk(
        self, t: float, k: int, pois: Sequence[Poi] | None = None
    ) -> TopKResult:
        """The k POIs with the highest snapshot flow *density* (flow/m²).

        Density ranking needs every POI's exact flow, so it always uses the
        iterative flow computation; the returned entries carry densities in
        their ``flow`` field.

        Args:
            t: The query instant.
            k: How many POIs to return.
            pois: Optional query subset; defaults to the full universe.

        Returns:
            The ranked result; each entry's ``flow`` is flow per m².

        Raises:
            TypeError: If ``k`` is not an ``int`` or ``t`` not a real
                number (either a ``bool``).
            ValueError: If ``k < 1``, ``t`` is not finite or an empty or
                repeating ``pois`` is passed.
        """
        t = _checked_time(t, "t")
        k = _checked_count(k, "k")
        query_pois, _ = self._query_pois(pois)
        flows = self.snapshot_flows(t, pois=query_pois)
        return rank_top_k_by_density(flows, query_pois, k)

    def interval_density_topk(
        self,
        t_start: float,
        t_end: float,
        k: int,
        pois: Sequence[Poi] | None = None,
    ) -> TopKResult:
        """The k POIs with the highest interval flow density (flow/m²).

        Args:
            t_start: Window start (inclusive).
            t_end: Window end (inclusive).
            k: How many POIs to return.
            pois: Optional query subset; defaults to the full universe.

        Returns:
            The ranked result; each entry's ``flow`` is flow per m².

        Raises:
            TypeError: If ``k`` is not an ``int`` or a window end not a
                real number (either a ``bool``).
            ValueError: If ``k < 1``, a window end is not finite, the
                window is inverted, or an empty or repeating ``pois`` is
                passed.
        """
        t_start = _checked_time(t_start, "t_start")
        t_end = _checked_time(t_end, "t_end")
        k = _checked_count(k, "k")
        query_pois, _ = self._query_pois(pois)
        flows = self.interval_flows(t_start, t_end, pois=query_pois)
        return rank_top_k_by_density(flows, query_pois, k)

    # ------------------------------------------------------------------
    # Uncertainty-region introspection
    # ------------------------------------------------------------------

    def snapshot_region_of(self, object_id: ObjectId, t: float) -> Region | None:
        """``UR(o, t)`` for one object, or ``None`` if not trackable at t.

        Answered by the owning shard through the AR-tree's per-object
        entry lookup, so the cost is O(records of the object), independent
        of the population size.

        Args:
            object_id: The tracked object.
            t: The query instant.

        Returns:
            The (possibly topology-checked) uncertainty region, or
            ``None`` when no detection episode makes the object
            trackable at ``t``.
        """
        return self._owner(object_id).snapshot_region_of(object_id, t)

    def interval_region_of(
        self, object_id: ObjectId, t_start: float, t_end: float
    ) -> IntervalUncertainty | None:
        """``UR(o, [t_s, t_e])`` for one object, or ``None`` if irrelevant.

        Like :meth:`snapshot_region_of`, answered by the owning shard per
        object rather than by scanning every object relevant to the window.

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
        return self._owner(object_id).interval_region_of(
            object_id, t_start, t_end
        )


class LiveFlowEngine(FlowEngine):
    """A :class:`FlowEngine` that is append-capable from construction.

    The streaming entry point: start from an empty (or pre-loaded)
    :class:`~repro.tracking.table.LiveTrackingTable` and feed arriving
    records through :meth:`FlowEngine.ingest` while queries and monitors
    run against the always-current state::

        engine = LiveFlowEngine(plan, deployment, pois, v_max=1.1)
        engine.ingest(first_batch)
        monitor = SnapshotTopKMonitor(engine, k=10)
        update = monitor.tick(t=now, records=next_batch)
    """

    def __init__(
        self,
        floorplan: FloorPlan,
        deployment: Deployment,
        pois: Sequence[Poi],
        v_max: float,
        ott: ObjectTrackingTable | LiveTrackingTable | None = None,
        **engine_kwargs: Any,
    ):
        if ott is None:
            ott = LiveTrackingTable()
        super().__init__(
            floorplan, deployment, ott, pois, v_max, live=True, **engine_kwargs
        )

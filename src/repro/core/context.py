"""The evaluation context: query parameters + memoization + instrumentation.

Every query entry point used to thread six loose parameters (deployment,
``v_max``, presence estimator, topology checker, inner allowance, R-tree
fanout) through engine → algorithms → states → uncertainty, and every call
re-derived each object's uncertainty region from scratch.  An
:class:`EvaluationContext` bundles those parameters into one long-lived
object that additionally owns bounded LRU memo layers:

* the **region cache** — keyed on ``(object_id, kind, quantized time
  window)``, it returns previously constructed uncertainty
  regions.  Interval regions are cached at *episode* granularity (one entry
  per detection/gap/lead/trail piece), so a sliding window only rebuilds
  the episodes whose effective time window actually changed — interior
  detection disks and fully covered gap ellipses are reused tick after
  tick;
* the **window memo** — keyed on ``(object_id, t_start, t_end, tail
  epoch)``, it returns the assembled
  :class:`IntervalUncertainty` of a window asked before (its union
  region and MBRs included), so a repeated interval query makes no
  region-cache lookups at all;
* the **presence cache** — one row ``{poi_id: presence}`` per region
  fingerprint, so the grid quadrature runs once per (region, POI) pair.
  A region's fingerprint is its region-cache key (snapshot) or the tuple
  of its episode keys (interval), so identical regions share presence
  values across queries and across the iterative/join strategies.  A
  reader asking one region about many POIs resolves its row once
  (:meth:`EvaluationContext.presence_row`).

The context also counts what the caches save: ``regions_computed``,
``region_cache_hits``, ``presence_evaluations``, ``presence_cache_hits``
and ``topology_prunes`` (indoor-reachability constraints constructed).
:meth:`FlowEngine.stats` exposes these counters and the bench harness
reports them, which is how the warm-cache speedups in ``benchmarks/`` are
measured.

Correctness notes: all cached artifacts are pure functions of the cache key
plus the context's construction parameters, which are immutable — changing
a query parameter (a new ``v_max``, another estimator resolution) means
building a fresh context (see :meth:`EvaluationContext.replace`), whose
caches start cold, so stale regions can never be served.  A context is tied
to one tracking table: reuse it only across queries over the same OTT, as
:class:`~repro.core.engine.FlowEngine` does.  When that table is *live*
(append-capable), every append must be reported via
:meth:`EvaluationContext.note_append`, which rolls the appended object's
tail epoch so its open-ended tail regions fall out of the key space —
append invalidation is surgical, never a cache flush.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Hashable, Sequence, TypeVar, cast

from ..contracts import (
    check_cached_value,
    check_presence,
    check_region_fingerprint,
    check_window,
    contracts_enabled,
)
from ..geometry import DEFAULT_RESOLUTION, Mbr, Region
from ..indoor.devices import Deployment, Device
from ..obs import counter, obs_enabled, span
from .caching import LruCache, RowCache
from .presence import PresenceEstimator
from .stats import merge_component_stats
from .uncertainty.interval import (
    IntervalUncertainty,
    RegionMemo,
    interval_uncertainty,
)
from .uncertainty.snapshot import snapshot_region, snapshot_region_key

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..indoor.poi import Poi
    from .states import IntervalContext, SnapshotContext
    from .uncertainty.topology import TopologyChecker

__all__ = ["EvaluationContext", "EvaluationStats"]

_R = TypeVar("_R")

#: One region's cached presences, ``{poi_id: presence}``.
PresenceRow = dict[Hashable, float]

#: Default capacities; sized for monitor workloads (thousands of objects,
#: tens of POIs per region) while keeping worst-case memory modest.
DEFAULT_REGION_CACHE_SIZE = 8192
DEFAULT_PRESENCE_CACHE_SIZE = 65536


@dataclass
class EvaluationStats:
    """Instrumentation counters accumulated by an evaluation context."""

    regions_computed: int = 0
    region_cache_hits: int = 0
    presence_evaluations: int = 0
    presence_cache_hits: int = 0
    topology_prunes: int = 0

    def as_dict(self) -> dict[str, int]:
        """The counters as a plain dict (feeds ``FlowEngine.stats``)."""
        return {
            "regions_computed": self.regions_computed,
            "region_cache_hits": self.region_cache_hits,
            "presence_evaluations": self.presence_evaluations,
            "presence_cache_hits": self.presence_cache_hits,
            "topology_prunes": self.topology_prunes,
        }

    def reset(self) -> None:
        """Zero all counters."""
        self.regions_computed = 0
        self.region_cache_hits = 0
        self.presence_evaluations = 0
        self.presence_cache_hits = 0
        self.topology_prunes = 0


def _mbr_fingerprint(value: object) -> tuple[float, float, float, float] | None:
    """The (min_x, min_y, max_x, max_y) fingerprint of a cached region.

    Cached values are regions (snapshot entries) or episode regions
    (interval entries); both expose ``.mbr``.  ``None`` for empty regions
    and for cache values without an MBR (nothing to compare).
    """
    mbr = getattr(value, "mbr", None)
    if not isinstance(mbr, Mbr):
        return None
    return (mbr.min_x, mbr.min_y, mbr.max_x, mbr.max_y)


class _CountingTopology:
    """A :class:`TopologyChecker` proxy that counts constraint constructions.

    Every ring/path constraint intersected into a region is one topology
    pruning opportunity; the count feeds ``stats.topology_prunes``.
    """

    __slots__ = ("_checker", "_stats")

    def __init__(self, checker: "TopologyChecker", stats: EvaluationStats):
        self._checker = checker
        self._stats = stats

    def ring_constraint(self, device: Device, budget: float) -> Region:
        self._stats.topology_prunes += 1
        return self._checker.ring_constraint(device, budget)

    def path_constraint(
        self, device_a: Device, device_b: Device, budget: float
    ) -> Region:
        self._stats.topology_prunes += 1
        return self._checker.path_constraint(device_a, device_b, budget)


class EvaluationContext:
    """Query parameters, memo layers and counters for one tracking table.

    Parameters
    ----------
    deployment:
        The positioning-device deployment regions are derived against.
    v_max:
        Maximum indoor movement speed (m/s) — the paper's ``V_max``.
    estimator:
        The presence estimator; built from ``resolution`` when omitted.
    topology:
        Optional indoor topology checker (Section 3.3); ``None`` ablates
        the check.
    inner_allowance:
        Ring inner-exclusion relaxation in meters (sampled systems).
    rtree_fanout:
        Node capacity of the POI R-trees (the universe and per-query subsets).
    resolution:
        Presence quadrature resolution, used when ``estimator`` is omitted.
    region_cache_size, presence_cache_size:
        LRU capacities of the memo layers; ``0`` disables a layer.
        ``region_cache_size`` bounds the episode regions and, separately,
        the memoized interval windows; ``presence_cache_size`` bounds the
        number of cached (region, POI) presence values.
    """

    def __init__(
        self,
        deployment: Deployment,
        v_max: float,
        estimator: PresenceEstimator | None = None,
        topology: "TopologyChecker | None" = None,
        inner_allowance: float = 0.0,
        rtree_fanout: int = 8,
        resolution: int = DEFAULT_RESOLUTION,
        region_cache_size: int = DEFAULT_REGION_CACHE_SIZE,
        presence_cache_size: int = DEFAULT_PRESENCE_CACHE_SIZE,
    ):
        if not (math.isfinite(v_max) and v_max > 0):
            raise ValueError(f"v_max must be positive and finite, got {v_max!r}")
        if not (math.isfinite(inner_allowance) and inner_allowance >= 0):
            raise ValueError(
                "inner_allowance must be non-negative and finite, "
                f"got {inner_allowance!r}"
            )
        self.deployment = deployment
        self.v_max = float(v_max)
        self.estimator = (
            estimator
            if estimator is not None
            else PresenceEstimator(resolution=resolution)
        )
        self.topology = topology
        self.inner_allowance = float(inner_allowance)
        self.rtree_fanout = rtree_fanout
        self.stats = EvaluationStats()
        self._region_cache: LruCache[object] = LruCache(region_cache_size)
        self._window_cache: LruCache[IntervalUncertainty] = LruCache(
            region_cache_size
        )
        self._presence_cache: RowCache[float] = RowCache(presence_cache_size)
        # Generation counters for live ingestion (see note_append): a total
        # data generation plus a per-object tail epoch stamped into the
        # cache keys of the object's open-ended tail episodes.
        self.data_generation = 0
        self._tail_epochs: dict[Hashable, int] = {}
        self._counted_topology = (
            _CountingTopology(topology, self.stats) if topology is not None else None
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def replace(self, **overrides: Any) -> "EvaluationContext":
        """A fresh context (cold caches) with some parameters overridden.

        This is *the* way to change a query parameter: caches are keyed per
        context, so a replacement can never serve regions computed under
        the old parameters.

        Args:
            **overrides: Constructor keyword(s) to change (``v_max``,
                ``resolution``, ``topology``, cache sizes, …).

        Returns:
            A new :class:`EvaluationContext` with cold caches.

        Raises:
            ValueError: If an override violates a constructor constraint
                (non-positive or non-finite ``v_max``, negative or non-finite
                ``inner_allowance``).
        """
        settings: dict[str, Any] = dict(
            deployment=self.deployment,
            v_max=self.v_max,
            estimator=None if "resolution" in overrides else self.estimator,
            topology=self.topology,
            inner_allowance=self.inner_allowance,
            rtree_fanout=self.rtree_fanout,
            region_cache_size=self._region_cache.capacity,
            presence_cache_size=self._presence_cache.capacity,
        )
        settings.update(overrides)
        return EvaluationContext(**settings)

    def clear_caches(self) -> None:
        """Drop every memo layer (counters are kept; see ``reset_stats``)."""
        self._region_cache.clear()
        self._window_cache.clear()
        self._presence_cache.clear()

    def reset_stats(self) -> None:
        """Zero the evaluation counters (cache contents are kept)."""
        self.stats.reset()

    def stats_dict(self) -> dict[str, int]:
        """Counters plus current cache occupancy and data generation.

        Returns:
            The :class:`EvaluationStats` counters plus
            ``region_cache_entries`` (episode and snapshot regions, not
            memoized windows), ``presence_cache_entries`` (cached
            presence values, over all rows) and ``data_generation``.
        """
        return merge_component_stats(
            self.stats.as_dict(),
            {
                "region_cache_entries": len(self._region_cache),
                "presence_cache_entries": len(self._presence_cache),
                "data_generation": self.data_generation,
            },
        )

    # ------------------------------------------------------------------
    # Live ingestion (generation-aware cache keys)
    # ------------------------------------------------------------------

    def tail_epoch(self, object_id: Hashable) -> int:
        """The object's append epoch (0 until data is appended for it)."""
        return self._tail_epochs.get(object_id, 0)

    def note_append(self, object_id: Hashable) -> None:
        """Record that tracking data was appended for ``object_id``.

        Bumps the global :attr:`data_generation` and the object's tail
        epoch.  The epoch is stamped into the cache keys of the object's
        *trail* episodes — the only cached regions that extrapolate past
        its last record — so an append retires exactly those entries (they
        simply stop being addressable) while every other cached region
        stays valid and reusable:

        * snapshot and gap keys already encode the involved record
          boundary times, so new records produce new keys by construction;
        * detection-episode regions are the devices' constant ranges,
          independent of the appended data;
        * the former "last gap" of the object is re-derived under a gap
          key (both boundaries now known) rather than the trail key.

        Cached == uncached stays bit-identical: keys only decide reuse,
        never values.
        """
        self.data_generation += 1
        self._tail_epochs[object_id] = self._tail_epochs.get(object_id, 0) + 1

    def sync_generation(self, generation: int) -> None:
        """Fast-forward :attr:`data_generation` to a persisted counter.

        Recovery advances the context by each shard store's snapshot
        generation, then replays that store's WAL tail through
        :meth:`note_append` — so after restore the context's generation
        equals the sum of the stores' persisted ones, exactly as if the
        appends had happened live in this process.

        Args:
            generation: The storage generation to adopt.

        Raises:
            ValueError: If the generation would move backwards.
        """
        if generation < self.data_generation:
            raise ValueError(
                f"data_generation cannot move backwards "
                f"({generation} < {self.data_generation})"
            )
        self.data_generation = generation

    # ------------------------------------------------------------------
    # Region memo layer
    # ------------------------------------------------------------------

    def memo_region(
        self, key: tuple[Hashable, ...], builder: Callable[[], _R]
    ) -> _R:
        """Build-or-reuse one region-cache entry; counts the outcome.

        ``key`` is ``(kind, object_id, quantized time window)``: the
        parameters are fixed per context, so they need no place in it.

        Under ``REPRO_CONTRACTS=1`` every cache hit is verified against a
        fresh rebuild (MBR fingerprints must agree) — the PR 1 coherence
        invariant.  The verification rebuild runs outside the counters, but
        its topology constraint constructions do inflate
        ``topology_prunes``; contract mode trades stats purity for checking.

        With :mod:`repro.obs` enabled, cache-miss builds are timed under a
        ``ur.build.<kind>`` span (kind = ``snapshot`` / ``detection`` /
        ``gap`` / ``lead`` / ``trail``) — observation only, never part of
        the cache key or the value.  Hits and misses are counted once, in
        ``stats`` (``region_cache_hits`` / ``regions_computed``).

        Args:
            key: The parameter-free key part; its first element names the
                region kind.
            builder: Zero-argument callable constructing the region on a
                miss.

        Returns:
            The cached or freshly built value.
        """
        build = builder
        if obs_enabled():
            kind = key[0] if key and isinstance(key[0], str) else "region"

            def build() -> _R:
                with span(f"ur.build.{kind}"):
                    return builder()

        raw, hit = self._region_cache.get_or_build(key, build)
        value = cast(_R, raw)
        if hit:
            self.stats.region_cache_hits += 1
            if contracts_enabled():
                check_region_fingerprint(
                    _mbr_fingerprint(value),
                    _mbr_fingerprint(builder()),
                    key=key,
                )
        else:
            self.stats.regions_computed += 1
        return value

    def snapshot_region(self, context: "SnapshotContext") -> Region:
        """Memoized ``UR(o, t)`` for one snapshot context.

        Args:
            context: The object's snapshot state (covering / neighbouring
                records around ``t``).

        Returns:
            The (possibly topology-checked) snapshot uncertainty region.
        """
        return self.memo_region(
            snapshot_region_key(context),
            lambda: snapshot_region(
                context,
                self.deployment,
                self.v_max,
                self._counted_topology,
                self.inner_allowance,
            ),
        )

    def interval_uncertainty(self, context: "IntervalContext") -> IntervalUncertainty:
        """``UR(o, [t_s, t_e])``, memoized per window and per episode.

        A window asked before — same object, same ``t_start`` and
        ``t_end``, same tail epoch — returns the memoized
        :class:`IntervalUncertainty` (its union region and MBRs
        included) without touching the region cache.  That is sound: a
        window's record chain depends only on the object's own records,
        and every live mutation of them rolls the object's tail epoch
        (:meth:`note_append`).  Otherwise the episode list is assembled
        and each episode's region goes through the region cache, so a
        sliding window only computes the episodes whose effective window
        changed.

        With :mod:`repro.obs` enabled, window hits and misses are counted
        in ``ctx.window.hits`` / ``ctx.window.misses``.  Under
        ``REPRO_CONTRACTS=1`` every window hit is checked against a build
        from scratch (same episode keys, same MBR fingerprints).

        Args:
            context: The object's interval state (records overlapping the
                window).

        Returns:
            The object's :class:`IntervalUncertainty`.
        """
        object_id = context.object_id
        key = (
            object_id,
            context.t_start,
            context.t_end,
            self.tail_epoch(object_id),
        )
        windows = self._window_cache
        found = windows.get(key)
        if found is not None:
            if obs_enabled():
                counter("ctx.window.hits", unit="windows").inc()
            if contracts_enabled():
                check_window(
                    _episode_fingerprints(found),
                    _episode_fingerprints(self._build_interval(context, None)),
                    key=key,
                )
            return found
        if obs_enabled():
            counter("ctx.window.misses", unit="windows").inc()
        built = self._build_interval(context, self.memo_region)
        windows.put(key, built)
        return built

    def _build_interval(
        self, context: "IntervalContext", memo: RegionMemo | None
    ) -> IntervalUncertainty:
        return interval_uncertainty(
            context,
            self.deployment,
            self.v_max,
            self._counted_topology,
            self.inner_allowance,
            memo=memo,
            tail_token=self.tail_epoch(context.object_id),
        )

    # ------------------------------------------------------------------
    # Presence memo layer
    # ------------------------------------------------------------------

    @staticmethod
    def snapshot_fingerprint(context: "SnapshotContext") -> tuple[Hashable, ...]:
        """The presence-cache fingerprint of a snapshot region."""
        return snapshot_region_key(context)

    @staticmethod
    def interval_fingerprint(
        uncertainty: IntervalUncertainty,
    ) -> tuple[Hashable, ...] | None:
        """The presence-cache fingerprint of an interval region.

        The fingerprint is the tuple of episode keys: two interval regions
        with identical episodes are geometrically identical, however the
        query windows producing them were positioned.
        """
        return uncertainty.fingerprint

    def presence_row(self, fingerprint: Hashable | None) -> PresenceRow | None:
        """The cached presences of one region: ``{poi_id: presence}``.

        ``None`` when nothing is cached for the fingerprint (or it is
        ``None``).  The row is the cache's own: later evaluations of the
        region add to it, and a caller may keep it to read many POIs
        with one key lookup, as the join does for each object it
        refines.  Reading the row is not counted; :meth:`presences`
        counts hits and evaluations per pair.
        """
        if fingerprint is None:
            return None
        return self._presence_cache.row(fingerprint)

    def presence(
        self, region: Region, poi: "Poi", fingerprint: Hashable | None = None
    ) -> float:
        """Memoized presence ``area(UR ∩ p) / area(p)`` of one region.

        A batch of one through :meth:`presences`.

        Args:
            region: The uncertainty region.
            poi: The POI to intersect it with.
            fingerprint: The region's geometry identity for caching, or
                ``None`` to evaluate uncached.

        Returns:
            The presence value in ``[0, 1]``.
        """
        return self.presences(poi, ((lambda: region, fingerprint),))[0]

    def presences(
        self,
        poi: "Poi",
        batch: Sequence[tuple[Callable[[], Region], Hashable | None]],
        rows: Sequence[PresenceRow | None] | None = None,
    ) -> list[float]:
        """Memoized presences of many regions in one POI.

        Each item is ``(derive, fingerprint)``: a zero-argument callable
        returning the region, called only when its presence is not
        cached, and the fingerprint identifying the region's geometry
        (``None`` for regions not built through this context: no caching,
        still counted).  ``rows``, when given, holds each item's
        :meth:`presence_row` resolved by the caller, so hits cost one
        dict read each.  Cache hits are resolved first; the misses are
        evaluated together in one batched quadrature pass over the POI's
        grid (:meth:`PresenceEstimator.presences`).

        With :mod:`repro.obs` enabled, that pass is timed under one
        ``presence.quadrature`` span; hits and misses are counted in
        ``stats`` (``presence_cache_hits`` / ``presence_evaluations``).

        Args:
            poi: The POI to intersect the regions with.
            batch: ``(derive, fingerprint)`` pairs.
            rows: Optional pre-resolved presence rows, one per item.

        Returns:
            The presence values in ``[0, 1]``, in batch order.

        Raises:
            AssertionError: Under ``REPRO_CONTRACTS=1``, if a value falls
                outside ``[0, 1]``, a batched count differs from
                ``contains_many`` or a cached value diverges from a fresh
                evaluation.
        """
        poi_id = poi.poi_id
        if rows is None:
            rows = [self.presence_row(fingerprint) for _, fingerprint in batch]
        found = [None if row is None else row.get(poi_id) for row in rows]
        misses = [index for index, value in enumerate(found) if value is None]
        values = cast(list[float], found)
        hit_count = len(batch) - len(misses)
        if hit_count:
            self.stats.presence_cache_hits += hit_count
            if contracts_enabled():
                hits = [i for i, value in enumerate(found) if value is not None]
                fresh = self.estimator.presences(
                    poi, [batch[index][0]() for index in hits]
                )
                for index, value in zip(hits, fresh):
                    check_cached_value(
                        values[index],
                        value,
                        what=f"presence in POI {poi_id!r}",
                        key=batch[index][1],
                    )
        if not misses:
            return values
        self.stats.presence_evaluations += len(misses)
        regions = [batch[index][0]() for index in misses]
        if obs_enabled():
            with span("presence.quadrature"):
                fresh = self.estimator.presences(poi, regions)
        else:
            fresh = self.estimator.presences(poi, regions)
        where = f"presence in POI {poi_id!r}"
        cache = self._presence_cache
        for index, value in zip(misses, fresh):
            values[index] = check_presence(value, where=where)
            fingerprint = batch[index][1]
            if fingerprint is not None:
                cache.put(fingerprint, poi_id, value)
        return values


def _episode_fingerprints(
    uncertainty: IntervalUncertainty,
) -> list[tuple[object, tuple[float, float, float, float] | None]]:
    """Each episode's key and MBR fingerprint (the window contract's view)."""
    return [
        (episode.key, _mbr_fingerprint(episode.region))
        for episode in uncertainty.episodes
    ]

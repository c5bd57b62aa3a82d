"""The object partition and the bit-exact merge behind ``num_shards > 1``.

The paper's flow score is a per-object sum, ``Φ(p) = Σ_o φ(o)``
(Definition 2), so a :class:`~repro.core.engine.FlowEngine` built with
``num_shards=N > 1`` partitions *objects*: each of N
:class:`~repro.core.shard.ShardState` partitions owns a disjoint slice of
the tracking table (selected by :func:`shard_of`), its own AR-tree and its
own cache slice.  The engine calls the shards directly, merges their
partial results with the functions here and re-ranks — returning
**bit-identical** top-k results to the one-shard engine over the same data:

* **Iterative queries** merge the shards' raw per-(object, POI) presence
  contributions, re-sorted on the canonical AR-tree entry key, and
  accumulate them in one global pass — the exact float-addition order of
  the monolithic scan (:func:`merge_partials`).
* **Join queries** first collect the cheap per-POI count bounds
  (Section 4.2), then refine POIs in rounds — a POI is refined while its
  summed bound still reaches the current k-th exact flow — skipping every
  shard whose bounds are all zero for the POIs still in play (a skipped
  shard could only add exact zeros).  :func:`pruned_topk` returns how many
  shard calls it skipped (``shard_prunes`` in the engine's stats); the
  refined flows go through the same canonical merge.

This module owns every partition and merge-order decision, so the engine
facade holds none.
"""

from __future__ import annotations

import zlib
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

from ..analysis.contracts import check_flow, contracts_enabled
from ..indoor.devices import Deployment
from ..indoor.distance import IndoorDistanceOracle
from ..indoor.floorplan import FloorPlan
from ..indoor.poi import Poi
from ..storage.sqlite import sqlite_shard_stores
from ..tracking.records import ObjectId
from ..tracking.table import LiveTrackingTable, ObjectTrackingTable
from .caching import shard_cache_capacity
from .queries import TopKResult, rank_top_k
from .shard import Contribution, ShardState
from .uncertainty import TopologyChecker

__all__ = ["build_shards", "merge_partials", "pruned_topk", "shard_of"]

#: One shard's partial flows: ``(contributions, candidate objects)``.
Partial = tuple[list[Contribution], int]


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
    floorplan: FloorPlan,
    deployment: Deployment,
    ott: ObjectTrackingTable | LiveTrackingTable,
    pois: Sequence[Poi],
    v_max: float,
    num_shards: int,
    storage: str | Path | None,
    **params: Any,
) -> list[ShardState]:
    """Partition ``ott`` by :func:`shard_of` into ``num_shards`` shards.

    The monolith's cache budget is *split* across shards
    (:func:`~repro.core.caching.shard_cache_capacity`) and the indoor
    topology checker is built once and shared (door-graph distances
    depend only on the floor plan), so a fleet keeps roughly the
    monolith's memory footprint.

    Args:
        floorplan, deployment, ott, pois, v_max: As for the engine.
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
    for key in ("region_cache_size", "presence_cache_size"):
        params[key] = shard_cache_capacity(params[key], num_shards)
    topology: TopologyChecker | None = None
    if params.get("topology_check", True):
        topology = TopologyChecker(IndoorDistanceOracle(floorplan))
    all_ids = ott.object_ids
    shards = [
        ShardState(
            floorplan=floorplan,
            deployment=deployment,
            ott=ott,
            pois=pois,
            v_max=v_max,
            object_ids=frozenset(
                object_id
                for object_id in all_ids
                if shard_of(object_id, num_shards) == index
            ),
            topology=topology,
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


def merge_partials(results: Iterable[Partial]) -> tuple[dict[str, float], int]:
    """Merge shards' contributions in canonical accumulation order.

    Re-sorting every contribution on its AR-tree entry key
    ``(t1, t2, record_id)`` restores the monolithic iterative scan's
    enumeration order; accumulating in that order reproduces its float
    additions bit for bit (addition is not associative, so a per-shard
    pre-sum would not).

    Args:
        results: One :meth:`ShardState.partial_flows` (or
            ``partial_interval_flows``) result per shard.

    Returns:
        ``({poi_id: flow}, candidates)`` over the merged results.
    """
    contributions: list[Contribution] = []
    candidates = 0
    for part, count in results:
        contributions.extend(part)
        candidates += count
    # Stable sort: within one entry key all contributions belong to one
    # object and target distinct POIs, so the key alone fixes every
    # per-POI addition order.
    contributions.sort(key=lambda contribution: contribution[0])
    flows: dict[str, float] = {}
    for _, poi_id, presence in contributions:
        flows[poi_id] = flows.get(poi_id, 0.0) + presence
    if contracts_enabled():
        for poi_id, flow in flows.items():
            check_flow(flow, candidates, poi_id=poi_id)
    return flows, candidates


def _kth_flow(exact: dict[str, float], k: int) -> float:
    """The current k-th best confirmed flow (0.0 while undersubscribed)."""
    if len(exact) < k:
        return 0.0
    return sorted(exact.values(), reverse=True)[k - 1]


def pruned_topk(
    shards: Sequence[ShardState],
    query_pois: Sequence[Poi],
    k: int,
    bounds: Callable[[ShardState], dict[str, int]],
    flows: Callable[[ShardState, list[Poi]], Partial],
) -> tuple[TopKResult, int]:
    """The join strategy over a fleet: bound, refine in rounds, prune.

    Every POI whose summed count bound still reaches the current k-th
    exact flow gets refined (``>=`` so ties are always confirmed
    exactly); each refinement round skips the shards whose bounds are all
    zero for the POIs in play — such a shard could only contribute exact
    zeros, which cannot perturb a float sum.  Unrefined POIs are provably
    below the k-th flow, so ranking the refined exact flows zero-filled
    reproduces the monolithic join's result bit for bit.

    Args:
        shards: The fleet.
        query_pois: The query POI set P.
        k: How many POIs to return.
        bounds: One shard's per-POI count bounds over ``query_pois``.
        flows: One shard's partial flows over a refinement target.

    Returns:
        ``(ranked result, skipped shard calls)``.

    Raises:
        ValueError: If ``k < 1``.
    """
    if k < 1:
        raise ValueError("k must be positive")
    per_shard_bounds = [bounds(shard) for shard in shards]
    total_bounds: dict[str, int] = {}
    for part in per_shard_bounds:
        for poi_id, bound in part.items():
            total_bounds[poi_id] = total_bounds.get(poi_id, 0) + bound
    exact: dict[str, float] = {}
    refined: set[str] = set()
    prunes = 0
    while True:
        if not refined:
            # Seed with the k most promising POIs by bound.
            candidates = sorted(
                (
                    poi
                    for poi in query_pois
                    if total_bounds.get(poi.poi_id, 0) > 0
                ),
                key=lambda poi: (-total_bounds[poi.poi_id], poi.poi_id),
            )
            target = candidates[:k]
        else:
            kth = _kth_flow(exact, k)
            target = [
                poi
                for poi in query_pois
                if poi.poi_id not in refined
                and total_bounds.get(poi.poi_id, 0) > 0
                and float(total_bounds[poi.poi_id]) >= kth
            ]
        if not target:
            break
        involved = [
            shard
            for shard, part in zip(shards, per_shard_bounds)
            if any(part.get(poi.poi_id, 0) > 0 for poi in target)
        ]
        prunes += len(shards) - len(involved)
        merged, _ = merge_partials(flows(shard, target) for shard in involved)
        for poi in target:
            refined.add(poi.poi_id)
            exact[poi.poi_id] = merged.get(poi.poi_id, 0.0)
    return rank_top_k(exact, query_pois, k), prunes

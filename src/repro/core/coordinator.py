"""The object partition behind ``num_shards > 1``.

The paper's flow score is a per-object sum, ``Φ(p) = Σ_o φ(o)``
(Definition 2), so a :class:`~repro.core.engine.FlowEngine` built with
``num_shards=N > 1`` partitions *objects*: each of N
:class:`~repro.core.shard.ShardState` partitions owns a disjoint slice of
the tracking table (selected by :func:`shard_of`), its AR-tree and its
store.  The engine's evaluation context, POI R-tree and caches are shared,
and queries run the paper's algorithms once over the shards' merged
AR-tree candidates, so answers are bit-identical to the one-shard
engine's.
"""

from __future__ import annotations

import zlib
from pathlib import Path
from typing import Any

from ..storage.sqlite import sqlite_shard_stores
from ..tracking.records import ObjectId
from ..tracking.table import LiveTrackingTable, ObjectTrackingTable
from .context import EvaluationContext
from .shard import ShardState

__all__ = ["build_shards", "shard_of"]


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

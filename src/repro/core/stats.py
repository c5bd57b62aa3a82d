"""Counter-dict merging shared by engine stats and shard merging.

Every stateful component (:class:`~repro.core.context.EvaluationContext`,
the AR-tree, the POI subset-tree memo) reports its counters as a flat
``dict[str, int]``.  Two merge shapes recur:

* **union** — one engine composes the *disjoint* counter sets of its
  nested components into one stats dict; a duplicate key means two
  components claim the same counter, which is a bug, not data.
* **sum** — a sharded engine folds the *identical* counter sets of N
  shards into fleet-wide totals, pointwise.

Both used to be hand-copied key lists; keeping them here means a counter
added to a component shows up in ``FlowEngine.stats()`` at every shard
count without touching it.
"""

from __future__ import annotations

from typing import Iterable, Mapping

__all__ = ["merge_component_stats", "merge_shard_stats"]


def merge_component_stats(*parts: Mapping[str, int]) -> dict[str, int]:
    """Union disjoint component counter dicts into one stats dict.

    Args:
        *parts: One counter dict per component.

    Returns:
        A single dict holding every component's counters.

    Raises:
        ValueError: If two components report the same counter name.
    """
    merged: dict[str, int] = {}
    for part in parts:
        for key, value in part.items():
            if key in merged:
                raise ValueError(
                    f"stats key {key!r} reported by two components"
                )
            merged[key] = value
    return merged


def merge_shard_stats(parts: Iterable[Mapping[str, int]]) -> dict[str, int]:
    """Sum per-shard stats dicts pointwise into fleet-wide totals.

    Shards are homogeneous, so the key sets normally coincide; a key
    missing from some shard simply contributes zero.

    Args:
        parts: One stats dict per shard.

    Returns:
        The pointwise sum over all shards (empty if ``parts`` is empty).
    """
    merged: dict[str, int] = {}
    for part in parts:
        for key, value in part.items():
            merged[key] = merged.get(key, 0) + value
    return merged

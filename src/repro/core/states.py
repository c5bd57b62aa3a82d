"""Tracking-state resolution (paper, Sections 3.1.1 and 3.2).

At a time point ``t`` an object is *active* when some tracking record
covers ``t`` and *inactive* otherwise.  Either way, up to three records
matter for the uncertainty analysis:

* ``rd_cov`` — the covering record (active state only);
* ``rd_pre`` — the record immediately before (the covering record's
  predecessor when active, the last record ending before ``t`` when
  inactive);
* ``rd_suc`` — the first record starting after ``t`` (inactive state only).

Over a time interval the relevant records form a chain, whose start and end
records per the four active/inactive combinations are listed in the paper's
Table 3.  Both resolutions are computed from AR-tree query results — the
point query hands back exactly the leaf entry whose augmented interval
covers ``t``, the range query hands back the chain.

An engine with ``num_shards=N > 1`` keeps one AR-tree per object
partition.  Both queries return entries sorted on the tree's total key
``(t1, t2, record_id)`` and no object spans two trees, so merging the
trees' results on that key yields exactly the entry sequence one tree
over all records would return: the candidate order, and with it every
float addition downstream, does not depend on the shard count.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

from ..index import ARLeafEntry, ARTree
from ..index.artree import _entry_key
from ..tracking.records import ObjectId, TrackingRecord

__all__ = [
    "TrackingState",
    "SnapshotContext",
    "IntervalContext",
    "snapshot_context",
    "snapshot_contexts",
    "interval_context_from_entries",
    "interval_contexts",
]


class TrackingState(enum.Enum):
    """Whether the object is being detected at the queried time."""

    ACTIVE = "active"
    INACTIVE = "inactive"


@dataclass(frozen=True, slots=True)
class SnapshotContext:
    """The records relevant to one object at one time point."""

    object_id: ObjectId
    t: float
    rd_pre: TrackingRecord | None
    rd_cov: TrackingRecord | None
    rd_suc: TrackingRecord | None

    @property
    def state(self) -> TrackingState:
        return (
            TrackingState.ACTIVE if self.rd_cov is not None else TrackingState.INACTIVE
        )


@dataclass(frozen=True, slots=True)
class IntervalContext:
    """The record chain relevant to one object over one time window.

    ``records`` is time-ordered and spans from the Table 3 start record to
    the end record: it includes ``rd_pre(t_s)`` when the object is inactive
    at ``t_s`` and ``rd_suc(t_e)`` when inactive at ``t_e``.  Records at the
    chain boundaries may lie entirely outside the window — they then only
    anchor the boundary uncertainty pieces, not a detection episode.
    """

    object_id: ObjectId
    t_start: float
    t_end: float
    records: tuple[TrackingRecord, ...]

    def state_at(self, t: float) -> TrackingState:
        covered = any(record.covers(t) for record in self.records)
        return TrackingState.ACTIVE if covered else TrackingState.INACTIVE


def snapshot_context(entry: ARLeafEntry, t: float) -> SnapshotContext:
    """Resolve the state encoded by an AR-tree leaf entry covering ``t``."""
    record = entry.record
    if record.covers(t):
        return SnapshotContext(
            object_id=record.object_id,
            t=t,
            rd_pre=entry.predecessor,
            rd_cov=record,
            rd_suc=None,
        )
    # The augmented interval covers t but the record itself does not: t
    # falls in the undetected gap (rd_pre.t_e, record.t_s).
    return SnapshotContext(
        object_id=record.object_id,
        t=t,
        rd_pre=entry.predecessor,
        rd_cov=None,
        rd_suc=record,
    )


#: One AR-tree, or the per-shard AR-trees of an object-partitioned engine.
ARTrees = ARTree | Sequence[ARTree]

_T = TypeVar("_T")


def _trees(artrees: ARTrees) -> Sequence[ARTree]:
    return (artrees,) if isinstance(artrees, ARTree) else artrees


def _merged(
    runs: list[list[_T]], key: Callable[[_T], tuple[float, float, int]]
) -> list[_T]:
    """Runs sorted on ``key`` merged into one sorted list (one run as is)."""
    if len(runs) == 1:
        return runs[0]
    return list(heapq.merge(*runs, key=key))


def snapshot_contexts(artrees: ARTrees, t: float) -> list[SnapshotContext]:
    """State resolution for every object trackable at time ``t``.

    Objects whose tracking history does not reach ``t`` (last record ended
    earlier, first record starts later) have no covering augmented interval
    and are — as in the paper — not part of the analysis.  Contexts come
    in entry-key order over all of ``artrees``.
    """
    entries = _merged(
        [tree.point_query(t) for tree in _trees(artrees)], _entry_key
    )
    return [snapshot_context(entry, t) for entry in entries]


def interval_context_from_entries(
    object_id: ObjectId,
    entries: list[ARLeafEntry],
    t_start: float,
    t_end: float,
) -> IntervalContext:
    """Build one object's record chain from its overlapping leaf entries.

    ``entries`` must all belong to ``object_id`` and overlap the window;
    they are sorted in place by augmented interval.
    """
    entries.sort(key=lambda e: (e.t1, e.t2))
    records = [entry.record for entry in entries]
    first = entries[0]
    if first.predecessor is not None and first.record.t_s > t_start:
        # The chain's start record when the object is inactive at
        # t_start (Table 3): the record just before the first gap the
        # window touches.
        records.insert(0, first.predecessor)
    return IntervalContext(
        object_id=object_id,
        t_start=t_start,
        t_end=t_end,
        records=tuple(records),
    )


def interval_contexts(
    artrees: ARTrees, t_start: float, t_end: float
) -> list[IntervalContext]:
    """Record-chain resolution for every object relevant to the window.

    Objects come in the order of their first overlapping entry's key over
    all of ``artrees``.
    """
    runs: list[list[list[ARLeafEntry]]] = []
    for tree in _trees(artrees):
        by_object: dict[ObjectId, list[ARLeafEntry]] = {}
        for entry in tree.range_query(t_start, t_end):
            by_object.setdefault(entry.object_id, []).append(entry)
        runs.append(list(by_object.values()))
    # Each tree lists its objects in first-entry-key order, and no object
    # spans two trees, so merging on that key orders the objects as one
    # tree over all records would.
    groups = _merged(runs, lambda entries: _entry_key(entries[0]))
    return [
        interval_context_from_entries(
            entries[0].object_id, entries, t_start, t_end
        )
        for entries in groups
    ]

"""The AR-tree: an augmented temporal index over the OTT.

The paper (Section 4.1) indexes the object tracking table with an augmented
1D R-tree.  A tracking record ``rd_c`` is indexed by a leaf entry
``(t1, t2, Ptr_p, Ptr_c)`` where ``Ptr_c`` points to ``rd_c``, ``Ptr_p``
points to the object's previous record ``rd_p``, and ``(t1, t2] =
(rd_p.t_e, rd_c.t_e]`` is the *augmented tracking time interval*: it covers
both the undetected gap before ``rd_c`` and ``rd_c``'s own detection
episode.  Non-leaf entries store the minimum bounding interval of their
child node.

* A **point query** at ``t`` returns, for every object, the leaf entry whose
  augmented interval covers ``t`` — from which the tracking state (active /
  inactive) and the relevant ``rd_pre``/``rd_cov``/``rd_suc`` records follow
  directly (Section 3.1.1).
* A **range query** over ``[t_s, t_e]`` returns the chain of leaf entries
  whose augmented intervals overlap the window, yielding the start, end and
  in-between records of Table 3.

The bulk of the index is loaded bottom-up from a consistent OTT (sorted by
interval start), which packs nodes tightly.  On top of the static tree the
index keeps a small **sorted delta buffer** of recently appended leaf
entries, LSM-style: :meth:`ARTree.append_record` inserts into the delta in
O(log delta), every query consults the static tree *and* the delta, and
once the delta outgrows ``delta_threshold`` it is automatically compacted —
merged with the static entries and bulk-reloaded.  Entries of still-open
detection episodes (live ingestion; see
:class:`~repro.tracking.table.LiveTrackingTable`) are pinned in the delta,
where :meth:`ARTree.patch_tail` can cheaply replace them as the episode's
``t_e`` advances and finally closes.

Query results are returned in a deterministic total order
``(t1, t2, record_id)`` so that an incrementally maintained tree and a
from-scratch bulk load answer queries *identically* — including the
floating-point accumulation order of downstream flow sums.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Protocol

from ..obs import counter, obs_enabled, span

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle
    # through repro.tracking, whose detection model uses the indoor package,
    # which indexes rooms with this package's R-tree)
    from ..tracking.records import ObjectId, TrackingRecord

__all__ = ["ARTree", "ARLeafEntry"]

#: Delta-buffer size at which :meth:`ARTree.append_record` triggers an
#: automatic compaction (open-episode entries do not count — they are
#: pinned in the delta until they close).
DEFAULT_DELTA_THRESHOLD = 256


class TrackingSource(Protocol):
    """What :meth:`ARTree.build` reads: a consistent, queryable OTT.

    Both :class:`~repro.tracking.table.ObjectTrackingTable` (frozen) and
    :class:`~repro.tracking.table.LiveTrackingTable` satisfy this.
    """

    @property
    def object_ids(self) -> list["ObjectId"]: ...

    @property
    def open_object_ids(self) -> frozenset["ObjectId"]: ...

    def records_for(self, object_id: "ObjectId") -> list["TrackingRecord"]: ...


@dataclass(frozen=True, slots=True)
class ARLeafEntry:
    """A leaf entry ``(t1, t2, Ptr_p, Ptr_c)`` of the AR-tree.

    ``predecessor`` is ``None`` for an object's first record, in which case
    the augmented interval degenerates to the record's own episode
    ``[record.t_s, record.t_e]`` (closed at the start).
    """

    t1: float
    t2: float
    predecessor: TrackingRecord | None
    record: TrackingRecord

    @property
    def object_id(self) -> ObjectId:
        """The tracked object this entry belongs to."""
        return self.record.object_id

    def covers(self, t: float) -> bool:
        """Whether the augmented interval covers time ``t``.

        The interval is ``(t1, t2]`` when a predecessor exists (``t = t1``
        belongs to the predecessor's entry) and ``[t1, t2]`` otherwise.
        """
        if self.predecessor is None:
            return self.t1 <= t <= self.t2
        return self.t1 < t <= self.t2

    def overlaps(self, t_start: float, t_end: float) -> bool:
        """Whether the augmented interval intersects ``[t_start, t_end]``."""
        return self.t1 <= t_end and self.t2 >= t_start


def _entry_key(entry: ARLeafEntry) -> tuple[float, float, int]:
    """The total order all query results are returned in.

    ``record_id`` is table-unique, so the key is a tie-free total order —
    which makes incremental (static + delta) and bulk-loaded trees return
    bit-identical result *sequences*, not just equal sets.
    """
    return (entry.t1, entry.t2, entry.record.record_id)


class _ARNode:
    """Internal AR-tree node: children plus their bounding interval."""

    __slots__ = ("t_min", "t_max", "children", "entries")

    def __init__(
        self,
        t_min: float,
        t_max: float,
        children: list["_ARNode"] | None,
        entries: list[ARLeafEntry] | None,
    ):
        self.t_min = t_min
        self.t_max = t_max
        self.children = children
        self.entries = entries

    @property
    def is_leaf(self) -> bool:
        return self.entries is not None


class ARTree:
    """Augmented temporal index: a bulk-loaded core plus an append delta."""

    def __init__(
        self,
        fanout: int = 16,
        delta_threshold: int = DEFAULT_DELTA_THRESHOLD,
    ):
        if fanout < 2:
            raise ValueError("fanout must be at least 2")
        if delta_threshold < 1:
            raise ValueError("delta_threshold must be positive")
        self.fanout = fanout
        self.delta_threshold = delta_threshold
        self._root: _ARNode | None = None
        self._size = 0
        self._by_object: dict[ObjectId, tuple[ARLeafEntry, ...]] = {}
        #: LSM-style buffer of recent entries, sorted by ``_entry_key``.
        self._delta: list[ARLeafEntry] = []
        self._delta_by_object: dict[ObjectId, list[ARLeafEntry]] = {}
        #: Objects whose tail entry is an open episode (pinned in the delta).
        self._open_objects: set[ObjectId] = set()
        #: How often the delta was merged into the static tree.
        self.compactions = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        ott: TrackingSource,
        fanout: int = 16,
        delta_threshold: int = DEFAULT_DELTA_THRESHOLD,
        object_ids: "frozenset[ObjectId] | None" = None,
    ) -> "ARTree":
        """Index a consistent OTT (frozen batch table or live table).

        A live table's open episodes land in the delta buffer (so they can
        still be patched); everything closed is bulk-loaded statically.

        Args:
            ott: The queryable tracking table to index.
            fanout: Node capacity of the bulk-loaded tree.
            delta_threshold: Closed-delta size triggering auto-compaction.
            object_ids: Index only these objects (the per-shard build seam:
                N shards can index disjoint slices of one shared frozen
                table without copying it).  ``None`` indexes everything.

        Returns:
            The packed index.

        Raises:
            ValueError: If ``fanout < 2`` or ``delta_threshold < 1``.
        """
        tree = cls(fanout=fanout, delta_threshold=delta_threshold)
        open_ids = ott.open_object_ids
        static_entries: list[ARLeafEntry] = []
        open_entries: list[ARLeafEntry] = []
        for object_id in ott.object_ids:
            if object_ids is not None and object_id not in object_ids:
                continue
            records = ott.records_for(object_id)
            previous: TrackingRecord | None = None
            for index, record in enumerate(records):
                t1 = previous.t_e if previous is not None else record.t_s
                entry = ARLeafEntry(
                    t1=t1, t2=record.t_e, predecessor=previous, record=record
                )
                is_open_tail = (
                    object_id in open_ids and index == len(records) - 1
                )
                (open_entries if is_open_tail else static_entries).append(entry)
                previous = record
        tree._bulk_load(static_entries)
        for entry in open_entries:
            tree._delta_insert(entry)
            tree._open_objects.add(entry.object_id)
        tree._size = len(static_entries) + len(open_entries)
        return tree

    def _bulk_load(self, entries: list[ARLeafEntry]) -> None:
        self._size = len(entries)
        by_object: dict[ObjectId, list[ARLeafEntry]] = {}
        for entry in entries:
            by_object.setdefault(entry.object_id, []).append(entry)
        self._by_object = {
            object_id: tuple(sorted(group, key=_entry_key))
            for object_id, group in by_object.items()
        }
        if not entries:
            self._root = None
            return
        entries = sorted(entries, key=_entry_key)
        level: list[_ARNode] = []
        for i in range(0, len(entries), self.fanout):
            chunk = entries[i : i + self.fanout]
            level.append(
                _ARNode(
                    t_min=min(entry.t1 for entry in chunk),
                    t_max=max(entry.t2 for entry in chunk),
                    children=None,
                    entries=chunk,
                )
            )
        while len(level) > 1:
            parents: list[_ARNode] = []
            for i in range(0, len(level), self.fanout):
                chunk = level[i : i + self.fanout]
                parents.append(
                    _ARNode(
                        t_min=min(node.t_min for node in chunk),
                        t_max=max(node.t_max for node in chunk),
                        children=chunk,
                        entries=None,
                    )
                )
            level = parents
        self._root = level[0]

    def __len__(self) -> int:
        return self._size

    # ------------------------------------------------------------------
    # Incremental maintenance (LSM-style delta)
    # ------------------------------------------------------------------

    @property
    def delta_size(self) -> int:
        """Leaf entries currently living in the delta buffer."""
        return len(self._delta)

    def stats_dict(self) -> dict[str, int]:
        """The index's maintenance counters, for engine stats merging."""
        return {
            "artree_delta_entries": self.delta_size,
            "artree_compactions": self.compactions,
        }

    def _delta_insert(self, entry: ARLeafEntry) -> None:
        insort(self._delta, entry, key=_entry_key)
        self._delta_by_object.setdefault(entry.object_id, []).append(entry)

    def _delta_remove(self, entry: ARLeafEntry) -> None:
        index = bisect_right(self._delta, _entry_key(entry), key=_entry_key) - 1
        while index >= 0 and self._delta[index] is not entry:
            index -= 1
        if index < 0:  # pragma: no cover - internal invariant
            raise ValueError("entry not present in the delta buffer")
        del self._delta[index]
        group = self._delta_by_object[entry.object_id]
        group.remove(entry)
        if not group:
            del self._delta_by_object[entry.object_id]

    def _tail_entry(self, object_id: ObjectId) -> ARLeafEntry | None:
        group = self._delta_by_object.get(object_id)
        if group:
            return group[-1]
        static = self._by_object.get(object_id)
        return static[-1] if static else None

    def append_record(
        self,
        record: TrackingRecord,
        predecessor: TrackingRecord | None,
        *,
        open: bool = False,
    ) -> ARLeafEntry:
        """Append one object's next tracking record to the index.

        ``predecessor`` must be the object's current last record (``None``
        for its first) — exactly the ``Ptr_p`` the new leaf entry carries;
        its augmented interval is ``(predecessor.t_e, record.t_e]``.  The
        previously open-ended tail of the object's timeline thereby closes.
        ``open=True`` marks the new entry as a still-advancing episode,
        pinned in the delta for :meth:`patch_tail`.

        Automatically compacts once the closed part of the delta exceeds
        ``delta_threshold``.

        Args:
            record: The object's next tracking record.
            predecessor: The object's current last record (``None`` for
                its first).
            open: Mark the entry as a still-advancing episode.

        Returns:
            The new leaf entry.

        Raises:
            ValueError: If the object has an unpatched open episode, the
                predecessor does not match the indexed tail, or the
                record overlaps its predecessor.
        """
        object_id = record.object_id
        if object_id in self._open_objects:
            raise ValueError(
                f"object {object_id!r} has an open episode in the index; "
                "patch_tail() must close it before the next append"
            )
        tail = self._tail_entry(object_id)
        tail_record_id = None if tail is None else tail.record.record_id
        predecessor_id = None if predecessor is None else predecessor.record_id
        if tail_record_id != predecessor_id:
            raise ValueError(
                f"object {object_id!r}: predecessor {predecessor_id!r} does "
                f"not match the indexed tail record {tail_record_id!r}"
            )
        if predecessor is not None and record.t_s < predecessor.t_e:
            raise ValueError(
                f"object {object_id!r}: record {record.record_id} "
                f"(t_s={record.t_s}) overlaps its predecessor "
                f"(t_e={predecessor.t_e})"
            )
        t1 = predecessor.t_e if predecessor is not None else record.t_s
        entry = ARLeafEntry(
            t1=t1, t2=record.t_e, predecessor=predecessor, record=record
        )
        self._delta_insert(entry)
        self._size += 1
        if open:
            self._open_objects.add(object_id)
        if len(self._delta) - len(self._open_objects) > self.delta_threshold:
            self.compact()
        return entry

    def patch_tail(
        self, record: TrackingRecord, *, open: bool
    ) -> ARLeafEntry:
        """Replace an open episode's leaf entry as its ``t_e`` advances.

        Args:
            record: The episode's updated tracking record (same
                ``record_id``, greater-or-equal ``t_e``).
            open: ``False`` closes the episode, unpinning its entry from
                the delta.

        Returns:
            The patched leaf entry.

        Raises:
            ValueError: If the object has no open episode, the record is
                not its open tail, or ``t_e`` moved backwards.
        """
        object_id = record.object_id
        if object_id not in self._open_objects:
            raise ValueError(f"object {object_id!r} has no open episode to patch")
        group = self._delta_by_object.get(object_id)
        assert group, "open episodes are pinned in the delta"
        old = group[-1]
        if old.record.record_id != record.record_id:
            raise ValueError(
                f"object {object_id!r}: record {record.record_id} is not the "
                f"open tail (record {old.record.record_id})"
            )
        if record.t_e < old.t2:
            raise ValueError(
                f"object {object_id!r}: episode end moved backwards "
                f"({record.t_e} < {old.t2})"
            )
        entry = ARLeafEntry(
            t1=old.t1, t2=record.t_e, predecessor=old.predecessor, record=record
        )
        self._delta_remove(old)
        self._delta_insert(entry)
        if not open:
            self._open_objects.discard(object_id)
            if len(self._delta) - len(self._open_objects) > self.delta_threshold:
                self.compact()
        return entry

    def compact(self) -> None:
        """Merge the closed delta entries into the static tree (rebuild).

        Open-episode entries stay in the delta — they are still mutable,
        and the static tree is immutable by construction.
        """
        with span("artree.compact"):
            open_tails = {
                object_id: self._delta_by_object[object_id][-1]
                for object_id in self._open_objects
                if object_id in self._delta_by_object
            }
            pinned = {id(entry) for entry in open_tails.values()}
            merged = [
                entry for group in self._by_object.values() for entry in group
            ]
            merged.extend(
                entry for entry in self._delta if id(entry) not in pinned
            )
            self._delta = []
            self._delta_by_object = {}
            self._bulk_load(merged)
            for entry in open_tails.values():
                self._delta_insert(entry)
            self._size = len(merged) + len(self._delta)
            self.compactions += 1

    # ------------------------------------------------------------------
    # Per-object access
    # ------------------------------------------------------------------

    def entries_for(self, object_id: ObjectId) -> tuple[ARLeafEntry, ...]:
        """One object's leaf entries in time order (empty if unknown).

        Single-object introspection (``FlowEngine.snapshot_region_of`` and
        friends) resolves states from this direct lookup in O(records of
        the object) instead of scanning every object's entries.  Static and
        delta entries are concatenated — appends only ever extend the tail,
        so the concatenation is already time-ordered.
        """
        static = self._by_object.get(object_id, ())
        delta = self._delta_by_object.get(object_id)
        if not delta:
            return tuple(static)
        return tuple(static) + tuple(delta)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def point_query(self, t: float) -> list[ARLeafEntry]:
        """All leaf entries whose augmented interval covers ``t``.

        There is at most one such entry per object.

        Args:
            t: The query time point.

        Returns:
            Matching entries in ``(t1, t2, record_id)`` order.
        """
        self._count_probe()
        results = [entry for entry in self._candidates(t, t) if entry.covers(t)]
        results.sort(key=_entry_key)
        return results

    def _count_probe(self) -> None:
        """Mirror one index query into the observability counters."""
        if obs_enabled():
            counter("artree.queries", unit="queries").inc()
            if self._delta:
                counter("artree.delta_probes", unit="probes").inc()

    def range_query(self, t_start: float, t_end: float) -> list[ARLeafEntry]:
        """All leaf entries overlapping the closed window ``[t_start, t_end]``.

        Args:
            t_start: Window start (inclusive).
            t_end: Window end (inclusive).

        Returns:
            Matching entries in ``(t1, t2, record_id)`` order; callers
            group them by object to reconstruct record chains.

        Raises:
            ValueError: If ``t_end`` precedes ``t_start``.
        """
        if t_end < t_start:
            raise ValueError("t_end precedes t_start")
        self._count_probe()
        results = [
            entry
            for entry in self._candidates(t_start, t_end)
            if entry.overlaps(t_start, t_end)
        ]
        results.sort(key=_entry_key)
        return results

    def _candidates(self, t_start: float, t_end: float) -> Iterator[ARLeafEntry]:
        for entry in self._delta:
            if entry.t1 > t_end:
                break  # the delta is sorted by t1 first
            if entry.t2 >= t_start:
                yield entry
        if self._root is None:
            return
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.t_min > t_end or node.t_max < t_start:
                continue
            if node.is_leaf:
                assert node.entries is not None
                yield from node.entries
            else:
                assert node.children is not None
                stack.extend(node.children)

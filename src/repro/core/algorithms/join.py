"""The join-based query algorithms (paper, Algorithms 2, 3 and 5).

Instead of deriving every object's uncertainty region up front, the join
algorithms:

1. test every entry of the POI R-tree ``R_P`` — internal and leaf —
   against every object's cheap MBR at once (:class:`_Admission`; no
   region derivation needed for the MBR), which yields, per entry, the
   objects it admits and their number;
2. traverse ``R_P`` best-first, driven by a priority queue keyed on
   **flow upper bounds** — an entry's admitted-object count, valid
   because presence never exceeds 1;
3. derive uncertainty regions (the expensive part: topology-checked region
   construction and presence quadrature) *only* for the objects admitted
   to high-priority POIs, caching them per object (the paper's ``H_U``);
4. stop as soon as ``k`` POIs with exactly-computed flows outrank every
   remaining upper bound.

The paper bounds a POI entry by the ``count`` fields of a per-query
aggregate R-tree ``R_I`` over the object MBRs, refined level by level.
The admission count is that bound with ``R_I`` fully expanded: it equals
the paper's bound at a leaf POI and is never looser above one, so the
traversal needs no object tree (see ``docs/paper_mapping.md``).

For interval queries the improved variant (Section 4.3.2) additionally
stores a series of tight per-episode MBRs with each object and requires at
least one of them — not just the large overall trajectory box, which is
mostly dead space — to intersect a POI before the POI admits the object.
An object's join state (its presence-cache row) is resolved once per
query, at its first refinement.
"""

from __future__ import annotations

import heapq
from itertools import count
from typing import TYPE_CHECKING, Callable, Hashable, Sequence

import numpy as np

from ...contracts import check_flow, check_upper_bound, contracts_enabled
from ...geometry import Mbr, Region, mbr_array
from ...index import RTree, RTreeEntry
from ...indoor.poi import Poi
from ...obs import counter, obs_enabled, span
from ..context import EvaluationContext, PresenceRow
from ..presence import PresenceEstimator
from ..queries import RankedPoi, TopKResult, rank_top_k
from ..states import ARTrees, interval_contexts, snapshot_contexts
from ..uncertainty import snapshot_mbr

if TYPE_CHECKING:  # pragma: no cover - typing only
    from numpy.typing import NDArray

__all__ = ["JoinObject", "join_snapshot", "join_interval"]


class JoinObject:
    """An object as seen by the join: cheap boxes plus a lazy region.

    The region (and with it the topology-checked constraints) is only
    built when some presence actually needs it — this laziness is the
    entire point of the join algorithms.  ``boxes`` carries the improved
    interval join's fine-grained per-episode MBRs as an ``(n, 4)``
    float64 array of ``(min_x, min_y, max_x, max_y)`` rows (``None`` for
    snapshot queries or when the improvement is disabled: the object's
    one ``mbr`` is then its only box).  Every box must lie inside
    ``mbr``.  ``region_key`` is the region's presence-cache fingerprint,
    when known; ``presence_row`` is its cached row, resolved at the
    object's first refinement.
    """

    __slots__ = (
        "object_id",
        "mbr",
        "boxes",
        "region_key",
        "presence_row",
        "_factory",
        "_region",
    )

    def __init__(
        self,
        object_id: str,
        mbr: Mbr,
        region_factory: Callable[[], Region],
        boxes: NDArray[np.float64] | None = None,
        region_key: Hashable | None = None,
    ):
        if boxes is not None and (
            boxes.ndim != 2 or boxes.shape[1] != 4 or not len(boxes)
        ):
            raise ValueError("boxes must be a non-empty (n, 4) array")
        self.object_id = object_id
        self.mbr = mbr
        self.boxes = boxes
        self.region_key = region_key
        self.presence_row: PresenceRow | None = None
        self._factory = region_factory
        self._region: Region | None = None

    def region(self) -> Region:
        """The uncertainty region, derived on first use (the paper's H_U)."""
        if self._region is None:
            self._region = self._factory()
        return self._region


class _Admission:
    """Which objects each POI-tree entry admits, and how many.

    Every box of the POI tree, internal and leaf, is tested against every
    object's boxes in one broadcast float64 comparison of the four miss
    tests :meth:`Mbr.intersects` makes (:meth:`RTree.entry_misses`),
    then, for objects with several boxes, one ``logical_and.reduceat``
    per object over its boxes' misses.  An object is admitted when one of
    its boxes intersects the entry box.  That equals the per-pair rule
    "``mbr`` intersects and, with segment boxes, one segment intersects",
    because every box lies inside ``mbr``: a box hit implies an ``mbr``
    hit.

    Column ``j`` of the ``(E, M)`` matrix is the ``j``-th object as
    given.  An entry's bound is its row count: presence never exceeds 1,
    so it dominates the entry's flow, and it dominates each child's bound
    because a child's box lies inside its parent's.
    """

    __slots__ = ("_admitted", "_bounds", "_rows")

    def __init__(
        self,
        poi_tree: RTree,
        mbrs: Sequence[Mbr],
        boxes: Sequence[NDArray[np.float64] | None] | None = None,
    ):
        _, self._rows = poi_tree.entry_boxes()
        starts: NDArray[np.intp] | None = None
        if boxes is None or all(part is None for part in boxes):
            stacked = mbr_array(mbrs)
        else:
            parts = [
                part if part is not None else mbr_array((mbr,))
                for mbr, part in zip(mbrs, boxes)
            ]
            stacked = np.concatenate(parts)
            starts = np.zeros(len(parts), dtype=np.intp)
            np.cumsum([len(part) for part in parts[:-1]], out=starts[1:])
        misses = poi_tree.entry_misses(stacked)  # (E, M)
        if starts is not None:
            misses = np.logical_and.reduceat(misses, starts, axis=1)
        self._admitted = np.logical_not(misses)
        self._bounds: list[int] = np.count_nonzero(
            self._admitted, axis=1
        ).tolist()

    def bound(self, poi_entry: RTreeEntry) -> int:
        """How many objects ``poi_entry`` admits."""
        return self._bounds[self._rows[id(poi_entry)]]

    def columns(self, poi_entry: RTreeEntry) -> list[int]:
        """The admitted objects' columns, in ascending order."""
        row = self._admitted[self._rows[id(poi_entry)]]
        columns: list[int] = np.flatnonzero(row).tolist()
        return columns


#: ``presences(poi, objects)``: the presence of every object in one POI.
Presences = Callable[[Poi, Sequence[JoinObject]], list[float]]

#: A queue item: ``(-priority, kind, tie, sequence, POI-tree entry)``;
#: ``kind`` 0 carries a count bound, 1 an exact flow.
_QueueItem = tuple[float, int, str, int, RTreeEntry]


def _topk_join(
    poi_tree: RTree,
    pois: Sequence[Poi],
    objects: Sequence[JoinObject],
    k: int,
    estimator: PresenceEstimator | None = None,
    presences: Presences | None = None,
) -> TopKResult:
    """The shared best-first traversal of R_P (Algorithms 2/5 unified).

    A refined POI's admitted objects are evaluated in one call of
    ``presences(poi, objects)`` when given (the context-based entry points
    pass a memoizing closure); otherwise through ``estimator`` directly.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if presences is None:
        if estimator is None:
            raise ValueError("either an estimator or a presence function is needed")
        presences = lambda poi, batch: estimator.presences(
            poi, [obj.region() for obj in batch]
        )
    if not objects or len(poi_tree) == 0:
        return rank_top_k({}, pois, k)

    # The span keeps the name of the paper's ``R_I`` build (Algorithm 2,
    # line 1), whose place the admission matrix takes.
    with span("join.build_ri"):
        admission = _Admission(
            poi_tree, [obj.mbr for obj in objects], [obj.boxes for obj in objects]
        )
    heap: list[_QueueItem] = []
    sequence = count()
    for poi_entry in poi_tree.root.entries:
        bound = admission.bound(poi_entry)
        if bound:
            heap.append((-bound, 0, "", next(sequence), poi_entry))
    heapq.heapify(heap)

    with span("join.bound_refine"):
        confirmed = _drain_heap(heap, sequence, admission, objects, k, presences)

    if len(confirmed) < k:
        # Queue exhausted: every remaining POI has zero flow; fill the
        # k-subset deterministically.
        found = {entry.poi.poi_id for entry in confirmed}
        for poi in sorted(pois, key=lambda p: p.poi_id):
            if len(confirmed) >= k:
                break
            if poi.poi_id not in found:
                confirmed.append(RankedPoi(poi=poi, flow=0.0))
    return TopKResult(entries=tuple(confirmed[:k]))


def _drain_heap(
    heap: list[_QueueItem],
    sequence: count[int],
    admission: _Admission,
    objects: Sequence[JoinObject],
    k: int,
    presences: Presences,
) -> list[RankedPoi]:
    """The best-first refinement loop of Algorithms 2/3/5.

    Pops the highest upper bound, refines it (push an internal entry's
    children under their counts, or compute a leaf's exact flow) and
    stops once ``k`` POIs with exact flows outrank every remaining bound.
    Split out so the whole bound-driven phase sits under one
    ``join.bound_refine`` span.

    Tie-break: at equal priority bounds (kind 0) are refined before exact
    flows (kind 1) are confirmed, and equal exact flows are confirmed in
    ``poi_id`` order.  Both make the pop order — hence the returned
    ranking — a deterministic function of the flows alone, matching
    ``rank_top_k``'s ``(-flow, poi_id)`` order, so the join and the
    iterative baseline agree bit for bit.
    """
    instrumented = obs_enabled()
    confirmed: list[RankedPoi] = []
    while heap and len(confirmed) < k:
        negative_priority, kind, _, _, poi_entry = heapq.heappop(heap)
        if instrumented:
            counter("join.heap_pops", unit="pops").inc()
        if kind == 1:
            # Exact flow already computed and it outranks every remaining
            # upper bound: confirmed.
            confirmed.append(
                RankedPoi(poi=poi_entry.item, flow=-negative_priority)
            )
        elif poi_entry.child is None:
            poi: Poi = poi_entry.item
            # Columns ascend in candidate enumeration order, the order
            # the iterative baseline adds presences in: float addition
            # is not associative, so this keeps both paths bitwise
            # comparable.
            batch = [objects[column] for column in admission.columns(poi_entry)]
            flow = 0.0
            for value in presences(poi, batch):
                flow += value
            if contracts_enabled():
                # The count bound the queue scheduled this POI under
                # must dominate the refined flow, or best-first order
                # was wrong (Section 4.2's correctness argument).
                check_flow(flow, len(batch), poi_id=poi.poi_id)
                check_upper_bound(-negative_priority, flow, poi_id=poi.poi_id)
            if flow > 0.0:
                heapq.heappush(
                    heap, (-flow, 1, str(poi.poi_id), next(sequence), poi_entry)
                )
        else:
            for child_entry in poi_entry.child.entries:
                bound = admission.bound(child_entry)
                if bound:
                    heapq.heappush(
                        heap, (-bound, 0, "", next(sequence), child_entry)
                    )
    return confirmed


# ----------------------------------------------------------------------
# Snapshot join (Algorithm 2)
# ----------------------------------------------------------------------


def _ctx_presences(ctx: EvaluationContext) -> Presences:
    """Batched presence through the context's memo layer.

    Each object's presence row is resolved once, at its first refinement
    in the query (again while it has none), so a warm pair costs one
    dict read.  Regions are derived (the paper's H_U) only for the
    pairs the cache misses.
    """

    def presences(poi: Poi, batch: Sequence[JoinObject]) -> list[float]:
        rows: list[PresenceRow | None] = []
        for obj in batch:
            row = obj.presence_row
            if row is None:
                row = obj.presence_row = ctx.presence_row(obj.region_key)
            rows.append(row)
        return ctx.presences(
            poi, [(obj.region, obj.region_key) for obj in batch], rows
        )

    return presences


def join_snapshot(
    artrees: ARTrees,
    poi_tree: RTree,
    pois: Sequence[Poi],
    ctx: EvaluationContext,
    t: float,
    k: int,
) -> TopKResult:
    """Algorithm 2: the count-bounded POI-tree join for the snapshot query."""
    objects: list[JoinObject] = []
    with span("candidates.snapshot"):
        for context in snapshot_contexts(artrees, t):
            mbr = snapshot_mbr(context, ctx.deployment, ctx.v_max)
            if mbr is None:
                continue
            objects.append(
                JoinObject(
                    object_id=context.object_id,
                    mbr=mbr,
                    region_factory=lambda sctx=context: ctx.snapshot_region(
                        sctx
                    ),
                    region_key=ctx.snapshot_fingerprint(context),
                )
            )
    return _topk_join(
        poi_tree,
        pois,
        objects,
        k,
        presences=_ctx_presences(ctx),
    )


# ----------------------------------------------------------------------
# Interval join (Algorithm 5 + Section 4.3.2 improvements)
# ----------------------------------------------------------------------


def join_interval(
    artrees: ARTrees,
    poi_tree: RTree,
    pois: Sequence[Poi],
    ctx: EvaluationContext,
    t_start: float,
    t_end: float,
    k: int,
    use_segment_mbrs: bool = True,
) -> TopKResult:
    """Algorithm 5: the interval join, with finer per-episode MBRs.

    ``use_segment_mbrs=False`` reproduces the unimproved variant (one
    coarse MBR per object trajectory) for ablation.
    """
    objects: list[JoinObject] = []
    with span("candidates.interval"):
        for context in interval_contexts(artrees, t_start, t_end):
            with span("ur.interval"):
                uncertainty = ctx.interval_uncertainty(context)
            overall_mbr = uncertainty.mbr
            if overall_mbr is None:
                continue
            objects.append(
                JoinObject(
                    object_id=context.object_id,
                    mbr=overall_mbr,
                    region_factory=lambda u=uncertainty: u.region,
                    boxes=uncertainty.segment_boxes if use_segment_mbrs else None,
                    region_key=ctx.interval_fingerprint(uncertainty),
                )
            )
    return _topk_join(
        poi_tree,
        pois,
        objects,
        k,
        presences=_ctx_presences(ctx),
    )

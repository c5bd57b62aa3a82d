"""The join-based query algorithms (paper, Algorithms 2, 3 and 5).

Instead of deriving every object's uncertainty region up front, the join
algorithms:

1. build an in-memory **aggregate R-tree** ``R_I`` over cheap object MBRs
   (no region derivation needed for the MBR);
2. join the POI R-tree ``R_P`` against ``R_I`` best-first, driven by a
   priority queue keyed on **flow upper bounds** — the number of objects in
   the joined ``R_I`` entries, valid because presence never exceeds 1;
3. derive uncertainty regions (the expensive part: topology-checked region
   construction and presence quadrature) *only* for objects that survive
   MBR pruning against high-priority POIs, caching them per object
   (the paper's ``H_U``);
4. stop as soon as ``k`` POIs with exactly-computed flows outrank every
   remaining upper bound.

For interval queries the improved variant (Section 4.3.2) additionally
stores a series of tight per-episode MBRs with each object and requires at
least one of them — not just the large overall trajectory box, which is
mostly dead space — to intersect a POI before the object enters its join
list.

Which objects may enter which POI entry's join list is decided for all
pairs at once when ``R_I`` is built (:class:`_Admission`): every box of
the POI tree is tested against every object's boxes with whole-array
comparisons, so the best-first loop only reads a precomputed row per POI
entry.  An object's join state (its presence-cache row) is resolved once
per query, at its first refinement.
"""

from __future__ import annotations

import heapq
from itertools import count
from typing import TYPE_CHECKING, Callable, Hashable, Sequence

import numpy as np

from ...analysis.contracts import check_flow, check_upper_bound, contracts_enabled
from ...geometry import Mbr, Region, mbr_array
from ...index import ARTree, AggregateRTree, RTree, RTreeEntry
from ...indoor.poi import Poi
from ...obs import counter, obs_enabled, span
from ..context import EvaluationContext, PresenceRow
from ..presence import PresenceEstimator
from ..queries import RankedPoi, TopKResult, rank_top_k
from ..states import interval_contexts, snapshot_contexts
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
    object's first refinement.  ``order_key`` is the object's position in
    the canonical candidate enumeration (the AR-tree entry order); leaf
    flows are accumulated in this order so the join sums presences
    exactly like the iterative baseline — and like the sharded merge —
    making all three paths bitwise comparable.  ``column`` is the
    object's position in the query's object list, set by the join.
    """

    __slots__ = (
        "object_id",
        "mbr",
        "boxes",
        "region_key",
        "order_key",
        "column",
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
        order_key: int = 0,
    ):
        if boxes is not None and (
            boxes.ndim != 2 or boxes.shape[1] != 4 or not len(boxes)
        ):
            raise ValueError("boxes must be a non-empty (n, 4) array")
        self.object_id = object_id
        self.mbr = mbr
        self.boxes = boxes
        self.region_key = region_key
        self.order_key = order_key
        self.column = 0
        self.presence_row: PresenceRow | None = None
        self._factory = region_factory
        self._region: Region | None = None

    def region(self) -> Region:
        """The uncertainty region, derived on first use (the paper's H_U)."""
        if self._region is None:
            self._region = self._factory()
        return self._region


class _Admission:
    """Which objects each POI-tree entry admits into its join list.

    Built with ``R_I``: every box of the POI tree against every object's
    boxes in one broadcast float64 comparison of the four miss tests
    :meth:`Mbr.intersects` makes (:meth:`RTree.entry_misses`), then, for
    objects with several boxes, one ``logical_and.reduceat`` per object
    over its boxes' misses.  An object is admitted when one of its boxes
    intersects the POI box.  That equals the per-pair rule "``mbr``
    intersects and, with segment boxes, one segment intersects",
    because every box lies inside ``mbr``: a box hit implies an ``mbr``
    hit.  The miss matrix is kept as Python lists, one row per POI-tree
    entry, so the join loop reads plain list items.
    """

    __slots__ = ("_misses", "_rows")

    def __init__(self, poi_tree: RTree, objects: Sequence[JoinObject]):
        _, self._rows = poi_tree.entry_boxes()
        for column, obj in enumerate(objects):
            obj.column = column
        starts: NDArray[np.intp] | None = None
        if all(obj.boxes is None for obj in objects):
            boxes = mbr_array(obj.mbr for obj in objects)
        else:
            parts = [
                obj.boxes if obj.boxes is not None else mbr_array((obj.mbr,))
                for obj in objects
            ]
            boxes = np.concatenate(parts)
            starts = np.zeros(len(parts), dtype=np.intp)
            np.cumsum([len(part) for part in parts[:-1]], out=starts[1:])
        misses = poi_tree.entry_misses(boxes)  # (E, M)
        if starts is not None:
            misses = np.logical_and.reduceat(misses, starts, axis=1)
        self._misses: list[list[bool]] = misses.tolist()

    def misses(self, poi_entry: RTreeEntry) -> list[bool]:
        """``misses[obj.column]``: whether ``poi_entry`` keeps the object out."""
        return self._misses[self._rows[id(poi_entry)]]


def _match_entries(
    poi_entry: RTreeEntry,
    candidates: Sequence[RTreeEntry],
    tree: AggregateRTree,
    admission: _Admission,
) -> tuple[list[RTreeEntry], int]:
    """Filter R_I entries against a POI entry; return (join list, count bound).

    Leaf entries (objects) are looked up in the entry's admission row;
    internal entries are kept when their box intersects the POI box and
    count every object below them.
    """
    misses = admission.misses(poi_entry)
    poi_mbr = poi_entry.mbr
    matched: list[RTreeEntry] = []
    upper_bound = 0
    for entry in candidates:
        if entry.child is None:
            if not misses[entry.item.column]:
                matched.append(entry)
                upper_bound += 1
        elif entry.mbr.intersects(poi_mbr):
            matched.append(entry)
            upper_bound += tree.count(entry)
    return matched, upper_bound


#: ``presences(poi, objects)``: the presence of every object in one POI.
Presences = Callable[[Poi, Sequence[JoinObject]], list[float]]


def _topk_join(
    poi_tree: RTree,
    pois: Sequence[Poi],
    objects: Sequence[JoinObject],
    k: int,
    estimator: PresenceEstimator | None = None,
    rtree_fanout: int = 8,
    presences: Presences | None = None,
) -> TopKResult:
    """The shared best-first R_P x R_I join (Algorithms 2/5 unified).

    A refined POI's whole join list is evaluated in one call of
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

    with span("join.build_ri"):
        object_tree = AggregateRTree.build(
            [(obj.mbr, obj) for obj in objects], max_entries=rtree_fanout
        )
        admission = _Admission(poi_tree, objects)
    sequence = count()
    heap: list[
        tuple[float, int, str, int, RTreeEntry, list[RTreeEntry] | None]
    ] = []

    def push(
        entry: RTreeEntry, join_list: list[RTreeEntry] | None, priority: float
    ) -> None:
        # Tie-break: at equal priority refine bounds (kind 0) before
        # confirming exact flows (kind 1), and confirm equal exact flows in
        # poi_id order.  Both choices make the pop order — hence the
        # returned ranking — a deterministic function of the flows alone,
        # matching ``rank_top_k``'s ``(-flow, poi_id)`` order so the
        # iterative baseline and the sharded merge agree bit for bit.
        if join_list is None:
            kind, tie = 1, str(entry.item.poi_id)
        else:
            kind, tie = 0, ""
        heapq.heappush(
            heap, (-priority, kind, tie, next(sequence), entry, join_list)
        )

    for poi_entry in poi_tree.root.entries:
        join_list, upper_bound = _match_entries(
            poi_entry, object_tree.root.entries, object_tree, admission
        )
        if join_list:
            push(poi_entry, join_list, upper_bound)

    with span("join.bound_refine"):
        confirmed = _drain_heap(heap, push, object_tree, admission, k, presences)

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
    heap: list[tuple[float, int, str, int, RTreeEntry, list[RTreeEntry] | None]],
    push: Callable[[RTreeEntry, list[RTreeEntry] | None, float], None],
    object_tree: AggregateRTree,
    admission: _Admission,
    k: int,
    presences: Presences,
) -> list[RankedPoi]:
    """The best-first refinement loop of Algorithms 2/3/5.

    Pops the highest upper bound, refines it (expand R_P/R_I entries or
    compute the exact flow) and stops once ``k`` POIs with exact flows
    outrank every remaining bound.  Split out so the whole bound-driven
    phase sits under one ``join.bound_refine`` span.
    """
    instrumented = obs_enabled()
    confirmed: list[RankedPoi] = []
    while heap and len(confirmed) < k:
        negative_priority, _, _, _, poi_entry, join_list = heapq.heappop(heap)
        if instrumented:
            counter("join.heap_pops", unit="pops").inc()
        if join_list is None:
            # Exact flow already computed and it outranks every remaining
            # upper bound: confirmed.
            confirmed.append(
                RankedPoi(poi=poi_entry.item, flow=-negative_priority)
            )
            continue
        lists_are_leaf = join_list[0].is_leaf_entry
        if poi_entry.is_leaf_entry:
            if lists_are_leaf:
                poi: Poi = poi_entry.item
                # Canonical accumulation order (see JoinObject.order_key):
                # float addition is not associative, so summing in R-tree
                # traversal order would drift from the iterative baseline
                # in the last bits.
                ordered = sorted(
                    (entry.item for entry in join_list),
                    key=lambda obj: obj.order_key,
                )
                flow = 0.0
                for value in presences(poi, ordered):
                    flow += value
                if contracts_enabled():
                    # The count bound the queue scheduled this POI under
                    # must dominate the refined flow, or best-first order
                    # was wrong (Section 4.2's correctness argument).
                    check_flow(flow, len(join_list), poi_id=poi.poi_id)
                    check_upper_bound(
                        -negative_priority, flow, poi_id=poi.poi_id
                    )
                if flow > 0.0:
                    push(poi_entry, None, flow)
            else:
                children = [
                    child
                    for object_entry in join_list
                    for child in object_entry.child.entries
                ]
                refined, upper_bound = _match_entries(
                    poi_entry, children, object_tree, admission
                )
                if refined:
                    push(poi_entry, refined, upper_bound)
        else:
            if lists_are_leaf:
                candidates = join_list
            else:
                candidates = [
                    child
                    for object_entry in join_list
                    for child in object_entry.child.entries
                ]
            for child_entry in poi_entry.child.entries:
                refined, upper_bound = _match_entries(
                    child_entry, candidates, object_tree, admission
                )
                if refined:
                    push(child_entry, refined, upper_bound)
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
    artree: ARTree,
    poi_tree: RTree,
    pois: Sequence[Poi],
    ctx: EvaluationContext,
    t: float,
    k: int,
) -> TopKResult:
    """Algorithm 2: aggregate-R-tree join for the snapshot query."""
    objects: list[JoinObject] = []
    with span("candidates.snapshot"):
        for order, context in enumerate(snapshot_contexts(artree, t)):
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
                    order_key=order,
                )
            )
    return _topk_join(
        poi_tree,
        pois,
        objects,
        k,
        rtree_fanout=ctx.rtree_fanout,
        presences=_ctx_presences(ctx),
    )


# ----------------------------------------------------------------------
# Interval join (Algorithm 5 + Section 4.3.2 improvements)
# ----------------------------------------------------------------------


def join_interval(
    artree: ARTree,
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
        for order, context in enumerate(interval_contexts(artree, t_start, t_end)):
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
                    order_key=order,
                )
            )
    return _topk_join(
        poi_tree,
        pois,
        objects,
        k,
        rtree_fanout=ctx.rtree_fanout,
        presences=_ctx_presences(ctx),
    )

"""The iterative query algorithms (paper, Algorithms 1 and 4).

The straightforward strategy: derive the uncertainty region of *every*
object relevant to the query time (point) or window (range query on the
AR-tree), look up the POIs the region's bounding box overlaps in the POI
R-tree, sum the sample counts ``c`` of presence ``c / n_p`` per POI,
divide each total once into a flow, and rank.

Besides serving as the paper's baseline, the flow maps these functions
produce are the reference the join algorithms are validated against.
``artrees`` is one AR-tree or the per-shard trees of an object-partitioned
engine (:func:`~repro.core.states.snapshot_contexts`).

All functions take an :class:`~repro.core.context.EvaluationContext`,
which carries the evaluation parameters (deployment, ``v_max``, estimator,
topology, allowance) and memoizes region construction and presence
quadrature — repeated queries over the same data reuse both.

With :mod:`repro.obs` enabled, each run is traced per phase: candidate
selection (``candidates.snapshot`` / ``candidates.interval``), per-object
uncertainty-region resolution (``ur.snapshot`` / ``ur.interval``) and
presence accumulation (``presence.accumulate``); the context adds the
finer ``ur.build.<kind>`` and ``presence.quadrature`` spans underneath.
"""

from __future__ import annotations

from typing import Hashable, Sequence

from ...contracts import check_flow, contracts_enabled
from ...geometry import Region
from ...index import RTree
from ...indoor.poi import Poi
from ...obs import span
from ..context import EvaluationContext
from ..queries import TopKResult, rank_top_k
from ..states import ARTrees, interval_contexts, snapshot_contexts

__all__ = [
    "snapshot_flows",
    "interval_flows",
    "iterative_snapshot",
    "iterative_interval",
]


#: Each POI's sample total ``Σ_o c_o`` so far, by ``poi_id``.
_Totals = dict[str, tuple[Poi, int]]


def _accumulate(
    totals: _Totals,
    region: Region,
    fingerprint: Hashable | None,
    poi_tree: RTree,
    ctx: EvaluationContext,
) -> None:
    mbr = region.mbr
    if mbr is None:
        return
    for poi in poi_tree.search(mbr):
        count = ctx.count(region, poi, fingerprint)
        if count:
            _, total = totals.get(poi.poi_id, (poi, 0))
            totals[poi.poi_id] = (poi, total + count)


def _flows(
    totals: _Totals, candidates: int, ctx: EvaluationContext
) -> dict[str, float]:
    """``Σ_o c_o / n_p``: each POI's sample total, divided once."""
    flows: dict[str, float] = {}
    for poi_id, (poi, total) in totals.items():
        samples = ctx.estimator.sample_count(poi)
        if contracts_enabled():
            check_flow(total, candidates, samples, poi_id=poi_id)
        flows[poi_id] = total / samples
    return flows


def snapshot_flows(
    artrees: ARTrees,
    poi_tree: RTree,
    ctx: EvaluationContext,
    t: float,
) -> dict[str, float]:
    """``Φ_t(p)`` for every POI with non-zero flow (Definition 2)."""
    totals: _Totals = {}
    with span("candidates.snapshot"):
        contexts = snapshot_contexts(artrees, t)
    for context in contexts:
        with span("ur.snapshot"):
            region = ctx.snapshot_region(context)
        with span("presence.accumulate"):
            _accumulate(
                totals, region, ctx.snapshot_fingerprint(context), poi_tree, ctx
            )
    return _flows(totals, len(contexts), ctx)


def interval_flows(
    artrees: ARTrees,
    poi_tree: RTree,
    ctx: EvaluationContext,
    t_start: float,
    t_end: float,
) -> dict[str, float]:
    """``Φ_[t_s, t_e](p)`` for every POI with non-zero flow."""
    totals: _Totals = {}
    with span("candidates.interval"):
        contexts = interval_contexts(artrees, t_start, t_end)
    for context in contexts:
        with span("ur.interval"):
            uncertainty = ctx.interval_uncertainty(context)
        with span("presence.accumulate"):
            _accumulate(
                totals,
                uncertainty.region,
                ctx.interval_fingerprint(uncertainty),
                poi_tree,
                ctx,
            )
    return _flows(totals, len(contexts), ctx)


def iterative_snapshot(
    artrees: ARTrees,
    poi_tree: RTree,
    pois: Sequence[Poi],
    ctx: EvaluationContext,
    t: float,
    k: int,
) -> TopKResult:
    """Algorithm 1: compute every snapshot flow, then take the top k."""
    flows = snapshot_flows(artrees, poi_tree, ctx, t)
    return rank_top_k(flows, pois, k)


def iterative_interval(
    artrees: ARTrees,
    poi_tree: RTree,
    pois: Sequence[Poi],
    ctx: EvaluationContext,
    t_start: float,
    t_end: float,
    k: int,
) -> TopKResult:
    """Algorithm 4: compute every interval flow, then take the top k."""
    flows = interval_flows(artrees, poi_tree, ctx, t_start, t_end)
    return rank_top_k(flows, pois, k)

"""Ablation studies for the design choices DESIGN.md calls out.

Each ablation compares the default design against a variant:

* ``ablation_segment_mbrs`` — the interval join with and without the
  per-episode MBR improvement (paper, Section 4.3.2);
* ``ablation_topology_check`` — queries with and without the indoor
  topology check, reporting both cost and result impact (how much flow the
  Euclidean-only analysis over-credits);
* ``ablation_grid_resolution`` — presence quadrature resolution vs cost
  and flow-value convergence;
* ``ablation_rtree_fanout`` — POI R-tree fanout vs join cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .harness import BenchContext

__all__ = [
    "AblationRow",
    "ablation_segment_mbrs",
    "ablation_topology_check",
    "ablation_grid_resolution",
    "ablation_rtree_fanout",
    "ABLATIONS",
]


@dataclass(frozen=True)
class AblationRow:
    """One variant of an ablation: a label, a timing, and extra metrics."""

    label: str
    time_ms: float
    metrics: dict


def ablation_segment_mbrs(ctx: BenchContext) -> list[AblationRow]:
    """Interval join: one trajectory MBR vs per-episode MBRs.

    Run on both workloads: the improvement pays off when episodes are
    localised relative to the queried POIs (the CPH case — long dwells,
    sparse radios); on dense uniform movement the finer checks can be pure
    overhead, which the rows make visible.
    """
    rows = []
    for workload, (dataset, engine) in (
        ("synthetic", ctx.synthetic()),
        ("cph", ctx.cph()),
    ):
        pois = dataset.poi_subset(ctx.default_poi_percent)
        start, end = dataset.window(ctx.default_window_minutes)
        for label, improved in (("coarse-mbr", False), ("segment-mbrs", True)):
            time_ms = ctx.time_ms(
                lambda improved=improved, engine=engine: engine.interval_topk(
                    start,
                    end,
                    ctx.default_k,
                    pois=pois,
                    method="join",
                    use_segment_mbrs=improved,
                )
            )
            rows.append(AblationRow(f"{workload}/{label}", time_ms, {}))
    return rows


def ablation_topology_check(ctx: BenchContext) -> list[AblationRow]:
    """Topology check on/off: cost and flow over-crediting."""
    dataset, _ = ctx.synthetic()
    t = dataset.mid_time()
    rows = []
    flows_by_label = {}
    for label, enabled in (("euclidean-only", False), ("topology-checked", True)):
        engine = dataset.engine(topology_check=enabled)
        time_ms = ctx.time_ms(lambda engine=engine: engine.snapshot_flows(t))
        flows = engine.snapshot_flows(t)
        flows_by_label[label] = flows
        rows.append(
            AblationRow(label, time_ms, {"total_flow": round(sum(flows.values()), 2)})
        )
    # The Euclidean-only analysis credits unreachable space: report the
    # excess (candidate false-positive mass, cf. paper Figure 8).
    excess = sum(flows_by_label["euclidean-only"].values()) - sum(
        flows_by_label["topology-checked"].values()
    )
    rows.append(AblationRow("overcredit", 0.0, {"flow_excess": round(excess, 2)}))
    return rows


def ablation_grid_resolution(
    ctx: BenchContext, resolutions: Sequence[int] = (8, 16, 32, 64)
) -> list[AblationRow]:
    """Presence quadrature resolution: cost vs flow convergence."""
    dataset, _ = ctx.synthetic()
    t = dataset.mid_time()
    reference_engine = dataset.engine(resolution=96)
    reference = reference_engine.snapshot_flows(t)
    rows = []
    for resolution in resolutions:
        engine = dataset.engine(resolution=resolution)
        time_ms = ctx.time_ms(lambda engine=engine: engine.snapshot_flows(t))
        flows = engine.snapshot_flows(t)
        keys = set(reference) | set(flows)
        max_error = max(
            (abs(flows.get(k, 0.0) - reference.get(k, 0.0)) for k in keys),
            default=0.0,
        )
        rows.append(
            AblationRow(
                f"resolution={resolution}",
                time_ms,
                {"max_flow_error_vs_96": round(max_error, 4)},
            )
        )
    return rows


def ablation_rtree_fanout(
    ctx: BenchContext, fanouts: Sequence[int] = (4, 8, 16, 32)
) -> list[AblationRow]:
    """POI R-tree fanout: effect on the join's pruning/cost.

    ``rtree_fanout`` sizes the POI trees only; the join builds no tree
    over the objects.
    """
    dataset, _ = ctx.synthetic()
    t = dataset.mid_time()
    rows = []
    for fanout in fanouts:
        engine = dataset.engine(rtree_fanout=fanout)
        pois = dataset.poi_subset(ctx.default_poi_percent)
        time_ms = ctx.time_ms(
            lambda engine=engine, pois=pois: engine.snapshot_topk(
                t, ctx.default_k, pois=pois, method="join"
            )
        )
        rows.append(AblationRow(f"fanout={fanout}", time_ms, {}))
    return rows


ABLATIONS = {
    "ablation_segment_mbrs": ablation_segment_mbrs,
    "ablation_topology_check": ablation_topology_check,
    "ablation_grid_resolution": ablation_grid_resolution,
    "ablation_rtree_fanout": ablation_rtree_fanout,
}

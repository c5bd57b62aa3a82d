"""Snapshot uncertainty regions ``UR(o, t)`` (paper, Section 3.1.2).

Two cases:

* **Active** — a record covers ``t``: the object is inside ``dev_cov``'s
  range, further constrained by the ring reachable since it left
  ``dev_pre``::

      UR(o, t) = Ring(dev_pre, V_max * (t - rd_pre.t_e))  ∩  dev_cov.range

* **Inactive** — ``t`` falls in an undetected gap: the intersection of the
  ring it can have reached from ``dev_pre`` and the ring from which it can
  still reach ``dev_suc`` in time::

      UR(o, t) = Ring(dev_pre, V_max * (t - rd_pre.t_e))
               ∩ Ring(dev_suc, V_max * (rd_suc.t_s - t))

An optional :class:`~repro.core.uncertainty.topology.TopologyChecker`
intersects the corresponding indoor-reachability constraints (Section 3.3).
Objects whose first record covers ``t`` have no ``rd_pre``; their region is
simply the covering range.
"""

from __future__ import annotations

from typing import Hashable

from ...geometry import Circle, Mbr, Region, Ring, intersect_all
from ...indoor.devices import Deployment
from ...tracking.records import DeviceId
from ..states import SnapshotContext
from .topology import TopologyChecker

__all__ = ["snapshot_region", "snapshot_region_key", "snapshot_mbr"]

#: Cache keys quantize times to this many decimals (microseconds): times
#: closer than that produce indistinguishable regions at any realistic
#: ``v_max``, so they may share one cache entry.
TIME_QUANTUM_DECIMALS = 6


def quantize_time(t: float) -> float:
    """A time value rounded to the cache-key quantum."""
    return round(float(t), TIME_QUANTUM_DECIMALS)


def snapshot_region_key(context: SnapshotContext) -> tuple[Hashable, ...]:
    """The region-cache key of ``UR(o, t)`` (without the params-epoch).

    The key encodes everything the region depends on besides the evaluation
    parameters — the involved devices and the (quantized) record boundary
    times — so equal keys imply geometrically identical regions even across
    distinct tracking tables.
    """
    qt = quantize_time
    return (
        "snapshot",
        context.object_id,
        qt(context.t),
        None
        if context.rd_pre is None
        else (context.rd_pre.device_id, qt(context.rd_pre.t_e)),
        None if context.rd_cov is None else context.rd_cov.device_id,
        None
        if context.rd_suc is None
        else (context.rd_suc.device_id, qt(context.rd_suc.t_s)),
    )


def snapshot_region(
    context: SnapshotContext,
    deployment: Deployment,
    v_max: float,
    topology: TopologyChecker | None = None,
    inner_allowance: float = 0.0,
) -> Region:
    """Derive ``UR(o, t)`` for one object from its snapshot context.

    ``inner_allowance`` relaxes the rings' inner exclusion by that many
    meters.  The paper's model assumes *continuous* detection, under which
    an undetected object is certainly outside every range; with a sampled
    positioning system the object may penetrate a range by up to
    ``2 * V_max * sampling_interval`` between ticks without being seen, so
    engines over sampled data pass that as the allowance to stay sound.
    The outer ring boundary is unaffected (it is sound either way).
    """
    if v_max <= 0:
        raise ValueError("v_max must be positive")
    t = context.t
    parts: list[Region] = []
    if context.rd_cov is not None:
        dev_cov = deployment.device(context.rd_cov.device_id)
        parts.append(dev_cov.range)
        if context.rd_pre is not None:
            # Travel bound since leaving dev_pre.  The paper intersects
            # Ring(dev_pre, ...) here; with distinct (disjoint) devices the
            # ring's inner exclusion is vacuous inside dev_cov's range, but
            # when the object left and RE-ENTERED the same device it would
            # wrongly cut out the range interior — so the active case uses
            # the ring's outer disk (distance to the range <= budget) only.
            dev_pre = deployment.device(context.rd_pre.device_id)
            budget = max(0.0, v_max * (t - context.rd_pre.t_e))
            parts.append(dev_pre.range.expanded(budget))
            if topology is not None:
                parts.append(topology.ring_constraint(dev_pre, budget))
    else:
        if context.rd_pre is None or context.rd_suc is None:
            raise ValueError(
                f"object {context.object_id!r}: an inactive snapshot context "
                "needs both rd_pre and rd_suc"
            )
        _append_ring(
            parts,
            deployment,
            context.rd_pre.device_id,
            v_max * (t - context.rd_pre.t_e),
            topology,
            inner_allowance,
        )
        _append_ring(
            parts,
            deployment,
            context.rd_suc.device_id,
            v_max * (context.rd_suc.t_s - t),
            topology,
            inner_allowance,
        )
    return intersect_all(parts)


def slack_ring(range_circle: Circle, budget: float, inner_allowance: float) -> Ring:
    """``Ring(dev, budget)`` with the inner boundary pulled in by the
    allowance; the outer boundary stays at ``r + budget``."""
    budget = max(0.0, budget)
    allowance = min(max(0.0, inner_allowance), range_circle.radius)
    return Ring(
        Circle(range_circle.center, range_circle.radius - allowance),
        budget + allowance,
    )


def _append_ring(
    parts: list[Region],
    deployment: Deployment,
    device_id: DeviceId,
    budget: float,
    topology: TopologyChecker | None,
    inner_allowance: float = 0.0,
) -> None:
    device = deployment.device(device_id)
    budget = max(0.0, budget)
    parts.append(slack_ring(device.range, budget, inner_allowance))
    if topology is not None:
        parts.append(topology.ring_constraint(device, budget))


def snapshot_mbr(
    context: SnapshotContext, deployment: Deployment, v_max: float
) -> Mbr | None:
    """A cheap sound MBR for ``UR(o, t)`` without building the region.

    This is the object box the join tests against the POI tree (the one
    the paper inserts into ``R_I``, Algorithm 2, lines 5–10): the covering
    range's MBR when active;
    when inactive, the boxes of the two rings — the paper merges them, we
    intersect (the region lies in both rings, so the intersection is sound
    and tighter).  ``None`` when the boxes are disjoint, which only happens
    for inconsistent data — such an object can contribute no flow.
    """
    t = context.t
    if context.rd_cov is not None:
        return deployment.device(context.rd_cov.device_id).range.mbr
    assert context.rd_pre is not None and context.rd_suc is not None
    pre = deployment.device(context.rd_pre.device_id)
    suc = deployment.device(context.rd_suc.device_id)
    box_pre = pre.range.mbr.expanded(max(0.0, v_max * (t - context.rd_pre.t_e)))
    box_suc = suc.range.mbr.expanded(max(0.0, v_max * (context.rd_suc.t_s - t)))
    return box_pre.intersection(box_suc)

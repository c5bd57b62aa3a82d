"""Interval uncertainty regions ``UR(o, [t_s, t_e])`` (paper, Section 3.2).

The region over a window is a union of per-episode pieces derived from the
object's record chain (the paper's four cases, Table 3 and Figures 4–7,
unified):

* **detection episodes** — for every record whose detection interval
  intersects the window, the device's detection disk (the object was
  provably inside it);
* **gap episodes** — for every undetected gap between consecutive records
  that intersects the window, the extended ellipse
  ``Theta(dev_i, dev_j, rd_i.t_e, rd_j.t_s)``; when the window boundary
  falls *inside* the gap, the ellipse is intersected with the paper's
  boundary rings (``Theta_s ∩ Ring_s`` / ``Theta_e ∩ Ring_e`` of Cases
  2–4);
* **lead/trail episodes** — when the chain has no record before ``t_s``
  (or after ``t_e``), the ring reachable from the first (last) detection
  bounds the uncovered window part.

Each episode keeps its own MBR; the list of episode MBRs is exactly the
"series of much tighter MBRs" of the improved join algorithm (Section
4.3.2) — one small box per consecutive-record pair instead of one large
trajectory box full of dead space.

An optional :class:`TopologyChecker` intersects the indoor-reachability
constraints into every episode (Section 3.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable

from ...geometry import (
    EmptyRegion,
    ExtendedEllipse,
    Mbr,
    Region,
    Ring,
    intersect_all,
    mbr_array,
    union_all,
)
from ...indoor.devices import Deployment, Device
from ...tracking.records import ObjectId, TrackingRecord
from ..states import IntervalContext
from .snapshot import quantize_time, slack_ring
from .topology import TopologyChecker

__all__ = ["Episode", "IntervalUncertainty", "interval_uncertainty"]

#: A region memo hook: ``memo(key, builder) -> region``.  Keys are
#: parameter-free tuples ``(kind, object_id, quantized time window ...)``;
#: an :class:`~repro.core.context.EvaluationContext` passes its region
#: cache here, stamping its params-epoch onto the key.
RegionMemo = Callable[[tuple[Hashable, ...], Callable[[], Region]], Region]


@dataclass(frozen=True)
class Episode:
    """One piece of an interval uncertainty region with its own MBR.

    ``key`` is the episode's region-cache key (``None`` for episodes built
    outside the caching layer, e.g. in direct low-level use); the tuple of
    a region's episode keys is its presence-cache fingerprint.
    """

    kind: str  # "detection" | "gap" | "lead" | "trail"
    region: Region
    key: tuple[Hashable, ...] | None = None

    @property
    def mbr(self) -> Mbr | None:
        return self.region.mbr


class IntervalUncertainty:
    """``UR(o, [t_s, t_e])`` as a union of episodes.

    The overall MBR, the per-episode MBRs (also as an ``(n, 4)`` array,
    :attr:`segment_boxes`, for the join's whole-array box test) and the
    presence-cache :attr:`fingerprint` are computed once, here; the union
    region is built on first use and kept.
    """

    def __init__(
        self,
        object_id: ObjectId,
        t_start: float,
        t_end: float,
        episodes: list[Episode],
    ):
        self.object_id = object_id
        self.t_start = t_start
        self.t_end = t_end
        self.episodes = tuple(episodes)
        boxes = (episode.mbr for episode in self.episodes)
        self._segment_mbrs = tuple(box for box in boxes if box is not None)
        #: One overall bounding box (the coarse pre-improvement MBR).
        self.mbr: Mbr | None = (
            Mbr.union_all(self._segment_mbrs) if self._segment_mbrs else None
        )
        self.segment_boxes = mbr_array(self._segment_mbrs)
        keys = tuple(episode.key for episode in self.episodes)
        #: The tuple of episode keys (``None`` if an episode has no key):
        #: identical episodes are identical geometry, whatever window
        #: produced them.
        self.fingerprint: tuple[Hashable, ...] | None = (
            None if any(key is None for key in keys) else ("interval",) + keys
        )
        self._region: Region | None = None

    @property
    def region(self) -> Region:
        """The full uncertainty region (built lazily, cached)."""
        if self._region is None:
            parts = [episode.region for episode in self.episodes]
            self._region = union_all(parts) if parts else EmptyRegion()
        return self._region

    def segment_mbrs(self) -> list[Mbr]:
        """Per-episode MBRs — the finer boxes of the improved join."""
        return list(self._segment_mbrs)


def interval_uncertainty(
    context: IntervalContext,
    deployment: Deployment,
    v_max: float,
    topology: TopologyChecker | None = None,
    inner_allowance: float = 0.0,
    memo: RegionMemo | None = None,
    tail_token: Hashable = None,
) -> IntervalUncertainty:
    """Derive the interval uncertainty region from a record chain.

    ``inner_allowance`` relaxes ring inner exclusions for sampled
    positioning systems; see
    :func:`repro.core.uncertainty.snapshot.snapshot_region`.

    ``memo`` memoizes *episode* region construction.  Episode keys encode
    only the involved devices and (quantized) effective time windows, not
    the query window itself — so when a sliding window advances, interior
    episodes (detection disks, fully covered gap ellipses) hit the memo and
    only episodes cut by a window boundary are rebuilt.

    ``tail_token`` is stamped into the *trail* episode's key — the only
    episode kind whose geometry extrapolates beyond the object's last
    record.  Live ingestion passes the object's per-append tail epoch here
    (see :meth:`repro.core.context.EvaluationContext.note_append`), so an
    append retires exactly the appended object's open-ended tail regions
    from the memo while every interior episode stays reusable.
    """
    if v_max <= 0:
        raise ValueError("v_max must be positive")
    t_start, t_end = context.t_start, context.t_end
    records = context.records
    object_id = context.object_id
    episodes: list[Episode] = []

    for record in records:
        if record.overlaps(t_start, t_end):
            device = deployment.device(record.device_id)
            # The episode region is the device's (constant) detection disk:
            # the key needs no time component at all.
            key = ("detection", object_id, record.device_id)
            region = _memoized(memo, key, lambda device=device: device.range)
            episodes.append(Episode(kind="detection", region=region, key=key))

    for current, following in zip(records, records[1:]):
        episode = _gap_episode(
            current,
            following,
            t_start,
            t_end,
            deployment,
            v_max,
            topology,
            inner_allowance,
            object_id,
            memo,
        )
        if episode is not None:
            episodes.append(episode)

    first, last = records[0], records[-1]
    if first.t_s > t_start:
        # No record precedes the window start (otherwise the chain would
        # begin with it): bound the uncovered head by the ring reachable
        # backwards from the first detection.
        episodes.append(
            _boundary_ring_episode(
                "lead",
                deployment.device(first.device_id),
                v_max * (first.t_s - t_start),
                topology,
                inner_allowance,
                object_id,
                memo,
            )
        )
    if last.t_e < t_end:
        episodes.append(
            _boundary_ring_episode(
                "trail",
                deployment.device(last.device_id),
                v_max * (t_end - last.t_e),
                topology,
                inner_allowance,
                object_id,
                memo,
                tail_token,
            )
        )
    return IntervalUncertainty(context.object_id, t_start, t_end, episodes)


def _memoized(
    memo: RegionMemo | None,
    key: tuple[Hashable, ...],
    builder: Callable[[], Region],
) -> Region:
    return memo(key, builder) if memo is not None else builder()


def _gap_episode(
    current: TrackingRecord,
    following: TrackingRecord,
    t_start: float,
    t_end: float,
    deployment: Deployment,
    v_max: float,
    topology: TopologyChecker | None,
    inner_allowance: float = 0.0,
    object_id: ObjectId | None = None,
    memo: RegionMemo | None = None,
) -> Episode | None:
    """The extended-ellipse piece for one undetected gap, if it matters."""
    gap_start, gap_end = current.t_e, following.t_s
    if gap_end <= gap_start:
        return None  # back-to-back records: no undetected gap
    overlap_start = max(gap_start, t_start)
    overlap_end = min(gap_end, t_end)
    # A zero-length overlap is kept when the window itself is degenerate
    # (t_start == t_end inside the gap): the episode then reduces to the
    # snapshot uncertainty region at that instant, keeping the interval
    # query consistent with the snapshot query in the limit.
    if overlap_start > overlap_end:
        return None
    if overlap_start == overlap_end and not (
        t_start == t_end and gap_start < t_start < gap_end
    ):
        return None
    device_a = deployment.device(current.device_id)
    device_b = deployment.device(following.device_id)
    # The region is fully determined by the devices, the gap boundaries and
    # the part of the gap the window covers — NOT by the window ends
    # themselves, so interior gaps stay cache-stable under sliding windows.
    key = (
        "gap",
        object_id,
        device_a.device_id,
        device_b.device_id,
        quantize_time(gap_start),
        quantize_time(gap_end),
        quantize_time(overlap_start),
        quantize_time(overlap_end),
    )

    def build() -> Region:
        total_budget = v_max * (gap_end - gap_start)
        # Cheap Euclidean predicates first, indoor-distance constraints
        # last: the intersection stops evaluating parts once no point is
        # left alive, so the topology checks are skipped for batches the
        # Euclidean parts already reject.
        parts: list[Region] = [
            ExtendedEllipse(device_a.range, device_b.range, total_budget)
        ]
        topo_parts: list[Region] = []
        if topology is not None:
            topo_parts.append(
                topology.path_constraint(device_a, device_b, total_budget)
            )
        if overlap_end < gap_end:
            # The window ends inside the gap (Cases 3 and 4): the object
            # cannot have moved farther from dev_a than the time elapsed
            # allows — Theta_e ∩ Ring_e.
            budget = v_max * (overlap_end - gap_start)
            parts.append(slack_ring(device_a.range, budget, inner_allowance))
            if topology is not None:
                topo_parts.append(topology.ring_constraint(device_a, budget))
        if overlap_start > gap_start:
            # The window starts inside the gap (Cases 2 and 4): the object
            # must still reach dev_b in the remaining time — Theta_s ∩
            # Ring_s.
            budget = v_max * (gap_end - overlap_start)
            parts.append(slack_ring(device_b.range, budget, inner_allowance))
            if topology is not None:
                topo_parts.append(topology.ring_constraint(device_b, budget))
        return intersect_all(parts + topo_parts)

    return Episode(kind="gap", region=_memoized(memo, key, build), key=key)


def _boundary_ring_episode(
    kind: str,
    device: Device,
    budget: float,
    topology: TopologyChecker | None,
    inner_allowance: float = 0.0,
    object_id: ObjectId | None = None,
    memo: RegionMemo | None = None,
    tail_token: Hashable = None,
) -> Episode:
    budget = max(0.0, budget)
    key = (kind, object_id, device.device_id, quantize_time(budget), tail_token)

    def build() -> Region:
        parts: list[Region] = [slack_ring(device.range, budget, inner_allowance)]
        if topology is not None:
            parts.append(topology.ring_constraint(device, budget))
        return intersect_all(parts)

    return Episode(kind=kind, region=_memoized(memo, key, build), key=key)

"""Continuous top-k monitoring (extension; cf. the paper's Section 7
outlook on continuous queries).

A building operator rarely asks one query — they watch a dashboard.  The
monitors re-evaluate a top-k query as time advances and report *changes*:

* :class:`SnapshotTopKMonitor` — tracks Problem 1 at the current instant;
* :class:`SlidingIntervalTopKMonitor` — tracks Problem 2 over a sliding
  window ``[now - window, now]``.

Each tick is one engine query, but ticks are far from full recomputes: the
engine's long-lived :class:`~repro.core.context.EvaluationContext` memoizes
region construction and presence quadrature, so a sliding-interval tick
only rebuilds the uncertainty episodes whose effective time window actually
changed (interior detection disks and fully covered gap ellipses are served
from the region cache) and re-evaluates presence only for regions whose
geometry moved.  ``monitor.stats()`` (a :meth:`FlowEngine.stats` passthrough)
shows the hit rates.  The value added on top is the change tracking — which
POIs entered and left the top-k, and how ranks moved — which is what
downstream alerting consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Protocol, Sequence

from ..indoor.poi import Poi
from ..obs import counter, obs_enabled, span
from ..tracking.records import TrackingRecord
from .queries import TopKResult

__all__ = [
    "MonitorableEngine",
    "TopKUpdate",
    "SnapshotTopKMonitor",
    "SlidingIntervalTopKMonitor",
]


class MonitorableEngine(Protocol):
    """What a monitor needs from its engine.

    :class:`~repro.core.engine.FlowEngine` satisfies this at any
    ``num_shards``, so monitors tick unchanged over one shard or a fleet;
    the service's engine actor hands its own engine (or a test double)
    through this seam.
    """

    def snapshot_topk(
        self,
        t: float,
        k: int,
        pois: Sequence[Poi] | None = None,
        method: str = "join",
    ) -> TopKResult: ...

    def interval_topk(
        self,
        t_start: float,
        t_end: float,
        k: int,
        pois: Sequence[Poi] | None = None,
        method: str = "join",
        use_segment_mbrs: bool = True,
    ) -> TopKResult: ...

    def ingest(self, records: Iterable[TrackingRecord]) -> int: ...

    def stats(self) -> dict[str, int]: ...


@dataclass(frozen=True, slots=True)
class TopKUpdate:
    """One monitoring tick: the fresh result plus what changed."""

    t: float
    result: TopKResult
    entered: tuple[str, ...]
    exited: tuple[str, ...]
    rank_changes: tuple[tuple[str, int, int], ...]
    """(poi_id, previous_rank, new_rank) for POIs staying in the top-k;
    ranks are 1-based."""

    @property
    def changed(self) -> bool:
        """Whether this tick's top-k differs from the previous tick's."""
        return bool(self.entered or self.exited or self.rank_changes)


class _BaseMonitor:
    def __init__(
        self,
        engine: MonitorableEngine,
        k: int,
        pois: Sequence[Poi] | None = None,
        method: str = "join",
    ):
        if k < 1:
            raise ValueError("k must be positive")
        self.engine = engine
        self.k = k
        self.pois = pois
        self.method = method
        self._last_t: float | None = None
        self._last_ranks: dict[str, int] = {}

    def _evaluate(self, t: float) -> TopKResult:  # pragma: no cover - abstract
        raise NotImplementedError

    def advance(self, t: float) -> TopKUpdate:
        """Move the monitor to time ``t`` and report changes.

        Time must not run backwards; re-evaluating the same instant is
        allowed (and reports no changes unless the data changed).

        Args:
            t: The tick's evaluation time.

        Returns:
            The fresh result plus which POIs entered/exited the top-k and
            how ranks moved.  The very first tick reports every POI as
            "entered".

        Raises:
            ValueError: If ``t`` precedes the previous tick's time.
        """
        if self._last_t is not None and t < self._last_t:
            raise ValueError(
                f"monitor time went backwards: {t} < {self._last_t}"
            )
        with span("monitor.tick"):
            result = self._evaluate(t)
        new_ranks = {
            entry.poi.poi_id: rank
            for rank, entry in enumerate(result.entries, start=1)
        }
        entered = tuple(
            poi_id for poi_id in new_ranks if poi_id not in self._last_ranks
        )
        exited = tuple(
            poi_id for poi_id in self._last_ranks if poi_id not in new_ranks
        )
        rank_changes = tuple(
            (poi_id, self._last_ranks[poi_id], rank)
            for poi_id, rank in new_ranks.items()
            if poi_id in self._last_ranks and self._last_ranks[poi_id] != rank
        )
        # The very first tick reports everything as "entered" by design —
        # downstream consumers initialise their dashboards from it.
        self._last_t = t
        self._last_ranks = new_ranks
        update = TopKUpdate(
            t=t,
            result=result,
            entered=entered,
            exited=exited,
            rank_changes=rank_changes,
        )
        if obs_enabled():
            counter("monitor.ticks", unit="ticks").inc()
            if update.changed:
                counter("monitor.changed_ticks", unit="ticks").inc()
        return update

    def ingest(self, records: Iterable[TrackingRecord]) -> int:
        """Feed newly arrived records to the (live) engine.

        The next :meth:`advance` — even at an unchanged ``t`` — reports the
        flow changes the new records cause.

        Args:
            records: Closed tracking records, per-object chronological.

        Returns:
            The number of records ingested.

        Raises:
            RuntimeError: If the engine is frozen-batch.
            ValueError: If a record fails at-append validation.
        """
        return self.engine.ingest(records)

    def tick(
        self, t: float, records: Iterable[TrackingRecord] = ()
    ) -> TopKUpdate:
        """One dashboard tick: ingest what arrived, then advance to ``t``.

        With no arrivals this is a plain :meth:`advance`, so the method
        also works on a frozen-batch engine.

        Args:
            t: The tick's evaluation time.
            records: Records that arrived since the last tick (optional).

        Returns:
            The tick's :class:`TopKUpdate`.

        Raises:
            RuntimeError: If records are passed to a frozen-batch engine.
            ValueError: If ``t`` runs backwards or a record fails
                validation.
        """
        arrived = list(records)
        if arrived:
            self.engine.ingest(arrived)
        return self.advance(t)

    def run(self, times: Sequence[float]) -> list[TopKUpdate]:
        """Advance through ``times`` and collect all updates.

        Args:
            times: Tick times, non-decreasing.

        Returns:
            One :class:`TopKUpdate` per tick, in order.

        Raises:
            ValueError: If the times run backwards.
        """
        return [self.advance(t) for t in times]

    def stats(self) -> dict[str, int]:
        """The engine's evaluation counters (cache hits, regions built).

        Returns:
            The :meth:`FlowEngine.stats` dict of the monitored engine.
        """
        return self.engine.stats()


class SnapshotTopKMonitor(_BaseMonitor):
    """Continuous Problem 1: the top-k POIs *right now*."""

    def _evaluate(self, t: float) -> TopKResult:
        return self.engine.snapshot_topk(
            t, self.k, pois=self.pois, method=self.method
        )


class SlidingIntervalTopKMonitor(_BaseMonitor):
    """Continuous Problem 2 over a trailing window ``[t - window, t]``."""

    def __init__(
        self,
        engine: MonitorableEngine,
        k: int,
        window_seconds: float,
        pois: Sequence[Poi] | None = None,
        method: str = "join",
    ):
        super().__init__(engine, k, pois=pois, method=method)
        if not (math.isfinite(window_seconds) and window_seconds > 0):
            raise ValueError(
                f"window_seconds must be positive and finite, got {window_seconds!r}"
            )
        self.window_seconds = window_seconds

    def _evaluate(self, t: float) -> TopKResult:
        return self.engine.interval_topk(
            t - self.window_seconds, t, self.k, pois=self.pois, method=self.method
        )

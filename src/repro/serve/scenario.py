"""Venue construction for the service: floor plan, devices, POIs, engine.

A server process needs the same deterministic venue on every boot — the
durable storage layer persists only the *tracking rows*, so recovery
after a crash re-derives the floor plan, deployment and POI universe
from configuration and replays the rows into it.  This module owns that
derivation: :func:`build_venue` maps a
:class:`~repro.datagen.config.SyntheticConfig` to the exact
office-building venue the synthetic generator walks (same builders, same
seed), so a restarted ``python -m repro.serve`` with the same flags
answers queries bit-identically to the uninterrupted process.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional, Union

from ..core.engine import FlowEngine
from ..datagen.config import SyntheticConfig
from ..datagen.stream import stream_synthetic_records
from ..indoor.builders import (
    deploy_office_devices,
    office_building,
    partition_rooms_into_pois,
)
from ..indoor.devices import Deployment
from ..indoor.floorplan import FloorPlan
from ..indoor.poi import Poi
from ..storage import SQLiteBackend
from ..tracking.records import TrackingRecord
from ..tracking.table import LiveTrackingTable
from .actor import ServableEngine

__all__ = ["Venue", "build_engine", "build_venue", "record_stream"]


@dataclass(frozen=True)
class Venue:
    """One servable indoor venue, fully derived from configuration."""

    floorplan: FloorPlan
    deployment: Deployment
    pois: list[Poi]
    v_max: float
    detection_slack: float
    config: SyntheticConfig


def build_venue(
    config: SyntheticConfig, detection_slack: Optional[float] = None
) -> Venue:
    """The office venue the synthetic workload of ``config`` inhabits.

    Deterministic in ``config``: two processes given equal configs build
    identical floor plans, deployments and POI partitions, which is what
    lets a restarted server recover storage rows into the same geometry.

    Args:
        config: The synthetic workload parameters (venue shape, detection
            range, POI count and seed are what matter here).
        detection_slack: Detection latency passed to the engine; defaults
            to ``2 * config.sampling_interval``, the sound setting for
            the generator's sampled detection (see
            :class:`~repro.core.engine.FlowEngine`).
    """
    plan = office_building(rooms_per_side=config.rooms_per_side)
    deployment = deploy_office_devices(
        plan,
        detection_range=config.detection_range,
        hallway_spacing=config.hallway_spacing,
    )
    pois = partition_rooms_into_pois(
        plan, count=config.poi_count, seed=config.seed
    )
    slack = (
        2.0 * config.sampling_interval
        if detection_slack is None
        else detection_slack
    )
    return Venue(
        floorplan=plan,
        deployment=deployment,
        pois=pois,
        v_max=config.v_max,
        detection_slack=slack,
        config=config,
    )


def build_engine(
    venue: Venue,
    storage: Optional[Union[str, Path]] = None,
    shards: int = 1,
) -> ServableEngine:
    """A live engine for ``venue``, optionally durable, optionally sharded.

    Args:
        venue: The venue to serve.
        storage: Durability root — a SQLite file path for one shard, a
            directory (one store per shard) for many.  ``None`` serves
            from memory only.  A populated store is **recovered**: its
            rows are replayed into the fresh engine before the first
            request.
        shards: Shard count (``num_shards`` of the
            :class:`~repro.core.engine.FlowEngine`); more than one
            hash-partitions the objects.

    Raises:
        ValueError: If ``shards < 1``.
    """
    backend: Optional[Union[SQLiteBackend, Path]] = None
    if storage is not None:
        backend = SQLiteBackend(Path(storage)) if shards == 1 else Path(storage)
    return FlowEngine(
        venue.floorplan,
        venue.deployment,
        LiveTrackingTable(),
        venue.pois,
        v_max=venue.v_max,
        detection_slack=venue.detection_slack,
        storage=backend,
        num_shards=shards,
    )


def record_stream(config: SyntheticConfig) -> Iterator[TrackingRecord]:
    """The synthetic workload's OTT rows, in ingest order (passthrough)."""
    return stream_synthetic_records(config)

"""repro — Finding frequently visited indoor POIs from symbolic tracking data.

A complete, from-scratch implementation of the system described in
*"Finding Frequently Visited Indoor POIs Using Symbolic Indoor Tracking
Data"* (Lu, Guo, Yang, Jensen — EDBT 2016), including every substrate the
paper depends on:

* :mod:`repro.geometry` — circles, rings, extended ellipses, polygons and
  composable regions with deterministic area quadrature;
* :mod:`repro.index` — an R-tree (the POI index, node capacity
  ``rtree_fanout``) and the AR-tree temporal index over the tracking
  table;
* :mod:`repro.indoor` — floor plans, doors, POIs, device deployments and
  indoor walking distance;
* :mod:`repro.tracking` — raw readings, tracking records, the Object
  Tracking Table, proximity detection and movement simulation;
* :mod:`repro.core` — the paper's contribution: uncertainty regions,
  presence/flow, and the snapshot/interval top-k queries with iterative
  and join-based algorithms;
* :mod:`repro.datagen` — the paper's synthetic workload and a simulated
  Copenhagen Airport data set;
* :mod:`repro.bench` — the harness regenerating every evaluation figure.

The ten-second tour::

    from repro import FlowEngine
    from repro.datagen import SyntheticConfig, build_synthetic_dataset

    dataset = build_synthetic_dataset(SyntheticConfig(num_objects=200))
    engine = dataset.engine()
    for row in engine.interval_topk(t_start=0.0, t_end=600.0, k=5):
        print(f"{row.poi.name:30s}  flow={row.flow:.2f}")
"""

from .core import (
    FlowEngine,
    LiveFlowEngine,
    IntervalTopKQuery,
    PresenceEstimator,
    RankedPoi,
    SnapshotTopKQuery,
    TopKResult,
)
from .indoor import Deployment, Device, Door, FloorPlan, Poi, Room
from .tracking import (
    LiveTrackingTable,
    ObjectTrackingTable,
    RawReading,
    TrackingRecord,
)

__version__ = "1.0.0"

__all__ = [
    "Deployment",
    "Device",
    "Door",
    "FloorPlan",
    "FlowEngine",
    "IntervalTopKQuery",
    "LiveFlowEngine",
    "LiveTrackingTable",
    "ObjectTrackingTable",
    "Poi",
    "PresenceEstimator",
    "RankedPoi",
    "RawReading",
    "Room",
    "SnapshotTopKQuery",
    "TopKResult",
    "TrackingRecord",
    "__version__",
]

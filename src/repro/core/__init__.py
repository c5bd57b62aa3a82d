"""The paper's core contribution: uncertainty analysis, flows and queries."""

from .algorithms import (
    JoinObject,
    interval_flows,
    iterative_interval,
    iterative_snapshot,
    join_interval,
    join_snapshot,
    snapshot_flows,
)
from .caching import LruCache
from .context import EvaluationContext, EvaluationStats
from .engine import FlowEngine, LiveFlowEngine
from .monitor import (
    MonitorableEngine,
    SlidingIntervalTopKMonitor,
    SnapshotTopKMonitor,
    TopKUpdate,
)
from .presence import PresenceEstimator
from .shard import ShardState, shard_of
from .stats import merge_component_stats, merge_shard_stats
from .queries import (
    IntervalTopKQuery,
    RankedPoi,
    SnapshotTopKQuery,
    TopKResult,
    rank_top_k,
    rank_top_k_by_density,
)
from .states import (
    IntervalContext,
    SnapshotContext,
    TrackingState,
    interval_context_from_entries,
    interval_contexts,
    snapshot_context,
    snapshot_contexts,
)
from .uncertainty import (
    Episode,
    IntervalUncertainty,
    PathReachabilityConstraint,
    ReachabilityConstraint,
    TopologyChecker,
    interval_uncertainty,
    snapshot_mbr,
    snapshot_region,
    snapshot_region_key,
)

__all__ = [
    "Episode",
    "EvaluationContext",
    "EvaluationStats",
    "FlowEngine",
    "IntervalContext",
    "IntervalTopKQuery",
    "IntervalUncertainty",
    "JoinObject",
    "LiveFlowEngine",
    "LruCache",
    "MonitorableEngine",
    "PathReachabilityConstraint",
    "PresenceEstimator",
    "RankedPoi",
    "ReachabilityConstraint",
    "ShardState",
    "SlidingIntervalTopKMonitor",
    "SnapshotContext",
    "SnapshotTopKMonitor",
    "SnapshotTopKQuery",
    "TopKResult",
    "TopKUpdate",
    "TopologyChecker",
    "TrackingState",
    "interval_context_from_entries",
    "interval_contexts",
    "interval_flows",
    "interval_uncertainty",
    "iterative_interval",
    "iterative_snapshot",
    "join_interval",
    "join_snapshot",
    "merge_component_stats",
    "merge_shard_stats",
    "rank_top_k",
    "rank_top_k_by_density",
    "shard_of",
    "snapshot_context",
    "snapshot_contexts",
    "snapshot_flows",
    "snapshot_mbr",
    "snapshot_region",
    "snapshot_region_key",
]

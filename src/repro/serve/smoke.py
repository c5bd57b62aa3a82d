"""The scripted smoke client CI runs against a live server.

``python -m repro.serve.smoke`` boots an in-process server on an
ephemeral port (tiny synthetic venue, memory storage), then walks the
endpoint catalogue end to end exactly as a deployment probe would:
health, ingest (batch + open/extend/close episode), sync and deferred
queries, metrics, a standing monitor with a tick, and the SSE stream —
asserting on every response.  The walk runs twice: over a one-shard
engine and over a two-shard fleet.  Exits non-zero on the first failure,
so the CI step is a plain command with no harness around it.
"""

from __future__ import annotations

import itertools
import threading
from typing import Optional, Sequence

from ..core.monitor import TopKUpdate
from ..core.queries import IntervalTopKQuery, SnapshotTopKQuery
from ..datagen.config import SyntheticConfig
from ..tracking.records import TrackingRecord
from .app import ServeConfig, ServerHandle
from .client import ServeClient
from .scenario import build_engine, build_venue, record_stream
from .wire import QuerySpec

__all__ = ["main"]

_SMOKE_CONFIG = SyntheticConfig(
    num_objects=12,
    duration=600.0,
    rooms_per_side=4,
    poi_count=10,
    seed=11,
)


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


#: The engine shapes the walk covers: one shard and a two-shard fleet.
_SHARD_COUNTS = (1, 2)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the smoke session; returns 0 on success."""
    for shards in _SHARD_COUNTS:
        _walk(shards)
    print("repro.serve smoke: OK")
    return 0


def _walk(shards: int) -> None:
    """One scripted walk of the endpoint catalogue over ``shards`` shards."""
    venue = build_venue(_SMOKE_CONFIG)
    engine = build_engine(venue, shards=shards)
    records = list(record_stream(_SMOKE_CONFIG))
    _check(len(records) > 10, "smoke workload produced too few records")
    t_mid = _SMOKE_CONFIG.duration / 2.0

    with ServerHandle(engine, ServeConfig()) as handle:
        client = ServeClient(handle.base_url)

        health = client.health()
        _check(health["live"] is True, f"engine not live: {health}")
        _check(health["generation"] == 0, f"unexpected generation: {health}")

        outcome = client.ingest(records=records)
        _check(
            outcome["ingested"] == len(records),
            f"ingest count mismatch: {outcome}",
        )
        health = client.health()
        _check(
            health["generation"] == len(records),
            f"generation {health['generation']} != {len(records)} rows "
            f"ingested ({shards} shard(s))",
        )

        result = client.query(
            QuerySpec(query=SnapshotTopKQuery(t=t_mid, k=3))
        )
        _check(len(result) == 3, f"snapshot top-k size: {len(result)}")

        job_id = client.submit_query(
            QuerySpec(
                query=IntervalTopKQuery(t_start=0.0, t_end=t_mid, k=3),
                method="iterative",
            )
        )
        deferred = client.wait_job(job_id)
        _check(len(deferred) == 3, f"deferred top-k size: {len(deferred)}")

        # Open-episode lifecycle through the same ingest seam.
        last_t = max(record.t_e for record in records)
        device = records[0].device_id
        open_record = TrackingRecord(
            record_id=max(r.record_id for r in records) + 1,
            object_id="smoke-visitor",
            device_id=device,
            t_s=last_t + 1.0,
            t_e=last_t + 1.0,
        )
        client.ingest(open_episode=open_record)
        client.ingest(extend=("smoke-visitor", last_t + 5.0))
        client.ingest(close=("smoke-visitor", last_t + 6.0))

        monitor_id = client.create_monitor(kind="snapshot", k=3)
        streamed: list[TopKUpdate] = []

        def consume() -> None:
            streamed.extend(client.stream(monitor_id, max_events=2))

        consumer = threading.Thread(target=consume, daemon=True)
        consumer.start()
        ticked = [
            client.tick_monitor(monitor_id, t)
            for t in (t_mid, t_mid + 30.0)
        ]
        _check(
            len(ticked[0].result) == 3, f"monitor tick size: {ticked[0]}"
        )
        consumer.join(timeout=30.0)
        _check(not consumer.is_alive(), "SSE consumer did not finish")
        _check(len(streamed) == 2, f"streamed {len(streamed)} != 2 updates")
        for expected, actual in itertools.zip_longest(ticked, streamed):
            _check(
                expected == actual,
                f"SSE update diverged from tick response:\n{expected}\n{actual}",
            )

        metrics = client.metrics()
        _check("engine" in metrics and "obs" in metrics, f"metrics: {metrics}")
        _check(
            metrics["monitors"][0]["updates_published"] == 2,
            f"monitor accounting: {metrics['monitors']}",
        )

        folded = client.checkpoint()
        _check(folded >= 0, f"checkpoint folded {folded} < 0")


if __name__ == "__main__":
    raise SystemExit(main())

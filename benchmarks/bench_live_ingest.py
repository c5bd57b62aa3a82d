"""Live ingestion vs. rebuild-per-tick: what the streaming path buys.

The scenario is late-arriving data under a standing query: a dashboard
watches the interval top-k over a fixed trailing window while tracking
devices upload buffered detection episodes one object at a time (a reader
reconnects, a batch lands).  Each tick ingests one object's buffered
records, then re-runs the same window query.  Two strategies answer the
same schedule over the same record stream:

* **incremental** — one long-lived live engine: each ingest bumps only
  the appended object's tail-epoch, so the warm re-query recomputes that
  object's episodes and serves every other object's regions *and*
  presence values from the caches;
* **rebuild** — a fresh batch engine per tick over the union of all
  records so far (bulk index build, cold context), the pre-streaming
  baseline.

``test_incremental_beats_rebuild`` asserts the refactor's acceptance
numbers: the warm incremental ticks compute strictly fewer uncertainty
regions than the rebuild ticks and are at least 5x faster end to end —
while returning bit-identical top-k answers.

Scale is configurable for CI smoke runs via ``REPRO_BENCH_SCALE``.
"""

import os
import time

import pytest

from conftest import DEFAULT_SCALE

from repro.bench import format_stats
from repro.core.engine import FlowEngine
from repro.datagen.config import SyntheticConfig
from repro.tracking import LiveTrackingTable, ObjectTrackingTable

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", DEFAULT_SCALE))

#: Objects whose in-window records arrive late, one per tick.
LATE_OBJECTS = 4
WINDOW_SECONDS = 240.0
K = 10


def record_order(record):
    return (record.t_s, record.t_e, record.record_id)


@pytest.fixture(scope="module")
def stream():
    """(dataset, base records, per-tick late batches, query window)."""
    config = SyntheticConfig().scaled(SCALE)
    from repro.datagen.synthetic import build_synthetic_dataset

    dataset = build_synthetic_dataset(config)
    t_lo, t_hi = dataset.time_span()
    window = (t_hi - WINDOW_SECONDS, t_hi)

    # The late arrivals: for a few objects, every record past the window
    # start is still sitting in a device buffer when the dashboard starts.
    in_window = sorted(
        {
            r.object_id
            for r in dataset.ott
            if r.t_e > window[0]
        }
    )
    late = in_window[:LATE_OBJECTS]
    records = sorted(dataset.ott, key=record_order)
    base = [
        r
        for r in records
        if r.object_id not in late or r.t_e <= window[0]
    ]
    batches = [
        [r for r in records if r.object_id == object_id and r.t_e > window[0]]
        for object_id in late
    ]
    return dataset, base, batches, window


def engine_kwargs(dataset):
    return dict(
        floorplan=dataset.floorplan,
        deployment=dataset.deployment,
        pois=dataset.pois,
        v_max=dataset.v_max,
        detection_slack=2.0 * dataset.sampling_interval,
    )


def make_live_engine(dataset, base):
    return FlowEngine(ott=LiveTrackingTable(base), **engine_kwargs(dataset))


def run_incremental(engine, batches, window):
    results = []
    for batch in batches:
        engine.ingest(batch)
        results.append(engine.interval_topk(*window, K, method="join"))
    return results


def run_rebuild(dataset, base, batches, window):
    results = []
    seen = list(base)
    for batch in batches:
        seen.extend(batch)
        engine = FlowEngine(
            ott=ObjectTrackingTable(seen), **engine_kwargs(dataset)
        )
        results.append(engine.interval_topk(*window, K, method="join"))
    return results


def test_ingest_and_tick_incremental(benchmark, stream):
    """Timed: ingest each late batch into a live engine, re-query after each."""
    dataset, base, batches, window = stream

    def setup():
        # Records can only be ingested once, so each round gets a fresh
        # live engine pre-loaded (and pre-warmed) on the base stream.
        engine = make_live_engine(dataset, base)
        engine.interval_topk(*window, K, method="join")
        return (engine, batches, window), {}

    benchmark.pedantic(run_incremental, setup=setup, rounds=2, iterations=1)


def test_ingest_and_tick_rebuild(benchmark, stream):
    """Timed baseline: rebuild the whole engine for every tick."""
    dataset, base, batches, window = stream
    run_rebuild(dataset, base, batches, window)  # warm-up parity
    benchmark.pedantic(
        run_rebuild,
        args=(dataset, base, batches, window),
        rounds=2,
        iterations=1,
    )


def test_incremental_beats_rebuild(stream, capsys):
    """The acceptance check behind the timings (not a pytest-benchmark).

    Warm incremental ticks must compute strictly fewer uncertainty
    regions than the rebuild-per-tick baseline, finish at least 5x
    faster at bench scale, and return bit-identical rankings.
    """
    dataset, base, batches, window = stream

    live = make_live_engine(dataset, base)
    live.interval_topk(*window, K, method="join")  # warm on the base stream
    live.reset_stats()
    started = time.perf_counter()
    incremental_results = run_incremental(live, batches, window)
    incremental_seconds = time.perf_counter() - started
    incremental_regions = live.stats()["regions_computed"]

    started = time.perf_counter()
    rebuild_results = run_rebuild(dataset, base, batches, window)
    rebuild_seconds = time.perf_counter() - started
    rebuild_regions = 0
    seen = list(base)
    for batch in batches:
        seen.extend(batch)
        engine = FlowEngine(
            ott=ObjectTrackingTable(seen), **engine_kwargs(dataset)
        )
        engine.interval_topk(*window, K, method="join")
        rebuild_regions += engine.stats()["regions_computed"]

    for incremental, rebuilt in zip(incremental_results, rebuild_results):
        assert incremental.poi_ids == rebuilt.poi_ids
        assert incremental.flows == rebuilt.flows

    with capsys.disabled():
        print()
        print(format_stats("live ingest (warm ticks)", live.stats()))
        print(
            f"regions: incremental={incremental_regions} "
            f"rebuild={rebuild_regions}; seconds: "
            f"incremental={incremental_seconds:.3f} "
            f"rebuild={rebuild_seconds:.3f} "
            f"(speedup {rebuild_seconds / max(incremental_seconds, 1e-9):.1f}x)"
        )

    assert incremental_regions < rebuild_regions
    assert incremental_seconds * 5.0 <= rebuild_seconds

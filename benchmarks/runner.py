"""Standalone bench runner emitting schema-versioned ``BENCH_*.json``.

Unlike the pytest-benchmark figures in this directory, the runner needs
no pytest: it rebuilds the cache/live-ingest scenarios plus a
snapshot-vs-interval x iterative-vs-join sweep as plain functions, times
them, captures one instrumented run per scenario through :mod:`repro.obs`
and writes each as a baseline file (see ``docs/observability.md`` for the
schema).  CI runs it at tiny scale and uploads the JSON as artifacts;
committed baselines live under ``benchmarks/baselines/``.

Usage::

    PYTHONPATH=src python benchmarks/runner.py --scale 0.05 --out benchmarks/baselines

Timings are medians over ``--repeats`` runs measured with instrumentation
*disabled*; the per-phase span rows embedded in each baseline come from
one additional instrumented run of the same workload, so the numbers in
``results`` are never perturbed by the tracer.
"""

from __future__ import annotations

import argparse
import os
import platform
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Callable, Mapping

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:  # allow running without PYTHONPATH
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import obs
from repro.core.engine import FlowEngine
from repro.core.monitor import SlidingIntervalTopKMonitor
from repro.datagen.config import SyntheticConfig
from repro.datagen.dataset import Dataset
from repro.datagen.synthetic import build_synthetic_dataset
from repro.obs.export import bench_baseline, write_baseline
from repro.storage import SQLiteBackend
from repro.tracking import LiveTrackingTable, ObjectTrackingTable
from repro.tracking.records import TrackingRecord

K = 10
WINDOW_SECONDS = 240.0
TICK_SECONDS = 5.0
TICKS = 4
LATE_OBJECTS = 4

BENCH_NAMES = (
    "monitor_cache",
    "live_ingest",
    "query_matrix",
    "obs_overhead",
    "shard_scaling",
    "storage",
    "serve",
)

#: Client threads in the serve scenario's concurrent phase.
SERVE_INGEST_THREADS = 4
SERVE_QUERY_THREADS = 2
SERVE_CHUNK = 25

SHARD_COUNTS = (1, 2, 4)
LOCALIZED_POIS = 3
LOCALIZED_K = 1
#: Fractions of the tracked time span at which the localized snapshot
#: sweep queries the fleet (interval windows rarely prune: over a long
#: window every shard tends to have at least one candidate near any POI).
SNAPSHOT_SWEEP = (0.2, 0.4, 0.6, 0.8)


def machine_info() -> dict[str, Any]:
    """Host provenance stamped into every baseline."""
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
    }


def median_ms(run: Callable[[], object], repeats: int) -> float:
    """Median wall-clock milliseconds over ``repeats`` executions."""
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        run()
        samples.append((time.perf_counter() - started) * 1000.0)
    return statistics.median(samples)


def instrumented(run: Callable[[], object]) -> None:
    """Execute ``run`` once with tracing/metrics on, leaving the process-wide
    tracer and registry holding exactly that run's data."""
    obs.reset()
    obs.enable()
    try:
        run()
    finally:
        obs.disable()


def emit(
    out_dir: Path,
    name: str,
    scale: float,
    params: Mapping[str, Any],
    results: Mapping[str, Any],
    stats: Mapping[str, Any] | None = None,
) -> Path:
    """Assemble and write one ``BENCH_<name>.json`` from the current
    process-wide observability state."""
    payload = bench_baseline(
        name,
        machine=machine_info(),
        scale=scale,
        params=params,
        results=results,
        stats=stats,
    )
    path = out_dir / f"BENCH_{name}.json"
    write_baseline(str(path), payload)
    return path


# ----------------------------------------------------------------------
# Scenario: monitor ticks, cold vs. warm (cf. bench_monitor_cache.py)
# ----------------------------------------------------------------------


def bench_monitor_cache(dataset: Dataset, out_dir: Path, scale: float, repeats: int) -> Path:
    times = [dataset.mid_time() + i * TICK_SECONDS for i in range(TICKS)]

    def run_ticks(engine: FlowEngine) -> None:
        monitor = SlidingIntervalTopKMonitor(
            engine, k=K, window_seconds=WINDOW_SECONDS, method="join"
        )
        monitor.run(times)

    def cold_run() -> None:
        run_ticks(dataset.engine(region_cache_size=0, presence_cache_size=0))

    warm_engine = dataset.engine()
    run_ticks(warm_engine)  # prime the context's caches

    cold_ms = median_ms(cold_run, repeats)
    warm_ms = median_ms(lambda: run_ticks(warm_engine), repeats)

    warm_engine.reset_stats()
    instrumented(lambda: run_ticks(warm_engine))
    stats = warm_engine.stats()

    return emit(
        out_dir,
        "monitor_cache",
        scale,
        params={
            "method": "join",
            "k": K,
            "window_seconds": WINDOW_SECONDS,
            "tick_seconds": TICK_SECONDS,
            "ticks": TICKS,
        },
        results={
            "cold_ticks_ms": round(cold_ms, 3),
            "warm_ticks_ms": round(warm_ms, 3),
            "warm_speedup": round(cold_ms / max(warm_ms, 1e-9), 2),
        },
        stats=stats,
    )


# ----------------------------------------------------------------------
# Scenario: live ingestion vs. rebuild (cf. bench_live_ingest.py)
# ----------------------------------------------------------------------


def _split_stream(
    dataset: Dataset,
) -> tuple[list[TrackingRecord], list[list[TrackingRecord]], tuple[float, float]]:
    """Base records, per-tick late batches, query window."""
    t_lo, t_hi = dataset.time_span()
    window = (t_hi - WINDOW_SECONDS, t_hi)
    in_window = sorted(
        {r.object_id for r in dataset.ott if r.t_e > window[0]}
    )
    late = in_window[:LATE_OBJECTS]
    records = sorted(dataset.ott, key=lambda r: (r.t_s, r.t_e, r.record_id))
    base = [r for r in records if r.object_id not in late or r.t_e <= window[0]]
    batches = [
        [r for r in records if r.object_id == object_id and r.t_e > window[0]]
        for object_id in late
    ]
    return base, batches, window


def _engine_kwargs(dataset: Dataset) -> dict[str, Any]:
    return dict(
        floorplan=dataset.floorplan,
        deployment=dataset.deployment,
        pois=dataset.pois,
        v_max=dataset.v_max,
        detection_slack=2.0 * dataset.sampling_interval,
    )


def _live_engine(dataset: Dataset, base: list[TrackingRecord]) -> FlowEngine:
    engine = FlowEngine(ott=LiveTrackingTable(base), **_engine_kwargs(dataset))
    engine.interval_topk(
        *_split_stream(dataset)[2], K, method="join"
    )  # warm on the base stream
    return engine


def _run_incremental(engine, batches, window):
    results = []
    for batch in batches:
        engine.ingest(batch)
        results.append(engine.interval_topk(*window, K, method="join"))
    return results


def _run_rebuild(dataset, base, batches, window):
    results = []
    seen = list(base)
    for batch in batches:
        seen.extend(batch)
        engine = FlowEngine(
            ott=ObjectTrackingTable(seen), **_engine_kwargs(dataset)
        )
        results.append(engine.interval_topk(*window, K, method="join"))
    return results


def bench_live_ingest(dataset: Dataset, out_dir: Path, scale: float, repeats: int) -> Path:
    base, batches, window = _split_stream(dataset)

    # Each incremental round needs a fresh pre-warmed live engine (records
    # can only be ingested once), so timing covers ingest + warm re-query.
    incremental_samples = []
    last_incremental = None
    stats: dict[str, int] = {}
    for _ in range(repeats):
        engine = _live_engine(dataset, base)
        engine.reset_stats()
        started = time.perf_counter()
        last_incremental = _run_incremental(engine, batches, window)
        incremental_samples.append((time.perf_counter() - started) * 1000.0)
        stats = engine.stats()
    incremental_ms = statistics.median(incremental_samples)
    rebuild_ms = median_ms(
        lambda: _run_rebuild(dataset, base, batches, window), repeats
    )

    rebuild_results = _run_rebuild(dataset, base, batches, window)
    assert last_incremental is not None
    identical = all(
        a.poi_ids == b.poi_ids and a.flows == b.flows
        for a, b in zip(last_incremental, rebuild_results)
    )

    obs_engine = _live_engine(dataset, base)
    instrumented(lambda: _run_incremental(obs_engine, batches, window))

    return emit(
        out_dir,
        "live_ingest",
        scale,
        params={
            "method": "join",
            "k": K,
            "window_seconds": WINDOW_SECONDS,
            "late_objects": LATE_OBJECTS,
        },
        results={
            "incremental_ticks_ms": round(incremental_ms, 3),
            "rebuild_ticks_ms": round(rebuild_ms, 3),
            "incremental_speedup": round(
                rebuild_ms / max(incremental_ms, 1e-9), 2
            ),
            "results_identical": identical,
        },
        stats=stats,
    )


# ----------------------------------------------------------------------
# Scenario: snapshot-vs-interval x iterative-vs-join sweep
# ----------------------------------------------------------------------


def bench_query_matrix(dataset: Dataset, out_dir: Path, scale: float, repeats: int) -> Path:
    engine = dataset.engine()
    t = dataset.mid_time()
    window = (t - WINDOW_SECONDS, t)

    runs: dict[str, Callable[[], object]] = {}
    for method in ("iterative", "join"):
        runs[f"snapshot_{method}_ms"] = (
            lambda m=method: engine.snapshot_topk(t, K, method=m)
        )
        runs[f"interval_{method}_ms"] = (
            lambda m=method: engine.interval_topk(*window, K, method=m)
        )

    for run in runs.values():  # warm the context's caches once per cell
        run()
    results = {
        label: round(median_ms(run, repeats), 3) for label, run in runs.items()
    }

    engine.reset_stats()

    def all_cells() -> None:
        for run in runs.values():
            run()

    instrumented(all_cells)

    return emit(
        out_dir,
        "query_matrix",
        scale,
        params={
            "k": K,
            "window_seconds": WINDOW_SECONDS,
            "methods": ["iterative", "join"],
            "queries": ["snapshot", "interval"],
        },
        results=results,
        stats=engine.stats(),
    )


# ----------------------------------------------------------------------
# Scenario: instrumentation overhead micro-benchmark
# ----------------------------------------------------------------------


def bench_obs_overhead(dataset: Dataset, out_dir: Path, scale: float, repeats: int) -> Path:
    iterations = 200_000

    def bare_loop() -> None:
        for _ in range(iterations):
            pass

    def span_loop() -> None:
        for _ in range(iterations):
            with obs.span("bench.noop"):
                pass

    obs.disable()
    bare_ms = median_ms(bare_loop, repeats)
    disabled_ms = median_ms(span_loop, repeats)
    obs.reset()
    obs.enable()
    try:
        enabled_ms = median_ms(span_loop, repeats)
    finally:
        obs.disable()
        obs.reset()

    disabled_ns = (disabled_ms - bare_ms) * 1e6 / iterations
    enabled_ns = (enabled_ms - bare_ms) * 1e6 / iterations

    # Macro check against the live-ingest workload: count how many spans
    # and metric updates one instrumented run emits, then bound what the
    # same run pays with the flag off (span calls x disabled no-op cost).
    base, batches, window = _split_stream(dataset)
    engine = _live_engine(dataset, base)
    started = time.perf_counter()
    _run_incremental(engine, batches, window)
    workload_ms = (time.perf_counter() - started) * 1000.0

    obs_engine = _live_engine(dataset, base)
    instrumented(lambda: _run_incremental(obs_engine, batches, window))
    span_calls = sum(row.count for row in obs.TRACER.snapshot())
    estimated_disabled_ms = span_calls * max(disabled_ns, 0.0) / 1e6
    overhead_percent = 100.0 * estimated_disabled_ms / max(workload_ms, 1e-9)

    return emit(
        out_dir,
        "obs_overhead",
        scale,
        params={"iterations": iterations, "workload": "live_ingest"},
        results={
            "bare_loop_ms": round(bare_ms, 3),
            "disabled_span_ns": round(disabled_ns, 1),
            "enabled_span_ns": round(enabled_ns, 1),
            "workload_ms": round(workload_ms, 3),
            "workload_span_calls": span_calls,
            "estimated_disabled_overhead_ms": round(estimated_disabled_ms, 4),
            "estimated_disabled_overhead_percent": round(overhead_percent, 3),
        },
    )


# ----------------------------------------------------------------------
# Scenario: sharded engine vs. monolith (cf. bench_shard_scaling.py)
# ----------------------------------------------------------------------


def _localized_pois(dataset: Dataset) -> list:
    """The ``LOCALIZED_POIS`` POIs nearest the floorplan's SW corner.

    A spatially localized query subset with small k: the cell where the
    join refines the fewest POIs, so any per-shard overhead would show.
    """
    bounds = dataset.floorplan.bounds

    def corner_distance(poi) -> float:
        centroid = poi.polygon.centroid()
        dx = centroid.x - bounds.min_x
        dy = centroid.y - bounds.min_y
        return dx * dx + dy * dy

    ranked = sorted(dataset.pois, key=lambda p: (corner_distance(p), p.poi_id))
    return ranked[:LOCALIZED_POIS]


def bench_shard_scaling(dataset: Dataset, out_dir: Path, scale: float, repeats: int) -> Path:
    t = dataset.mid_time()
    window = (t - WINDOW_SECONDS, t)
    localized = _localized_pois(dataset)
    t_lo, t_hi = dataset.time_span()
    sweep = [t_lo + f * (t_hi - t_lo) for f in SNAPSHOT_SWEEP]

    monolith = dataset.engine()
    expected = {
        "snapshot": monolith.snapshot_topk(t, K, method="join"),
        "interval": monolith.interval_topk(*window, K, method="join"),
    }

    engines: dict[int, FlowEngine] = {}
    results: dict[str, Any] = {}
    identical = True
    for num_shards in SHARD_COUNTS:
        engine = FlowEngine(
            ott=dataset.ott, num_shards=num_shards, **_engine_kwargs(dataset)
        )
        engines[num_shards] = engine

        def matrix(engine: FlowEngine = engine) -> dict:
            return {
                "snapshot": engine.snapshot_topk(t, K, method="join"),
                "interval": engine.interval_topk(*window, K, method="join"),
            }

        def localized_cell(engine: FlowEngine = engine) -> None:
            for instant in sweep:
                engine.snapshot_topk(
                    instant, LOCALIZED_K, pois=localized, method="join"
                )

        answers = matrix()  # warm the shard caches once per fleet size
        identical = identical and all(
            answers[q].poi_ids == expected[q].poi_ids
            and answers[q].flows == expected[q].flows
            for q in expected
        )
        localized_cell()
        results[f"matrix_n{num_shards}_ms"] = round(median_ms(matrix, repeats), 3)
        localized_ms = median_ms(localized_cell, repeats)
        results[f"localized_n{num_shards}_ms"] = round(localized_ms, 3)

    base_ms = results[f"matrix_n{SHARD_COUNTS[0]}_ms"]
    for num_shards in SHARD_COUNTS[1:]:
        results[f"speedup_n{num_shards}"] = round(
            base_ms / max(results[f"matrix_n{num_shards}_ms"], 1e-9), 2
        )
    results["results_identical"] = identical

    widest = engines[SHARD_COUNTS[-1]]
    widest.reset_stats()

    def full_sweep() -> None:
        widest.snapshot_topk(t, K, method="join")
        widest.interval_topk(*window, K, method="join")
        for instant in sweep:
            widest.snapshot_topk(
                instant, LOCALIZED_K, pois=localized, method="join"
            )

    instrumented(full_sweep)

    return emit(
        out_dir,
        "shard_scaling",
        scale,
        params={
            "method": "join",
            "k": K,
            "window_seconds": WINDOW_SECONDS,
            "shard_counts": list(SHARD_COUNTS),
            "localized_pois": [poi.poi_id for poi in localized],
            "localized_k": LOCALIZED_K,
            "snapshot_sweep": list(SNAPSHOT_SWEEP),
        },
        results=results,
        stats=widest.stats(),
    )


# ----------------------------------------------------------------------
# Scenario: durable storage — append throughput, reopen paths
# ----------------------------------------------------------------------


def bench_storage(dataset: Dataset, out_dir: Path, scale: float, repeats: int) -> Path:
    """SQLite write-through and the two recovery read shapes.

    ``reopen_cold`` recovers from an **uncompacted** store: the snapshot
    is empty, so every persisted mutation replays one by one through the
    live ingest seam (table validation + AR-tree delta).  ``reopen_snapshot``
    recovers from the same data after ``checkpoint()``: the bulk snapshot
    feeds ``ARTree.build`` directly and only an empty tail replays — the
    speedup between the two is what compaction buys a restart.
    """
    import tempfile

    records = sorted(dataset.ott, key=lambda r: (r.t_s, r.t_e, r.record_id))
    t = dataset.mid_time()
    window = (t - WINDOW_SECONDS, t)

    def attach(path: Path) -> FlowEngine:
        return FlowEngine(
            ott=ObjectTrackingTable(),
            live=True,
            storage=SQLiteBackend(path),
            **_engine_kwargs(dataset),
        )

    with tempfile.TemporaryDirectory(prefix="bench-storage-") as tmp:
        tmp_dir = Path(tmp)

        # Append throughput: each repeat streams the full workload through
        # the write-through path into a fresh store.
        append_samples = []
        for index in range(repeats):
            engine = attach(tmp_dir / f"append-{index}.sqlite")
            started = time.perf_counter()
            engine.ingest(records)
            append_samples.append((time.perf_counter() - started) * 1000.0)
            engine.storage.close()
        append_ms = statistics.median(append_samples)

        # Two stores with identical contents: WAL-only vs. compacted.
        cold_path = tmp_dir / "cold.sqlite"
        engine = attach(cold_path)
        engine.ingest(records)
        engine.storage.close()

        snapshot_path = tmp_dir / "compacted.sqlite"
        engine = attach(snapshot_path)
        engine.ingest(records)
        started = time.perf_counter()
        engine.checkpoint()
        checkpoint_ms = (time.perf_counter() - started) * 1000.0
        engine.storage.close()

        reopen_cold_ms = median_ms(
            lambda: attach(cold_path).storage.close(), repeats
        )
        reopen_snapshot_ms = median_ms(
            lambda: attach(snapshot_path).storage.close(), repeats
        )

        recovered = attach(snapshot_path)
        reference = FlowEngine(
            ott=ObjectTrackingTable(records), **_engine_kwargs(dataset)
        )
        a = recovered.interval_topk(*window, K, method="join")
        b = reference.interval_topk(*window, K, method="join")
        identical = a.poi_ids == b.poi_ids and a.flows == b.flows
        recovered.storage.close()

        obs_path = tmp_dir / "instrumented.sqlite"

        def instrumented_cycle() -> None:
            writer = attach(obs_path)
            writer.ingest(records)
            writer.checkpoint()
            writer.storage.close()
            attach(obs_path).storage.close()

        instrumented(instrumented_cycle)

        return emit(
            out_dir,
            "storage",
            scale,
            params={
                "backend": "sqlite",
                "records": len(records),
                "method": "join",
                "k": K,
                "window_seconds": WINDOW_SECONDS,
            },
            results={
                "append_ms": round(append_ms, 3),
                "append_rows_per_s": round(
                    len(records) / max(append_ms / 1000.0, 1e-9), 1
                ),
                "checkpoint_ms": round(checkpoint_ms, 3),
                "reopen_cold_ms": round(reopen_cold_ms, 3),
                "reopen_snapshot_ms": round(reopen_snapshot_ms, 3),
                "reopen_speedup": round(
                    reopen_cold_ms / max(reopen_snapshot_ms, 1e-9), 2
                ),
                "results_identical": identical,
            },
        )


# ----------------------------------------------------------------------
# Scenario: repro.serve under concurrent ingest + query (HTTP round trips)
# ----------------------------------------------------------------------


def _percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile of ``samples`` (which must be non-empty)."""
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))]


def bench_serve(dataset: Dataset, out_dir: Path, scale: float, repeats: int) -> Path:
    """End-to-end HTTP latency and throughput of ``repro.serve``.

    One in-process service (real listener, real sockets) takes the whole
    workload from ``SERVE_INGEST_THREADS`` concurrent producers — disjoint
    per-object streams, chunked — while ``SERVE_QUERY_THREADS`` clients
    keep querying the moving engine.  Client-side wall clock gives the
    p50/p99 of both request kinds *under contention*, plus a steady-state
    query profile once ingest settles.  The final served top-k is checked
    bit-identical against an in-process engine over the same records.
    """
    import threading

    from repro.core.queries import SnapshotTopKQuery
    from repro.serve.app import ServeConfig, ServerHandle
    from repro.serve.client import ServeClient
    from repro.serve.wire import QuerySpec

    records = sorted(dataset.ott, key=lambda r: (r.t_s, r.t_e, r.record_id))
    t_lo, t_hi = dataset.time_span()
    query_times = [
        t_lo + fraction * (t_hi - t_lo) for fraction in SNAPSHOT_SWEEP
    ]

    by_object: dict[Any, list[TrackingRecord]] = {}
    for record in records:
        by_object.setdefault(record.object_id, []).append(record)
    streams: list[list[TrackingRecord]] = [[] for _ in range(SERVE_INGEST_THREADS)]
    for index, object_records in enumerate(by_object.values()):
        streams[index % SERVE_INGEST_THREADS].extend(object_records)

    engine = FlowEngine(
        ott=LiveTrackingTable(), live=True, **_engine_kwargs(dataset)
    )
    ingest_latencies: list[float] = []
    query_latencies: list[float] = []
    errors: list[BaseException] = []
    lock = threading.Lock()
    start = threading.Barrier(SERVE_INGEST_THREADS + SERVE_QUERY_THREADS + 1)
    ingest_done = threading.Event()

    with ServerHandle(engine, ServeConfig()) as handle:
        def ingest_worker(stream: list[TrackingRecord]) -> None:
            client = ServeClient(handle.base_url)
            local: list[float] = []
            try:
                start.wait(timeout=60.0)
                for offset in range(0, len(stream), SERVE_CHUNK):
                    begun = time.perf_counter()
                    client.ingest(records=stream[offset : offset + SERVE_CHUNK])
                    local.append((time.perf_counter() - begun) * 1000.0)
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)
            with lock:
                ingest_latencies.extend(local)

        def query_worker(offset: int) -> None:
            client = ServeClient(handle.base_url)
            local: list[float] = []
            try:
                start.wait(timeout=60.0)
                cursor = offset
                while not ingest_done.is_set():
                    t = query_times[cursor % len(query_times)]
                    cursor += 1
                    begun = time.perf_counter()
                    client.query(
                        QuerySpec(query=SnapshotTopKQuery(t=t, k=K))
                    )
                    local.append((time.perf_counter() - begun) * 1000.0)
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)
            with lock:
                query_latencies.extend(local)

        threads = [
            threading.Thread(target=ingest_worker, args=(stream,), daemon=True)
            for stream in streams
        ] + [
            threading.Thread(target=query_worker, args=(index,), daemon=True)
            for index in range(SERVE_QUERY_THREADS)
        ]
        for thread in threads:
            thread.start()
        start.wait(timeout=60.0)
        begun = time.perf_counter()
        for thread in threads[:SERVE_INGEST_THREADS]:
            thread.join()
        ingest_wall_s = time.perf_counter() - begun
        ingest_done.set()
        for thread in threads[SERVE_INGEST_THREADS:]:
            thread.join()
        if errors:
            raise RuntimeError(f"serve bench worker failed: {errors[0]!r}")

        # Steady state: the same query mix against the settled engine.
        client = ServeClient(handle.base_url)
        steady: list[float] = []
        for _ in range(repeats):
            for t in query_times:
                begun = time.perf_counter()
                client.query(QuerySpec(query=SnapshotTopKQuery(t=t, k=K)))
                steady.append((time.perf_counter() - begun) * 1000.0)

        served = client.query(
            QuerySpec(query=SnapshotTopKQuery(t=query_times[1], k=K))
        )

    reference = FlowEngine(
        ott=ObjectTrackingTable(records), **_engine_kwargs(dataset)
    ).snapshot_topk(query_times[1], K)
    identical = (
        served.poi_ids == reference.poi_ids and served.flows == reference.flows
    )

    def instrumented_cycle() -> None:
        probe = FlowEngine(
            ott=LiveTrackingTable(), live=True, **_engine_kwargs(dataset)
        )
        with ServerHandle(probe, ServeConfig()) as probe_handle:
            probe_client = ServeClient(probe_handle.base_url)
            probe_client.ingest(records=records[: SERVE_CHUNK * 4])
            probe_client.query(
                QuerySpec(query=SnapshotTopKQuery(t=query_times[0], k=K))
            )

    instrumented(instrumented_cycle)

    return emit(
        out_dir,
        "serve",
        scale,
        params={
            "records": len(records),
            "ingest_threads": SERVE_INGEST_THREADS,
            "query_threads": SERVE_QUERY_THREADS,
            "chunk": SERVE_CHUNK,
            "k": K,
            "method": "join",
        },
        results={
            "ingest_wall_s": round(ingest_wall_s, 3),
            "ingest_rows_per_s": round(len(records) / max(ingest_wall_s, 1e-9), 1),
            "ingest_p50_ms": round(_percentile(ingest_latencies, 0.50), 3),
            "ingest_p99_ms": round(_percentile(ingest_latencies, 0.99), 3),
            "query_under_ingest_p50_ms": round(_percentile(query_latencies, 0.50), 3),
            "query_under_ingest_p99_ms": round(_percentile(query_latencies, 0.99), 3),
            "query_under_ingest_count": len(query_latencies),
            "query_steady_p50_ms": round(_percentile(steady, 0.50), 3),
            "query_steady_p99_ms": round(_percentile(steady, 0.99), 3),
            "results_identical": identical,
        },
    )


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

_SCENARIOS: dict[str, Callable[[Dataset, Path, float, int], Path]] = {
    "monitor_cache": bench_monitor_cache,
    "live_ingest": bench_live_ingest,
    "query_matrix": bench_query_matrix,
    "obs_overhead": bench_obs_overhead,
    "shard_scaling": bench_shard_scaling,
    "storage": bench_storage,
    "serve": bench_serve,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the repro benches and write BENCH_*.json baselines."
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=0.05,
        help="population scale relative to the paper's |O| (default 0.05)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="timing repeats per measurement; the median is reported",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=REPO_ROOT / "benchmarks" / "baselines",
        help="directory for the BENCH_*.json files",
    )
    parser.add_argument(
        "--only",
        action="append",
        choices=sorted(_SCENARIOS),
        help="run only the named scenario (repeatable)",
    )
    args = parser.parse_args(argv)
    if args.scale <= 0:
        parser.error("--scale must be positive")
    if args.repeats < 1:
        parser.error("--repeats must be positive")

    names = args.only if args.only else list(BENCH_NAMES)
    args.out.mkdir(parents=True, exist_ok=True)

    print(f"building synthetic dataset at scale {args.scale} ...", flush=True)
    dataset = build_synthetic_dataset(SyntheticConfig().scaled(args.scale))

    for name in names:
        started = time.perf_counter()
        path = _SCENARIOS[name](dataset, args.out, args.scale, args.repeats)
        elapsed = time.perf_counter() - started
        print(f"  {name:<14} -> {path}  ({elapsed:.1f}s)", flush=True)
    print(f"wrote {len(names)} baseline(s) to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

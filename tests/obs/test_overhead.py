"""What disabled tracing costs a real workload: the north star's < 1% claim.

The estimate multiplies the per-call cost of a disabled span by the span
calls one instrumented run of a small live-ingest workload makes, and
states it as a share of that workload's uninstrumented run time.  The
workload streams four objects' late records into a warm live engine and
re-runs the trailing-window interval top-k after each batch.
"""

import statistics
import time

from repro import obs
from repro.core.engine import FlowEngine
from repro.datagen.config import SyntheticConfig
from repro.datagen.synthetic import build_synthetic_dataset
from repro.tracking import LiveTrackingTable

SCALE = 0.01
ITERATIONS = 200_000
REPEATS = 3
LATE_OBJECTS = 4
WINDOW_SECONDS = 240.0
K = 10


def _median_ms(run) -> float:
    samples = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        run()
        samples.append((time.perf_counter() - started) * 1000.0)
    return statistics.median(samples)


def _disabled_span_ns() -> float:
    """Per-call cost of ``obs.span`` with tracing off, net of the loop."""

    def bare_loop() -> None:
        for _ in range(ITERATIONS):
            pass

    def span_loop() -> None:
        for _ in range(ITERATIONS):
            with obs.span("bench.noop"):
                pass

    bare_ms = _median_ms(bare_loop)
    return max(_median_ms(span_loop) - bare_ms, 0.0) * 1e6 / ITERATIONS


def _live_ingest_workload():
    """A factory of runs: each builds a fresh live engine warmed on the
    base stream; the run ingests the late batches, re-querying the window
    after each one."""
    dataset = build_synthetic_dataset(SyntheticConfig().scaled(SCALE))
    t_end = dataset.time_span()[1]
    window = (t_end - WINDOW_SECONDS, t_end)
    late = sorted({r.object_id for r in dataset.ott if r.t_e > window[0]})
    late = late[:LATE_OBJECTS]
    records = sorted(dataset.ott, key=lambda r: (r.t_s, r.t_e, r.record_id))
    base = [r for r in records if r.object_id not in late or r.t_e <= window[0]]
    batches = [
        [r for r in records if r.object_id == object_id and r.t_e > window[0]]
        for object_id in late
    ]

    def make_run():
        engine = FlowEngine(
            ott=LiveTrackingTable(base),
            floorplan=dataset.floorplan,
            deployment=dataset.deployment,
            pois=dataset.pois,
            v_max=dataset.v_max,
            detection_slack=2.0 * dataset.sampling_interval,
        )
        engine.interval_topk(*window, K, method="join")  # warm on the base

        def run() -> None:
            for batch in batches:
                engine.ingest(batch)
                engine.interval_topk(*window, K, method="join")

        return run

    return make_run


def test_disabled_tracing_costs_under_two_percent_of_live_ingest():
    disabled_ns = _disabled_span_ns()
    make_run = _live_ingest_workload()

    run = make_run()
    started = time.perf_counter()
    run()
    workload_ms = (time.perf_counter() - started) * 1000.0

    run = make_run()
    obs.enable()
    try:
        run()
    finally:
        obs.disable()
    span_calls = sum(row.count for row in obs.TRACER.snapshot())
    assert span_calls > 0

    estimated_ms = span_calls * disabled_ns / 1e6
    overhead_percent = 100.0 * estimated_ms / workload_ms
    assert overhead_percent < 2.0, (
        f"{span_calls} span calls x {disabled_ns:.1f} ns = {estimated_ms:.3f} ms "
        f"of a {workload_ms:.1f} ms run ({overhead_percent:.3f}%)"
    )

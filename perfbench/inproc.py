"""The in-process workloads: ``adhoc_cold`` and ``dashboard_warm``.

Both query a ``FlowEngine`` over the fixed history with one closed-loop
client, then run the same in-process ingest-and-recover phase on a
durable ``LiveFlowEngine`` so that every workload reports every gated
metric.  Each run makes ``PASSES`` passes, each after a set-up of its
own: one over the query list, on a fresh engine when cold, then
``INGEST_REPEATS`` ingest phases, each on a fresh store.  An
operation's latency is the median of all its executions in the run, in
host-normalised seconds (see ``common.HostClock``).  The workloads differ
only in their query list:

* ``adhoc_cold`` asks each query once per pass, at seeded instants, on a
  fresh engine, so nearly every query builds regions and runs presence
  quadrature;
* ``dashboard_warm`` repeats a small fixed query set round-robin after
  one warm-up pass, so the timed section is served from the caches.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro import obs
from repro.core.engine import FlowEngine, LiveFlowEngine
from repro.core.monitor import SnapshotTopKMonitor
from repro.datagen import build_synthetic_dataset
from repro.datagen.dataset import Dataset
from repro.storage import SQLiteBackend

from .common import (
    BATCH_ROWS,
    CLOCK,
    K,
    SERVE_LAYERS_IDLE,
    Report,
    Tally,
    answer,
    history_config,
    ingest_layers,
    jittered,
    median,
    midpoints,
    overhead,
    p50_ms,
    peak_rss_mb,
    per_index,
    per_op,
    query_layers,
    recovery_layers,
    settle,
    span_rows,
    span_table,
    stats_delta,
    tail,
    time_sorted,
)

#: One operation: ``("snapshot", t)`` or ``("interval", t_start, t_end)``.
Op = tuple[Any, ...]

#: Timed passes, each preceded by its own set-up (``setup_s`` is the median).
PASSES = 4
#: Ingest-and-recover phases per pass, each on a fresh store.
INGEST_REPEATS = 2
#: Reopens of the crashed store per phase; ``recover_s`` is the median of all.
RECOVER_REPEATS = 3
#: Edge margin (s) kept clear of the history's start and end.
MARGIN = 300.0
#: How far (s) an ad-hoc instant may fall from its stratum's midpoint.
JITTER = 2.0
#: In-process ingest rows per benchmark second.
INGEST_ROWS_PER_SECOND = 80


# ----------------------------------------------------------------------
# Operation lists
# ----------------------------------------------------------------------


def adhoc_ops(rng: random.Random, span: tuple[float, float], seconds: int) -> list[Op]:
    """Distinct snapshot and 1-min interval queries, in a fixed interleaving.

    About ``seconds / 2`` snapshots and ``3 * seconds / 10`` intervals per
    pass (odd counts, so each median is one query's latency), each at a
    seeded instant within ``JITTER`` seconds of the midpoint of its
    stratum of the history.  A cold 5-min window costs four 1-min ones;
    the dashboard asks those.
    """
    lo, hi = span[0] + MARGIN, span[1] - MARGIN
    snapshots = [
        ("snapshot", t) for t in jittered(rng, lo, hi, max(3, seconds // 2 | 1), JITTER)
    ]
    intervals = [
        ("interval", end - 60.0, end)
        for end in jittered(rng, lo, hi, max(3, 3 * seconds // 10 | 1), JITTER)
    ]
    # One fixed interleaving for every seed: what a cold query costs
    # depends on which earlier queries of the pass built regions it reuses.
    order = list(range(len(snapshots) + len(intervals)))
    random.Random(0).shuffle(order)
    return [(snapshots + intervals)[i] for i in order]


def dashboard_set(span: tuple[float, float]) -> list[Op]:
    """The dashboard: 5 snapshot instants and 3 interval windows (1, 5, 5 min).

    The instants are the midpoints of equal strata of the history, the
    same for every seed.  Odd counts keep each median inside one query's
    latency cluster rather than in the gap between two.
    """
    lo, hi = span[0] + MARGIN, span[1] - MARGIN
    snapshots = [("snapshot", t) for t in midpoints(lo, hi, 5)]
    intervals = [
        ("interval", end - length, end)
        for end, length in zip(midpoints(lo, hi, 3), (60.0, 300.0, 300.0))
    ]
    return snapshots + intervals


def dashboard_ops(rng: random.Random, queries: list[Op], seconds: int) -> list[Op]:
    """``seconds / 4`` rounds per pass over the dashboard, each in a seeded order."""
    ops: list[Op] = []
    for _ in range(max(2, seconds // 4)):
        round_ = list(queries)
        rng.shuffle(round_)
        ops.extend(round_)
    return ops


def run_op(engine: FlowEngine, op: Op) -> Any:
    if op[0] == "snapshot":
        return engine.snapshot_topk(op[1], K)
    return engine.interval_topk(op[1], op[2], K)


# ----------------------------------------------------------------------
# Phases
# ----------------------------------------------------------------------


@dataclass
class QueryPass:
    """One timed pass over the query list: per-op latencies (normalised
    seconds) and answers."""

    latencies: list[float] = field(default_factory=list)
    answers: list[Any] = field(default_factory=list)
    stats: dict[str, int] = field(default_factory=dict)
    trace: dict[str, Any] = field(default_factory=dict)


def query_pass(engine: FlowEngine, ops: list[Op], tally: Tally, traced: bool) -> QueryPass:
    out = QueryPass()
    before = engine.stats()
    if traced:
        obs.reset()
        obs.enable()
    spans = []
    for op in ops:
        result, span = tally.timed(lambda: run_op(engine, op))
        spans.append(span)
        out.answers.append(None if result is None else answer(result))
    if traced:
        obs.disable()
        out.trace = obs.snapshot_dict()
    out.stats = stats_delta(engine.stats(), before)
    out.latencies = CLOCK.all(spans)
    return out


@dataclass
class IngestPass:
    """One ingest-and-recover pass: per-batch and per-reopen latencies
    (normalised seconds)."""

    latencies: list[float] = field(default_factory=list)
    recover: list[float] = field(default_factory=list)
    trace: dict[str, Any] = field(default_factory=dict)
    recover_trace: dict[str, Any] = field(default_factory=dict)


def _live_engine(ds: Dataset, store: Path) -> LiveFlowEngine:
    return LiveFlowEngine(
        ds.floorplan,
        ds.deployment,
        ds.pois,
        v_max=ds.v_max,
        detection_slack=2.0 * ds.sampling_interval,
        storage=SQLiteBackend(store),
    )


def ingest_pass(
    ds: Dataset, rows: list[Any], store: Path, tally: Tally, traced: bool
) -> IngestPass:
    """Ingest ``rows`` in batches, each ticking a snapshot monitor, then
    reopen the never-checkpointed store as a crash recovery would.

    The writer stays open (a crash leaves no checkpoint behind), and the
    reopened engines are dropped unclosed, because closing checkpoints.
    """
    out = IngestPass()
    engine = _live_engine(ds, store)
    monitor = SnapshotTopKMonitor(engine, k=K)
    tick = rows[0].t_s
    if traced:
        obs.reset()
        obs.enable()
    spans = []
    for i in range(0, len(rows), BATCH_ROWS):
        batch = rows[i : i + BATCH_ROWS]
        tick = max(tick, max(r.t_s for r in batch))
        spans.append(tally.timed(lambda: monitor.tick(tick, batch))[1])
    out.latencies = CLOCK.all(spans)
    ingest_trace = obs.snapshot_dict()
    expected = answer(engine.snapshot_topk(tick, K))
    reopened = []
    settle()
    spans = []
    for i in range(RECOVER_REPEATS):
        obs.reset()
        started = time.perf_counter()
        recovered = _live_engine(ds, store)
        got = answer(recovered.snapshot_topk(tick, K))
        spans.append((started, time.perf_counter()))
        tally.attempted += 1
        tally.check(f"in-process recovery {i}", got, expected)
        reopened.append(recovered)
        if i == 0:
            out.recover_trace = obs.snapshot_dict()
    out.recover = CLOCK.all(spans)
    obs.reset()
    engine.close()  # checkpoints: the flush joins the ingest trace
    obs.disable()
    if traced:
        out.trace = obs.merge_snapshot_dicts([ingest_trace, obs.snapshot_dict()])
    return out


# ----------------------------------------------------------------------
# The workloads
# ----------------------------------------------------------------------


def _set_up(scale: float, setup: list[float], datagen: list[float]) -> Dataset:
    """Build the history and an engine over it, timing both; keep the history."""
    started = time.perf_counter()
    ds = build_synthetic_dataset(history_config(scale))
    built = time.perf_counter()
    ds.engine()
    done = time.perf_counter()
    setup.append(CLOCK.seconds((started, built)) + CLOCK.seconds((built, done)))
    datagen.append(CLOCK.seconds((started, built)))
    return ds


def run(
    name: str, seed: int, seconds: int, scale: float, traced: bool, work: Path
) -> Report:
    """Run ``adhoc_cold`` or ``dashboard_warm`` and report its metrics."""
    tally = Tally()
    setup: list[float] = []
    datagen: list[float] = []
    ds = _set_up(scale, setup, datagen)
    rng = random.Random(seed)
    span = ds.time_span()
    dashboard: list[Op] = []
    if name == "adhoc_cold":
        ops = adhoc_ops(rng, span, seconds)
    else:
        dashboard = dashboard_set(span)
        ops = dashboard_ops(rng, dashboard, seconds)
    rows = time_sorted(ds.ott)[: max(4 * BATCH_ROWS, INGEST_ROWS_PER_SECOND * seconds)]

    def fresh_engine() -> FlowEngine:
        engine = ds.engine()
        for op in dashboard:  # the warm-up pass (empty for adhoc_cold)
            run_op(engine, op)
        return engine

    # Every pass but the first starts with a set-up of its own, so the
    # set-ups are spread over the run like the passes.  Cold passes each
    # need a fresh engine; warm passes leave the caches as they found
    # them, so one warmed engine serves them all.
    engine = fresh_engine()
    queries, ingests = [], []
    for i in range(PASSES):
        if i:
            ds = _set_up(scale, setup, datagen)
            if not dashboard:
                engine = fresh_engine()
        settle()
        queries.append(query_pass(engine, ops, tally, traced=False))
        for j in range(INGEST_REPEATS):
            store = work / f"pass-{i}-{j}.sqlite"
            ingests.append(ingest_pass(ds, rows, store, tally, traced=False))
    rss = peak_rss_mb()

    latency = per_op(ops, [q.latencies for q in queries])
    snapshot = [s for op, s in latency.items() if op[0] == "snapshot"]
    interval = [s for op, s in latency.items() if op[0] == "interval"]
    batches = per_index([p.latencies for p in ingests])
    report = Report(tally=tally)
    report.metrics = {
        "setup_s": median(setup),
        "peak_rss_mb": rss,
        "queries_per_s": len(ops) / sum(latency[op] for op in ops),
        "snapshot_p50_ms": p50_ms(snapshot),
        "interval_p50_ms": p50_ms(interval),
        "ingest_rows_per_s": len(rows) / sum(batches),
        "ingest_p50_ms": p50_ms(batches),
        "recover_s": median([s for p in ingests for s in p.recover]),
    }
    pooled = [(s, op[0]) for q in queries for s, op in zip(q.latencies, ops)]
    report.detail = {
        **tail("snapshot", [s for s, kind in pooled if kind == "snapshot"]),
        **tail("interval", [s for s, kind in pooled if kind == "interval"]),
        **tail("ingest", [s for p in ingests for s in p.latencies]),
        "passes": PASSES,
        "ops_per_pass": len(ops),
        "rows_per_pass": len(rows),
        "ur.builds_per_pass": queries[0].stats["regions_computed"],
        "presence.evals_per_pass": queries[0].stats["presence_evaluations"],
        "datagen.build_s": median(datagen),
        "host.speed_factor": CLOCK.factor(),
    }
    for i, later in enumerate(queries[1:], start=1):
        tally.check(f"{name} pass {i} answers", later.answers, queries[0].answers)
    _check_answers(ds, ops, queries[0].answers, rng, name, tally)

    if traced:
        engine = fresh_engine()
        settle()
        traced_queries = query_pass(engine, ops, tally, traced=True)
        traced_ingest = ingest_pass(ds, rows, work / "traced.sqlite", tally, traced=True)
        tally.check("traced answers", traced_queries.answers, queries[0].answers)
        q_rows = span_rows(traced_queries.trace)
        i_rows = span_rows(traced_ingest.trace)
        r_rows = span_rows(traced_ingest.recover_trace)

        def one_pass(latencies: list[float], kind: str) -> float:
            return p50_ms([s for s, op in zip(latencies, ops) if op[0] == kind])

        report.layers = {
            "datagen.build_s": median(datagen),
            **query_layers(q_rows, traced_queries.trace, traced_queries.stats),
            **ingest_layers(i_rows, traced_ingest.trace),
            **recovery_layers(r_rows, traced_ingest.recover_trace),
            **SERVE_LAYERS_IDLE,
            **overhead(
                {
                    "snapshot_p50_ms": one_pass(traced_queries.latencies, "snapshot"),
                    "interval_p50_ms": one_pass(traced_queries.latencies, "interval"),
                    "ingest_p50_ms": p50_ms(traced_ingest.latencies),
                },
                {
                    "snapshot_p50_ms": median([one_pass(q.latencies, "snapshot") for q in queries]),
                    "interval_p50_ms": median([one_pass(q.latencies, "interval") for q in queries]),
                    "ingest_p50_ms": median([p50_ms(p.latencies) for p in ingests]),
                },
            ),
        }
        report.table = (
            ["-- queries"] + span_table(q_rows)
            + ["-- ingest"] + span_table(i_rows)
            + ["-- recovery"] + span_table(r_rows)
        )
    return report


def _check_answers(
    ds: Dataset,
    ops: list[Op],
    answers: list[Any],
    rng: random.Random,
    name: str,
    tally: Tally,
) -> None:
    """Compare answers with a cache-disabled engine: every dashboard
    query, or a seeded sample of the ad-hoc ones.

    Every repeat of a query must also answer exactly as its first
    occurrence did.
    """
    first: dict[Op, Any] = {}
    for op, got in zip(ops, answers):
        tally.check(f"{name} repeat {op}", got, first.setdefault(op, got))
    reference = ds.engine(region_cache_size=0, presence_cache_size=0)
    distinct = sorted(first)
    if name == "adhoc_cold":
        snapshots = [op for op in distinct if op[0] == "snapshot"]
        intervals = [op for op in distinct if op[0] == "interval"]
        distinct = rng.sample(snapshots, 3) + rng.sample(intervals, 1)
    for op in distinct:
        tally.check(f"{name} {op}", first[op], answer(run_op(reference, op)))

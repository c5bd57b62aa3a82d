"""The served workload: ``serve_ingest``.

``python -m repro.serve --storage <sqlite>`` runs as its own process with
venue flags matching the history's generator config.  One load process
drives it over two connections:

1. the time-ordered record stream in 25-row batches, closed loop, each
   batch ticking one standing snapshot monitor to the stream's time;
2. snapshot top-k queries at the stream's current time, open loop at a
   fixed rate, each timed from when it was due.

After the stream, the query connection asks a few short interval
queries (closed loop) over its last minutes; then the server is
SIGKILLed and restarted on its store ``RECOVER_REPEATS`` times, each
recovery timed up to the first bit-identical answer.  The whole scenario
runs ``PASSES`` times, each on a fresh server and store, and every
latency is the median of its passes, in host-normalised seconds (see
``common.HostClock``).  The server inherits the load process's CPU, so
the clock's sampler runs where the server does.

Snapshot monitors are used because a sliding-interval monitor ticked
under live ingest rebuilds its regions every tick (~1 s here) and would
hold the single-writer actor, making every latency bimodal.
"""

from __future__ import annotations

import contextlib
import os
import random
import re
import select
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from statistics import mean
from pathlib import Path
from typing import Any, Callable

from repro.core.queries import IntervalTopKQuery, SnapshotTopKQuery
from repro.datagen.config import SyntheticConfig
from repro.serve import client as client_module
from repro.serve.client import ServeClient
from repro.serve.scenario import build_engine, build_venue, record_stream
from repro.serve.wire import QuerySpec

from .common import (
    BATCH_ROWS,
    CLOCK,
    K,
    Report,
    Tally,
    answer,
    counter,
    history_config,
    ingest_layers,
    jittered,
    leaf_ms,
    median,
    overhead,
    p50_ms,
    peak_rss_mb,
    per_index,
    query_layers,
    recovery_layers,
    span_rows,
    span_table,
    stats_delta,
    tail,
    time_sorted,
)

#: Passes; each generates the stream and boots a server (``setup_s`` is
#: the median of these set-ups), then runs the scenario once.
PASSES = 5
#: Open-loop snapshot query rate on the query connection (1/s).
QUERY_RATE = 20.0
#: Stream rows per benchmark second, and the nominal served ingest rate
#: (in normalised seconds, with server and load on one CPU) that sizes the
#: query schedule to about three quarters of the stream.
ROWS_PER_SECOND = 100
NOMINAL_ROWS_PER_S = 3000.0
#: Post-stream interval queries (20-s windows); odd, so the median is
#: one query's latency.
INTERVAL_QUERIES = 7
INTERVAL_WINDOW = 20.0
#: The intervals end within this many seconds of the stream's end: a
#: dashboard asks about the last minutes, and windows there cost alike,
#: where windows spread over the history differ by half in cost.
RECENT_SECONDS = 300.0
#: How far (s) an interval's end may fall from its stratum's midpoint.
JITTER = 2.0
#: SIGKILL-and-restart recoveries per pass; ``recover_s`` is the median of all.
RECOVER_REPEATS = 3
#: How long a server may take to print its port line.
BOOT_TIMEOUT = 60.0

PORT_LINE = re.compile(r"repro\.serve listening on http://[\d.]+:(\d+)")


def venue_flags(config: SyntheticConfig) -> list[str]:
    """Server flags deriving the same venue the generator walks."""
    return [
        "--rooms", str(config.rooms_per_side),
        "--poi-count", str(config.poi_count),
        "--seed", str(config.seed),
        "--detection-range", str(config.detection_range),
        "--hallway-spacing", str(config.hallway_spacing),
        "--v-max", str(config.speed),
    ]


class Server:
    """One ``python -m repro.serve`` process over a store."""

    def __init__(
        self,
        root: Path,
        store: Path,
        config: SyntheticConfig,
        traced: bool,
        fleet: list["Server"],
    ) -> None:
        fleet.append(self)  # the caller kills every server it started
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        env.pop("REPRO_OBS", None)
        if traced:
            env["REPRO_OBS"] = "1"
        self._log = open(store.with_suffix(".log"), "a", encoding="utf-8")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.serve",
                "--port", "0",
                "--storage", str(store),
                *venue_flags(config),
            ],
            cwd=root,
            env=env,
            stdout=subprocess.PIPE,
            stderr=self._log,
            text=True,
        )
        try:
            port = self._await_port()
            self.client = ServeClient(f"http://127.0.0.1:{port}", timeout=60.0)
            self.client.health()
        except BaseException:
            self.kill()
            raise

    def _await_port(self) -> int:
        assert self.proc.stdout is not None
        deadline = time.monotonic() + BOOT_TIMEOUT
        while True:
            remaining = deadline - time.monotonic()
            ready, _, _ = select.select([self.proc.stdout], [], [], max(remaining, 0))
            if not ready:
                raise RuntimeError("server did not print its port line in time")
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError(f"server exited with {self.proc.wait()}")
            match = PORT_LINE.search(line)
            if match:
                return int(match.group(1))

    def kill(self) -> None:
        """SIGKILL: no drain, no checkpoint."""
        if self.proc.poll() is None:
            self.proc.kill()
        self._reap()

    def stop(self) -> None:
        """SIGTERM: drain and checkpoint, then exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
        self._reap()

    def _reap(self) -> None:
        self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()


class WireTimer:
    """Times the client's wire encode/decode calls while installed.

    The client module resolves its codecs through module globals, so
    swapping in timed wrappers measures them without touching the
    package.  ``list.append`` is atomic, so both load threads can record.
    """

    NAMES = ("dumps", "loads", "encode_query", "encode_record", "decode_result")

    def __init__(self) -> None:
        self.seconds: list[float] = []
        self._saved: dict[str, Callable[..., Any]] = {}

    def _wrap(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        def timed(*args: Any, **kwargs: Any) -> Any:
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds.append(time.perf_counter() - started)

        return timed

    def __enter__(self) -> "WireTimer":
        for name in self.NAMES:
            self._saved[name] = getattr(client_module, name)
            setattr(client_module, name, self._wrap(self._saved[name]))
        return self

    def __exit__(self, *exc: object) -> None:
        for name, fn in self._saved.items():
            setattr(client_module, name, fn)


@dataclass
class ServePass:
    """One pass over the served scenario: per-operation latencies
    (normalised seconds; ``late`` in wall seconds)."""

    ingest: list[float] = field(default_factory=list)
    snapshot: list[float] = field(default_factory=list)  # from when due
    snapshot_sent: list[float] = field(default_factory=list)  # from sending
    interval: list[float] = field(default_factory=list)
    late: list[float] = field(default_factory=list)
    recover: list[float] = field(default_factory=list)
    rss_mb: float = 0.0
    final: dict[str, Any] = field(default_factory=dict)
    metrics_before: dict[str, Any] = field(default_factory=dict)
    metrics_after: dict[str, Any] = field(default_factory=dict)
    metrics_recovery: dict[str, Any] = field(default_factory=dict)
    metrics_checkpoint: dict[str, Any] = field(default_factory=dict)
    wire_s: float = 0.0


def _snapshot(t: float) -> QuerySpec:
    return QuerySpec(query=SnapshotTopKQuery(t=t, k=K))


def _interval(end: float) -> QuerySpec:
    return QuerySpec(query=IntervalTopKQuery(t_start=end - INTERVAL_WINDOW, t_end=end, k=K))


def serve_pass(
    root: Path,
    store: Path,
    server: Server,
    config: SyntheticConfig,
    rows: list[Any],
    ends: list[float],
    tally: Tally,
    traced: bool,
    fleet: list[Server],
) -> ServePass:
    """Stream and query, then kill ``server`` and recover it on ``store``."""
    out = ServePass()
    n_queries = max(3, round(0.75 * len(rows) / NOMINAL_ROWS_PER_S * QUERY_RATE))
    batches = [rows[i : i + BATCH_ROWS] for i in range(0, len(rows), BATCH_ROWS)]
    monitor_id = server.client.create_monitor("snapshot", k=K)
    if traced:
        out.metrics_before = server.client.metrics()
    now = {"tick": rows[0].t_s}
    ingest_tally = Tally()
    ingest, snapshot, snapshot_sent, interval = [], [], [], []

    def stream() -> None:
        for batch in batches:
            tick = max(now["tick"], max(r.t_s for r in batch))
            outcome, span = ingest_tally.timed(
                lambda: server.client.ingest(records=batch, tick_t=tick)
            )
            ingest.append(span)
            if outcome is not None:
                ingest_tally.check("ingested count", outcome["ingested"], len(batch))
            now["tick"] = tick

    wire = WireTimer()
    with wire if traced else contextlib.nullcontext():
        writer = threading.Thread(target=stream, name="perfbench-ingest")
        started = time.perf_counter()
        writer.start()
        try:
            for i in range(n_queries):
                due = started + i / QUERY_RATE
                wait = due - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                out.late.append(time.perf_counter() - due)
                spec = _snapshot(now["tick"])
                _, span = tally.timed(lambda: server.client.query(spec))
                snapshot_sent.append(span)
                snapshot.append((due, span[1]))
        finally:
            writer.join(timeout=170.0)
        if writer.is_alive():
            raise RuntimeError("ingest stream did not finish")
        tally.absorb(ingest_tally)
        interval_answers = []
        for end in ends:
            result, span = tally.timed(lambda: server.client.query(_interval(end)))
            interval.append(span)
            interval_answers.append(None if result is None else answer(result))
    out.wire_s = sum(wire.seconds)
    out.ingest = CLOCK.all(ingest)
    out.snapshot = CLOCK.all(snapshot)
    out.snapshot_sent = CLOCK.all(snapshot_sent)
    out.interval = CLOCK.all(interval)

    final_t = now["tick"]
    out.final = {
        "t": final_t,
        "snapshot": answer(server.client.query(_snapshot(final_t))),
        "intervals": interval_answers,
    }
    tally.check("served generation", server.client.health()["generation"], len(rows))
    tally.check("monitor ticks", server.client.monitor(monitor_id)["updates_published"], len(batches))
    if traced:
        out.metrics_after = server.client.metrics()
    out.rss_mb = peak_rss_mb(server.proc.pid)

    recoveries = []
    for i in range(RECOVER_REPEATS):
        server.kill()
        started = time.perf_counter()
        server = Server(root, store, config, traced, fleet)
        got = answer(server.client.query(_snapshot(final_t)))
        recoveries.append((started, time.perf_counter()))
        tally.attempted += 1
        tally.check(f"recovered snapshot {i}", got, out.final["snapshot"])
        tally.check(
            f"recovered generation {i}", server.client.health()["generation"], len(rows)
        )
        if i == 0:  # a cold interval costs as much as a recovery: check one
            if traced:
                out.metrics_recovery = server.client.metrics()
            tally.check(
                "recovered interval",
                answer(server.client.query(_interval(ends[0]))),
                interval_answers[0],
            )
    out.recover = CLOCK.all(recoveries)
    if traced:
        server.client.checkpoint()
        out.metrics_checkpoint = server.client.metrics()
    server.kill()
    return out


def _reference(
    config: SyntheticConfig, rows: list[Any], final_t: float, ends: list[float]
) -> dict[str, Any]:
    """The same rows fed in-process to a ``LiveFlowEngine``: its answers."""
    engine = build_engine(build_venue(config))
    for i in range(0, len(rows), BATCH_ROWS):
        engine.ingest(rows[i : i + BATCH_ROWS])
    return {
        "t": final_t,
        "snapshot": answer(engine.snapshot_topk(final_t, K)),
        "intervals": [
            answer(engine.interval_topk(end - INTERVAL_WINDOW, end, K)) for end in ends
        ],
    }


def run(
    seed: int, seconds: int, scale: float, traced: bool, root: Path, work: Path
) -> Report:
    """Run ``serve_ingest`` and report its metrics."""
    fleet: list[Server] = []
    try:
        return _run(seed, seconds, scale, traced, root, work, fleet)
    finally:
        for server in fleet:
            server.kill()


def _run(
    seed: int,
    seconds: int,
    scale: float,
    traced: bool,
    root: Path,
    work: Path,
    fleet: list[Server],
) -> Report:
    tally = Tally()
    config = history_config(scale)
    n_rows = max(8 * BATCH_ROWS, ROWS_PER_SECOND * seconds)
    passes: list[ServePass] = []
    setup, datagen = [], []
    for i in range(PASSES):
        started = time.perf_counter()
        rows = time_sorted(record_stream(config))[:n_rows]
        built = time.perf_counter()
        store = work / f"pass-{i}.sqlite"
        server = Server(root, store, config, False, fleet)
        booted = time.perf_counter()
        datagen.append(CLOCK.seconds((started, built)))
        setup.append(datagen[-1] + CLOCK.seconds((built, booted)))
        if i == 0:
            final_t = max(r.t_s for r in rows)
            ends = jittered(
                random.Random(seed),
                final_t - RECENT_SECONDS,
                final_t,
                INTERVAL_QUERIES,
                JITTER,
            )
        passes.append(serve_pass(root, store, server, config, rows, ends, tally, False, fleet))

    reference = _reference(config, rows, final_t, ends)
    for i, done in enumerate(passes):
        tally.check(f"pass {i} answers vs in-process", done.final, reference)

    ingest = per_index([p.ingest for p in passes])
    snapshot = per_index([p.snapshot for p in passes])
    snapshot_sent = per_index([p.snapshot_sent for p in passes])
    interval = per_index([p.interval for p in passes])
    report = Report(tally=tally)
    report.metrics = {
        "setup_s": median(setup),
        "peak_rss_mb": median([p.rss_mb for p in passes]),
        "queries_per_s": (len(snapshot) + len(interval)) / (sum(snapshot_sent) + sum(interval)),
        "snapshot_p50_ms": p50_ms(snapshot),
        "interval_p50_ms": p50_ms(interval),
        "ingest_rows_per_s": len(rows) / sum(ingest),
        "ingest_p50_ms": p50_ms(ingest),
        "recover_s": median([s for p in passes for s in p.recover]),
    }
    report.detail = {
        **tail("snapshot", [s for p in passes for s in p.snapshot]),
        **tail("interval", [s for p in passes for s in p.interval]),
        **tail("ingest", [s for p in passes for s in p.ingest]),
        "rows": len(rows),
        "datagen.build_s": median(datagen),
        "host.speed_factor": CLOCK.factor(),
    }
    if not traced:
        return report

    store = work / "traced.sqlite"
    server = Server(root, store, config, True, fleet)
    traced_tally = Tally()
    done = serve_pass(root, store, server, config, rows, ends, traced_tally, True, fleet)
    traced_tally.check("traced pass answers vs in-process", done.final, reference)
    tally.absorb(traced_tally)
    before, after = done.metrics_before, done.metrics_after
    obs_after = after["obs"]
    rows_after = span_rows(obs_after)
    rows_recovery = span_rows(done.metrics_recovery["obs"])
    rows_flush = span_rows(done.metrics_checkpoint["obs"])

    def root_ms(name: str) -> float:
        return sum(total for path, _, total in rows_after if path == (name,)) * 1e3

    snapshot_queries = sum(
        count for path, count, _ in rows_after if path == ("query.snapshot.join",)
    )
    report.layers = {
        "datagen.build_s": median(datagen),
        **query_layers(rows_after, obs_after, stats_delta(after["engine"], before["engine"])),
        **ingest_layers(rows_after, obs_after),
        "storage.flush_ms": leaf_ms(rows_flush, "storage.flush"),
        **recovery_layers(rows_recovery, done.metrics_recovery["obs"]),
        "serve.requests": counter(obs_after, "serve.requests"),
        "serve.requests_failed": traced_tally.errors,
        "serve.wire_ms": done.wire_s * 1e3,
        "serve.overhead_ms": (
            mean(done.snapshot_sent) * 1e3
            - root_ms("query.snapshot.join") / max(1, snapshot_queries)
        ),
        "serve.ingest_overhead_ms": (
            mean(done.ingest) * 1e3
            - (root_ms("ingest.batch") + root_ms("monitor.tick")) / len(done.ingest)
        ),
        "serve.generator_late_ms": median(done.late) * 1e3,
        **overhead(
            {
                "snapshot_p50_ms": p50_ms(done.snapshot),
                "interval_p50_ms": p50_ms(done.interval),
                "ingest_p50_ms": p50_ms(done.ingest),
            },
            {
                "snapshot_p50_ms": median([p50_ms(p.snapshot) for p in passes]),
                "interval_p50_ms": median([p50_ms(p.interval) for p in passes]),
                "ingest_p50_ms": median([p50_ms(p.ingest) for p in passes]),
            },
        ),
    }
    report.table = (
        ["-- stream and queries (server)"] + span_table(rows_after)
        + ["-- recovery (server)"] + span_table(rows_recovery)
    )
    return report

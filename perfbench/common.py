"""Shared pieces of the benchmark: the fixed history, timers, statistics,
host probe, memory high-water marks and the trace readers.

Everything here is deterministic in its inputs except the clocks: the
history, every operation list and every sample index come from
``random.Random(seed)`` and constants, so two runs with one seed do the
same work and the per-layer counts repeat exactly.

Gated times are host-normalised: :class:`HostClock` has a sampler
process run a fixed reference kernel every 15 ms or so on the one CPU the
run is pinned to, and scales each wall-clock span by how fast the kernel
ran during it.  The CPUs of the host this benchmark was built on change
speed by up to 1.8x from second to second, each on its own: medians of
two-second blocks of warm queries spread by 43 % raw and by 4 %
normalised.
"""

from __future__ import annotations

import bisect
import gc
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.datagen.config import SyntheticConfig

from .sampler import RECORD

#: Result size of every top-k query.
K = 10

#: Records per ingest batch (in-process and served).
BATCH_ROWS = 25

#: The fixed synthetic history: the paper's office venue and defaults at
#: scale 0.1 (100 objects, one hour, 13,144 records).  It is fixed rather
#: than seeded so that runs with different seeds differ only in which
#: queries they ask, not in how much data each query touches.
HISTORY_OBJECTS = 100

#: Per-layer metrics of the HTTP layer, zero where no server runs.
SERVE_LAYERS_IDLE = {
    "serve.requests": 0.0,
    "serve.requests_failed": 0.0,
    "serve.wire_ms": 0.0,
    "serve.overhead_ms": 0.0,
    "serve.ingest_overhead_ms": 0.0,
    "serve.generator_late_ms": 0.0,
}


def history_config(scale: float) -> SyntheticConfig:
    """The history's generator config; ``scale`` shrinks it for tests."""
    return SyntheticConfig(num_objects=max(2, round(HISTORY_OBJECTS * scale)))


def time_sorted(records: Iterable[Any]) -> list[Any]:
    """Records in arrival order: by start time, ties by record id."""
    return sorted(records, key=lambda r: (r.t_s, r.record_id))


def jittered(rng: random.Random, lo: float, hi: float, n: int, jitter: float) -> list[float]:
    """``n`` instants, each within ``jitter`` of the midpoint of its own
    equal stratum of ``[lo, hi)``.

    Seeds then ask different instants (no two share a cache key) with
    the same cost mix: how much a query costs depends on where in the
    history it falls, and a free draw per stratum varies that by tens of
    percent from seed to seed.
    """
    return [t + rng.uniform(-jitter, jitter) for t in midpoints(lo, hi, n)]


def midpoints(lo: float, hi: float, n: int) -> list[float]:
    """The midpoints of ``n`` equal strata of ``[lo, hi)``."""
    width = (hi - lo) / n
    return [lo + (i + 0.5) * width for i in range(n)]


def settle() -> None:
    """Collect set-up garbage and freeze what survives, so the timed
    section's collections do not rescan it."""
    gc.unfreeze()
    gc.collect()
    gc.freeze()


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def p90(values: Sequence[float]) -> float:
    """Nearest-rank 90th percentile (a tail; reported, never gated)."""
    ordered = sorted(values)
    return float(ordered[max(0, -(-9 * len(ordered) // 10) - 1)])


def p50_ms(seconds: Sequence[float]) -> float:
    return median(seconds) * 1e3


def per_index(passes: Sequence[Sequence[float]]) -> list[float]:
    """Per-operation median over passes that repeat one operation list."""
    return [median(column) for column in zip(*passes)]


def per_op(ops: Sequence[Any], passes: Sequence[Sequence[float]]) -> dict[Any, float]:
    """Each distinct operation's median latency over all its executions.

    ``passes`` hold one latency per entry of ``ops``; an operation that
    repeats within a pass (a dashboard query) pools every repeat of every
    pass, so its samples span the whole run.
    """
    pooled: dict[Any, list[float]] = {}
    for latencies in passes:
        for op, seconds in zip(ops, latencies):
            pooled.setdefault(op, []).append(seconds)
    return {op: median(samples) for op, samples in pooled.items()}


def tail(name: str, seconds: Sequence[float]) -> dict[str, float]:
    """``<name>_p90_ms`` over every sample of every pass, and the count."""
    return {f"{name}_p90_ms": p90(seconds) * 1e3, f"{name}_samples": len(seconds)}


#: A timed section: its ``time.perf_counter()`` start and end.
Span = tuple[float, float]

#: The reference kernel's CPU time (s) on the host that normalised
#: seconds stand for; the kernel takes about this long on a quiet CPU of
#: the 2-vCPU Xeon VM the benchmark was tuned on.
REFERENCE_S = 0.001
#: How long (s) a span's end may wait for the sampler's next sample.
SAMPLE_TIMEOUT = 5.0


class HostClock:
    """Turns wall-clock spans into reference seconds.

    A sampler process (``sampler.py``) on the run's CPU times its
    reference kernel every 15 ms or so while the workload runs, in CPU
    time, so the share of the CPU the workload takes does not count.  A
    span's normalised length is its wall time, less the CPU time the
    sampler took within it (the two share one CPU), times ``REFERENCE_S``
    over the median kernel time of the samples taken within it and the
    nearest one on each side: what the span would have taken on a CPU
    running the kernel in ``REFERENCE_S``, with no sampler beside it.
    Threads may share one clock.
    """

    def __init__(self) -> None:
        self._proc: subprocess.Popen[bytes] | None = None
        self._path: Path | None = None
        self._offset = 0
        self._times: list[float] = []
        self._cpu: list[float] = []

    def start(self, work: Path) -> None:
        """Start the sampler, writing under ``work``; wait for its first sample."""
        self._path = work / "host-speed.bin"
        self._path.touch()
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("sampler.py")), str(self._path)]
        )
        self._sampled_after(time.perf_counter())

    def stop(self) -> None:
        if self._proc is not None:
            self._proc.kill()
            self._proc.wait()
            self._proc = None

    def _load(self) -> None:
        assert self._path is not None, "HostClock.start() was not called"
        with open(self._path, "rb") as samples:
            samples.seek(self._offset)
            data = samples.read()
        whole = len(data) - len(data) % RECORD.size
        for t, cpu in RECORD.iter_unpack(data[:whole]):
            self._times.append(t)
            self._cpu.append(cpu)
        self._offset += whole

    def _sampled_after(self, t: float) -> None:
        """Wait until the sampler has a sample taken after ``t``."""
        deadline = time.perf_counter() + SAMPLE_TIMEOUT
        self._load()
        while not self._times or self._times[-1] <= t:
            if self._proc is None or self._proc.poll() is not None:
                raise RuntimeError("the host-speed sampler is not running")
            if time.perf_counter() > deadline:
                raise RuntimeError("the host-speed sampler fell silent")
            time.sleep(0.005)
            self._load()

    def speed(self, span: Span) -> float:
        """The median kernel time (s) around ``span``."""
        self._sampled_after(span[1])
        lo = max(0, bisect.bisect_right(self._times, span[0]) - 1)
        hi = bisect.bisect_left(self._times, span[1]) + 1
        return median(self._cpu[lo:hi])

    def _sampler_cpu(self, span: Span) -> float:
        """CPU time (s) the sampler's kernels took within ``span``; a kernel
        that ended at ``t`` after ``cpu`` seconds is taken to have run over
        ``[t - cpu, t]``."""
        start, end = span
        first = bisect.bisect_right(self._times, start)
        taken = 0.0
        for t, cpu in zip(self._times[first:], self._cpu[first:]):
            if t - cpu >= end:
                break
            taken += min(t, end) - max(t - cpu, start)
        return taken

    def seconds(self, span: Span) -> float:
        """``span``'s length in reference seconds (``inf`` if it failed)."""
        start, end = span
        if end == float("inf"):
            return end
        speed = self.speed(span)
        return (end - start - self._sampler_cpu(span)) * REFERENCE_S / speed

    def all(self, spans: Iterable[Span]) -> list[float]:
        return [self.seconds(span) for span in spans]

    def factor(self) -> float:
        """The run's median kernel time over ``REFERENCE_S`` (host slowness)."""
        self._load()
        return median(self._cpu) / REFERENCE_S


#: The run's clock; every timed section of every workload reads it.
CLOCK = HostClock()


@dataclass
class Tally:
    """Operations attempted, and every failure or wrong answer."""

    attempted: int = 0
    #: Operations that raised (each also has an entry in ``mismatches``).
    errors: int = 0
    #: One entry per failed operation and per wrong answer.
    mismatches: list[str] = field(default_factory=list)

    def check(self, what: str, got: Any, expected: Any) -> bool:
        """Record a wrong answer when ``got`` differs from ``expected``."""
        if got == expected:
            return True
        self.mismatches.append(what)
        return False

    def timed(self, call: Callable[[], Any]) -> tuple[Any, Span]:
        """Run one operation; returns its result (``None`` if it raised,
        which counts as a failure) and its wall-clock span."""
        self.attempted += 1
        started = time.perf_counter()
        try:
            result = call()
        except Exception as error:  # noqa: BLE001 - counted and reported
            self.errors += 1
            self.mismatches.append(f"{type(error).__name__}: {error}")
            return None, (started, float("inf"))
        return result, (started, time.perf_counter())

    def absorb(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.errors += other.errors
        self.mismatches.extend(other.mismatches)


@dataclass
class Report:
    """What one workload run measured.

    ``metrics`` holds the gated end-to-end values (always from untraced
    passes), ``layers`` the per-layer values of the traced pass, ``detail``
    tails, sample counts and host provenance, and ``table`` the traced
    per-layer span table.
    """

    tally: Tally
    metrics: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    detail: dict[str, Any] = field(default_factory=dict)
    table: list[str] = field(default_factory=list)


def overhead(traced: Mapping[str, float], untraced: Mapping[str, float]) -> dict[str, float]:
    """Tracing overhead: traced minus untraced, per end-to-end metric."""
    return {f"trace.overhead_{name}": traced[name] - untraced[name] for name in traced}


def answer(result: Any) -> tuple[list[str], list[float]]:
    """The bits a correct top-k answer must reproduce."""
    return result.poi_ids, result.flows


def host_probe() -> dict[str, Any]:
    """A fixed pure-Python plus NumPy kernel, timed before each workload.

    It only records how fast the host ran: nothing is normalised by it.
    """
    matrix = np.random.default_rng(0).random((160, 160))
    runs = []
    for _ in range(5):
        started = time.perf_counter()
        table: dict[int, int] = {}
        for i in range(60_000):
            table[i % 977] = table.get(i % 977, 0) + i * i
        for _ in range(6):
            matrix = np.tanh(matrix @ matrix.T / 160.0)
        runs.append(time.perf_counter() - started)
    return {
        "host.calib_ms": median(runs) * 1e3,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


def peak_rss_mb(pid: int | str = "self") -> float:
    """The process's resident-set high-water mark (``VmHWM``) in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


# ----------------------------------------------------------------------
# Trace readers: repro.obs snapshots (in-process or from GET /metrics)
# ----------------------------------------------------------------------


def span_rows(snapshot: Mapping[str, Any]) -> list[tuple[tuple[str, ...], int, float]]:
    """``(path, count, total_seconds)`` per span path of an obs snapshot."""
    return [
        (tuple(row["path"]), int(row["count"]), float(row["total_seconds"]))
        for row in snapshot["spans"]
    ]


def counter(snapshot: Mapping[str, Any], name: str) -> float:
    """A counter's value, 0 when the workload never touched it."""
    metric = snapshot["metrics"].get(name)
    return float(metric["value"]) if metric else 0.0


def _matches(name: str, leaf: str) -> bool:
    return name == leaf or (leaf.endswith(".") and name.startswith(leaf))


def leaf_ms(rows: Sequence[tuple[tuple[str, ...], int, float]], leaf: str) -> float:
    """Total ms of every span whose own name is ``leaf`` (or starts with
    it, when ``leaf`` ends in a dot), summed over its parents."""
    return sum(total for path, _, total in rows if _matches(path[-1], leaf)) * 1e3


def leaf_count(rows: Sequence[tuple[tuple[str, ...], int, float]], leaf: str) -> int:
    return sum(count for path, count, _ in rows if _matches(path[-1], leaf))


def self_ms(rows: Sequence[tuple[tuple[str, ...], int, float]], leaf: str) -> float:
    """Total ms of the ``leaf`` spans minus the time of their direct children."""
    totals = {path: total for path, _, total in rows}
    own = 0.0
    for path, _, total in rows:
        if _matches(path[-1], leaf):
            children = sum(
                t for p, t in totals.items() if len(p) == len(path) + 1 and p[:-1] == path
            )
            own += total - children
    return own * 1e3


def span_table(rows: Sequence[tuple[tuple[str, ...], int, float]]) -> list[str]:
    """The per-layer table: count, total and self ms per span path."""
    totals = {path: total for path, _, total in rows}
    lines = [f"{'span path':<64} {'count':>8} {'total_ms':>11} {'self_ms':>11}"]
    for path, count, total in rows:
        children = sum(
            t for p, t in totals.items() if len(p) == len(path) + 1 and p[:-1] == path
        )
        label = "  " * (len(path) - 1) + path[-1]
        lines.append(
            f"{label:<64} {count:>8} {total * 1e3:>11.2f} {(total - children) * 1e3:>11.2f}"
        )
    return lines


def query_layers(
    rows: Sequence[tuple[tuple[str, ...], int, float]],
    snapshot: Mapping[str, Any],
    stats_delta: Mapping[str, int],
) -> dict[str, float]:
    """The query-path per-layer metrics shared by every workload."""
    region_lookups = stats_delta["regions_computed"] + stats_delta["region_cache_hits"]
    presence_lookups = (
        stats_delta["presence_evaluations"] + stats_delta["presence_cache_hits"]
    )
    return {
        "ur.builds": stats_delta["regions_computed"],
        "ur.build_ms": leaf_ms(rows, "ur.build."),
        "ctx.region_hit_ratio": (
            stats_delta["region_cache_hits"] / region_lookups if region_lookups else 0.0
        ),
        "presence.evals": stats_delta["presence_evaluations"],
        "presence.quadrature_ms": leaf_ms(rows, "presence.quadrature"),
        "ctx.presence_hit_ratio": (
            stats_delta["presence_cache_hits"] / presence_lookups
            if presence_lookups
            else 0.0
        ),
        "join.heap_pops": counter(snapshot, "join.heap_pops"),
        "join.bound_refine_ms": leaf_ms(rows, "join.bound_refine"),
        "join.build_ri_ms": leaf_ms(rows, "join.build_ri"),
        "candidates_ms": leaf_ms(rows, "candidates."),
        "query.self_ms": self_ms(rows, "query."),
        "artree.queries": counter(snapshot, "artree.queries"),
        "artree.delta_probes": counter(snapshot, "artree.delta_probes"),
    }


def ingest_layers(
    rows: Sequence[tuple[tuple[str, ...], int, float]], snapshot: Mapping[str, Any]
) -> dict[str, float]:
    """The ingest, monitor and storage per-layer metrics."""
    return {
        "monitor.ticks": counter(snapshot, "monitor.ticks"),
        "monitor.tick_ms": leaf_ms(rows, "monitor.tick"),
        "ingest.batch_ms": leaf_ms(rows, "ingest.batch"),
        "engine.ingest.records": counter(snapshot, "engine.ingest.records"),
        "storage.append_ms": leaf_ms(rows, "storage.append"),
        "storage.rows_appended": counter(snapshot, "storage.rows_appended"),
        "storage.flush_ms": leaf_ms(rows, "storage.flush"),
    }


def recovery_layers(
    rows: Sequence[tuple[tuple[str, ...], int, float]], snapshot: Mapping[str, Any]
) -> dict[str, float]:
    """Per-layer metrics of one recovery (WAL tail read and replay)."""
    return {
        "storage.replay_ms": leaf_ms(rows, "storage.replay"),
        "storage.wal_replays": counter(snapshot, "storage.wal_replays"),
    }


def stats_delta(after: Mapping[str, int], before: Mapping[str, int]) -> dict[str, int]:
    return {key: after[key] - before.get(key, 0) for key in after}

"""Benchmark harness: datasets, timing and series collection.

The paper's evaluation (Section 5) reports query running time against one
varied parameter per figure, with all other parameters at their defaults
(Table 4).  :class:`BenchContext` provides exactly that: lazily built,
cached datasets/engines per parameter setting, and a timing helper that
reports the median of repeated runs.

The paper's algorithms keep nothing between queries, so figure and
ablation timings (:meth:`BenchContext.time_ms` /
:meth:`BenchContext.compare_methods`) start every repeat on empty
region, window and presence memos: ``engine.ctx.clear_caches()`` runs
before each repeat, outside the timed span.  What stays warm between
repeats is per-engine state the paper builds once per dataset: the
estimator's per-POI sample grids and the engine's POI subset trees
(besides the AR-tree and POI R-tree themselves).  The cache-study
helpers (:meth:`BenchContext.collect_stats` /
:meth:`BenchContext.timed_stats`) time warm repeats on purpose.

Populations are scaled by ``scale`` (default 0.1, i.e. ``|O|`` = 100
against the paper's 1000): this Python substrate is not the authors' Java
testbed, and the figures' *shapes* — which algorithm wins, how cost moves
with each parameter — are preserved at smaller populations while keeping
the full suite laptop-sized.  Run with ``--scale 1.0`` to match the
paper's populations exactly.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field, replace
from typing import Callable

from ..core.engine import FlowEngine
from ..datagen import (
    CphConfig,
    Dataset,
    SyntheticConfig,
    build_cph_dataset,
    build_synthetic_dataset,
)

__all__ = ["BenchContext", "SeriesPoint", "FigureResult"]


@dataclass(frozen=True)
class SeriesPoint:
    """One x-position of a figure: the varied value and both timings."""

    param: float | int
    iterative_ms: float
    join_ms: float

    @property
    def speedup(self) -> float:
        """Iterative time over join time (>1 means the join wins)."""
        if self.join_ms <= 0.0:
            return float("inf")
        return self.iterative_ms / self.join_ms


@dataclass(frozen=True)
class FigureResult:
    """A reproduced figure: its series plus provenance."""

    figure_id: str
    title: str
    param_name: str
    points: tuple[SeriesPoint, ...]
    scale: float

    def as_rows(self) -> list[tuple]:
        return [
            (p.param, round(p.iterative_ms, 2), round(p.join_ms, 2))
            for p in self.points
        ]


class BenchContext:
    """Cached datasets/engines plus timing for one benchmarking session."""

    def __init__(
        self,
        scale: float = 0.1,
        repeats: int = 3,
        synthetic_base: SyntheticConfig | None = None,
        cph_base: CphConfig | None = None,
        default_k: int = 10,
        default_poi_percent: float = 60.0,
        default_window_minutes: float = 10.0,
    ):
        if scale <= 0:
            raise ValueError("scale must be positive")
        if repeats < 1:
            raise ValueError("repeats must be positive")
        self.scale = scale
        self.repeats = repeats
        self.synthetic_base = (
            synthetic_base if synthetic_base is not None else SyntheticConfig()
        )
        self.cph_base = cph_base if cph_base is not None else CphConfig()
        self.default_k = default_k
        self.default_poi_percent = default_poi_percent
        self.default_window_minutes = default_window_minutes
        self._datasets: dict[tuple, Dataset] = {}
        self._engines: dict[tuple, FlowEngine] = {}

    # ------------------------------------------------------------------
    # Datasets and engines (cached)
    # ------------------------------------------------------------------

    def synthetic(
        self,
        detection_range: float | None = None,
        num_objects: int | None = None,
    ) -> tuple[Dataset, FlowEngine]:
        """The synthetic workload at the context's scale."""
        config = self.synthetic_base.scaled(self.scale)
        if detection_range is not None:
            config = replace(config, detection_range=detection_range)
        if num_objects is not None:
            config = replace(
                config, num_objects=max(1, round(num_objects * self.scale))
            )
        key = ("synthetic", config.detection_range, config.num_objects)
        return self._get(key, lambda: build_synthetic_dataset(config))

    def cph(self) -> tuple[Dataset, FlowEngine]:
        """The simulated CPH workload at the context's scale."""
        config = self.cph_base.scaled(self.scale * 10.0)
        key = ("cph", config.num_passengers)
        return self._get(key, lambda: build_cph_dataset(config))

    def _get(
        self, key: tuple, builder: Callable[[], Dataset]
    ) -> tuple[Dataset, FlowEngine]:
        dataset = self._datasets.get(key)
        if dataset is None:
            dataset = builder()
            self._datasets[key] = dataset
        engine = self._engines.get(key)
        if engine is None:
            engine = dataset.engine()
            self._engines[key] = engine
        return dataset, engine

    # ------------------------------------------------------------------
    # Timing
    # ------------------------------------------------------------------

    def _median_ms(
        self,
        run: Callable[[], object],
        before: Callable[[], object] | None = None,
    ) -> float:
        """Median wall-clock milliseconds over ``repeats`` runs of ``run``,
        calling ``before`` (untimed) ahead of each one."""
        samples = []
        for _ in range(self.repeats):
            if before is not None:
                before()
            started = time.perf_counter()
            run()
            samples.append((time.perf_counter() - started) * 1000.0)
        return statistics.median(samples)

    def time_ms(self, engine: FlowEngine, run: Callable[[], object]) -> float:
        """Median cold milliseconds of ``run`` on ``engine``.

        Every repeat starts on empty memos (``engine.ctx.clear_caches()``,
        untimed), as the paper's algorithms do.
        """
        return self._median_ms(run, before=engine.ctx.clear_caches)

    def compare_methods(
        self, engine: FlowEngine, run: Callable[[str], object]
    ) -> tuple[float, float]:
        """Cold :meth:`time_ms` of ``run('iterative')`` and ``run('join')``."""
        iterative_ms = self.time_ms(engine, lambda: run("iterative"))
        join_ms = self.time_ms(engine, lambda: run("join"))
        return iterative_ms, join_ms

    # ------------------------------------------------------------------
    # Cache instrumentation
    # ------------------------------------------------------------------

    def collect_stats(
        self, engine: FlowEngine, run: Callable[[], object]
    ) -> dict[str, int]:
        """``FlowEngine.stats()`` attributable to one execution of ``run``.

        The engine's counters are reset, ``run`` executes once, and the
        fresh counter values are returned — cache *contents* are left
        untouched, so calling this twice measures a cold then a warm run.
        """
        engine.reset_stats()
        run()
        return engine.stats()

    def timed_stats(
        self, engine: FlowEngine, run: Callable[[], object]
    ) -> tuple[float, dict[str, int]]:
        """``(median ms, stats)`` for one workload.

        The stats come from one instrumented execution of ``run``; the
        timing is the median of the ``repeats`` executions that follow it
        (warm-cache, matching how the monitors run in steady state).
        """
        stats = self.collect_stats(engine, run)
        return self._median_ms(run), stats

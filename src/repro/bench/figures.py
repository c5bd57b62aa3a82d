"""One reproduction routine per evaluation figure (paper, Section 5).

Every figure in the paper's experimental study has a registry entry here
mapping its id (``fig10a`` ... ``fig14c``) to a routine that sweeps the
figure's parameter and times both query algorithms, producing the same
series the paper plots.  The expected shapes are recorded in
``EXPERIMENTS.md``; the harness prints measured rows for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from ..datagen import (
    PAPER_DETECTION_RANGES,
    PAPER_K_VALUES,
    PAPER_OBJECT_COUNTS,
    PAPER_POI_PERCENTAGES,
    PAPER_WINDOW_MINUTES,
)
from .harness import BenchContext, FigureResult, SeriesPoint

__all__ = ["FIGURES", "FigureSpec", "run_figure"]


@dataclass(frozen=True)
class FigureSpec:
    """A reproducible evaluation figure."""

    figure_id: str
    title: str
    param_name: str
    default_params: tuple
    runner: Callable[[BenchContext, tuple], FigureResult]

    def run(
        self, ctx: BenchContext, params: Sequence | None = None
    ) -> FigureResult:
        values = tuple(params) if params is not None else self.default_params
        return self.runner(ctx, values)


def _result(ctx, spec_id, title, param_name, points) -> FigureResult:
    return FigureResult(
        figure_id=spec_id,
        title=title,
        param_name=param_name,
        points=tuple(points),
        scale=ctx.scale,
    )


# ----------------------------------------------------------------------
# Synthetic, snapshot (Figure 10) and detection range (Figure 11)
# ----------------------------------------------------------------------


#: Each measurement runs the query at several anchors spread over the data
#: to smooth out both timer noise and the luck of a single query time.
_ANCHOR_FRACTIONS = (0.3, 0.5, 0.7)


def _snapshot_anchors(dataset) -> list[float]:
    start, end = dataset.time_span()
    return [start + f * (end - start) for f in _ANCHOR_FRACTIONS]


def _interval_anchors(dataset, minutes: float) -> list[tuple[float, float]]:
    start, end = dataset.time_span()
    half = minutes * 60.0 / 2.0
    windows = []
    for fraction in _ANCHOR_FRACTIONS:
        middle = start + fraction * (end - start)
        windows.append((max(start, middle - half), min(end, middle + half)))
    return windows


def _snapshot_point(ctx, dataset, engine, k, pois):
    anchors = _snapshot_anchors(dataset)

    def run(method):
        for t in anchors:
            engine.snapshot_topk(t, k, pois=pois, method=method)

    iterative_ms, join_ms = ctx.compare_methods(engine, run)
    return iterative_ms / len(anchors), join_ms / len(anchors)


def _interval_point(ctx, dataset, engine, k, pois, minutes):
    windows = _interval_anchors(dataset, minutes)

    def run(method):
        for start, end in windows:
            engine.interval_topk(start, end, k, pois=pois, method=method)

    iterative_ms, join_ms = ctx.compare_methods(engine, run)
    return iterative_ms / len(windows), join_ms / len(windows)


def _run_fig10a(ctx: BenchContext, params) -> FigureResult:
    dataset, engine = ctx.synthetic()
    pois = dataset.poi_subset(ctx.default_poi_percent)
    points = []
    for k in params:
        iterative_ms, join_ms = _snapshot_point(ctx, dataset, engine, k, pois)
        points.append(SeriesPoint(k, iterative_ms, join_ms))
    return _result(
        ctx, "fig10a", "Snapshot query, synthetic: effect of k", "k", points
    )


def _run_fig10b(ctx: BenchContext, params) -> FigureResult:
    dataset, engine = ctx.synthetic()
    points = []
    for percent in params:
        pois = dataset.poi_subset(percent)
        iterative_ms, join_ms = _snapshot_point(
            ctx, dataset, engine, ctx.default_k, pois
        )
        points.append(SeriesPoint(percent, iterative_ms, join_ms))
    return _result(
        ctx, "fig10b", "Snapshot query, synthetic: effect of |P|", "|P| (%)", points
    )


def _run_fig11a(ctx: BenchContext, params) -> FigureResult:
    points = []
    for detection_range in params:
        dataset, engine = ctx.synthetic(detection_range=detection_range)
        pois = dataset.poi_subset(ctx.default_poi_percent)
        iterative_ms, join_ms = _snapshot_point(
            ctx, dataset, engine, ctx.default_k, pois
        )
        points.append(SeriesPoint(detection_range, iterative_ms, join_ms))
    return _result(
        ctx,
        "fig11a",
        "Snapshot query, synthetic: effect of detection range",
        "range (m)",
        points,
    )


def _run_fig11b(ctx: BenchContext, params) -> FigureResult:
    points = []
    for detection_range in params:
        dataset, engine = ctx.synthetic(detection_range=detection_range)
        pois = dataset.poi_subset(ctx.default_poi_percent)
        iterative_ms, join_ms = _interval_point(
            ctx, dataset, engine, ctx.default_k, pois, ctx.default_window_minutes
        )
        points.append(SeriesPoint(detection_range, iterative_ms, join_ms))
    return _result(
        ctx,
        "fig11b",
        "Interval query, synthetic: effect of detection range",
        "range (m)",
        points,
    )


# ----------------------------------------------------------------------
# Synthetic, interval (Figure 12)
# ----------------------------------------------------------------------


def _run_fig12a(ctx: BenchContext, params) -> FigureResult:
    dataset, engine = ctx.synthetic()
    pois = dataset.poi_subset(ctx.default_poi_percent)
    points = []
    for k in params:
        iterative_ms, join_ms = _interval_point(
            ctx, dataset, engine, k, pois, ctx.default_window_minutes
        )
        points.append(SeriesPoint(k, iterative_ms, join_ms))
    return _result(
        ctx, "fig12a", "Interval query, synthetic: effect of k", "k", points
    )


def _run_fig12b(ctx: BenchContext, params) -> FigureResult:
    dataset, engine = ctx.synthetic()
    points = []
    for percent in params:
        pois = dataset.poi_subset(percent)
        iterative_ms, join_ms = _interval_point(
            ctx, dataset, engine, ctx.default_k, pois, ctx.default_window_minutes
        )
        points.append(SeriesPoint(percent, iterative_ms, join_ms))
    return _result(
        ctx, "fig12b", "Interval query, synthetic: effect of |P|", "|P| (%)", points
    )


def _run_fig12c(ctx: BenchContext, params) -> FigureResult:
    points = []
    for num_objects in params:
        dataset, engine = ctx.synthetic(num_objects=num_objects)
        pois = dataset.poi_subset(ctx.default_poi_percent)
        iterative_ms, join_ms = _interval_point(
            ctx, dataset, engine, ctx.default_k, pois, ctx.default_window_minutes
        )
        points.append(SeriesPoint(num_objects, iterative_ms, join_ms))
    return _result(
        ctx,
        "fig12c",
        "Interval query, synthetic: effect of |O|",
        "|O| (pre-scale)",
        points,
    )


def _run_fig12d(ctx: BenchContext, params) -> FigureResult:
    dataset, engine = ctx.synthetic()
    pois = dataset.poi_subset(ctx.default_poi_percent)
    points = []
    for minutes in params:
        iterative_ms, join_ms = _interval_point(
            ctx, dataset, engine, ctx.default_k, pois, minutes
        )
        points.append(SeriesPoint(minutes, iterative_ms, join_ms))
    return _result(
        ctx,
        "fig12d",
        "Interval query, synthetic: effect of t_e - t_s",
        "window (min)",
        points,
    )


# ----------------------------------------------------------------------
# CPH (Figures 13 and 14)
# ----------------------------------------------------------------------


def _run_fig13a(ctx: BenchContext, params) -> FigureResult:
    dataset, engine = ctx.cph()
    pois = dataset.poi_subset(ctx.default_poi_percent)
    points = []
    for k in params:
        iterative_ms, join_ms = _snapshot_point(ctx, dataset, engine, k, pois)
        points.append(SeriesPoint(k, iterative_ms, join_ms))
    return _result(ctx, "fig13a", "Snapshot query, CPH: effect of k", "k", points)


def _run_fig13b(ctx: BenchContext, params) -> FigureResult:
    dataset, engine = ctx.cph()
    points = []
    for percent in params:
        pois = dataset.poi_subset(percent)
        iterative_ms, join_ms = _snapshot_point(
            ctx, dataset, engine, ctx.default_k, pois
        )
        points.append(SeriesPoint(percent, iterative_ms, join_ms))
    return _result(
        ctx, "fig13b", "Snapshot query, CPH: effect of |P|", "|P| (%)", points
    )


def _run_fig14a(ctx: BenchContext, params) -> FigureResult:
    dataset, engine = ctx.cph()
    pois = dataset.poi_subset(ctx.default_poi_percent)
    points = []
    for k in params:
        iterative_ms, join_ms = _interval_point(
            ctx, dataset, engine, k, pois, ctx.default_window_minutes
        )
        points.append(SeriesPoint(k, iterative_ms, join_ms))
    return _result(ctx, "fig14a", "Interval query, CPH: effect of k", "k", points)


def _run_fig14b(ctx: BenchContext, params) -> FigureResult:
    dataset, engine = ctx.cph()
    points = []
    for percent in params:
        pois = dataset.poi_subset(percent)
        iterative_ms, join_ms = _interval_point(
            ctx, dataset, engine, ctx.default_k, pois, ctx.default_window_minutes
        )
        points.append(SeriesPoint(percent, iterative_ms, join_ms))
    return _result(
        ctx, "fig14b", "Interval query, CPH: effect of |P|", "|P| (%)", points
    )


def _run_fig14c(ctx: BenchContext, params) -> FigureResult:
    dataset, engine = ctx.cph()
    pois = dataset.poi_subset(ctx.default_poi_percent)
    points = []
    for minutes in params:
        iterative_ms, join_ms = _interval_point(
            ctx, dataset, engine, ctx.default_k, pois, minutes
        )
        points.append(SeriesPoint(minutes, iterative_ms, join_ms))
    return _result(
        ctx,
        "fig14c",
        "Interval query, CPH: effect of t_e - t_s",
        "window (min)",
        points,
    )


FIGURES: dict[str, FigureSpec] = {
    spec.figure_id: spec
    for spec in (
        FigureSpec("fig10a", "Snapshot / synthetic / k", "k", PAPER_K_VALUES, _run_fig10a),
        FigureSpec("fig10b", "Snapshot / synthetic / |P|", "|P| (%)", PAPER_POI_PERCENTAGES, _run_fig10b),
        FigureSpec("fig11a", "Snapshot / synthetic / range", "range (m)", PAPER_DETECTION_RANGES, _run_fig11a),
        FigureSpec("fig11b", "Interval / synthetic / range", "range (m)", PAPER_DETECTION_RANGES, _run_fig11b),
        FigureSpec("fig12a", "Interval / synthetic / k", "k", PAPER_K_VALUES, _run_fig12a),
        FigureSpec("fig12b", "Interval / synthetic / |P|", "|P| (%)", PAPER_POI_PERCENTAGES, _run_fig12b),
        FigureSpec("fig12c", "Interval / synthetic / |O|", "|O|", PAPER_OBJECT_COUNTS, _run_fig12c),
        FigureSpec("fig12d", "Interval / synthetic / window", "window (min)", PAPER_WINDOW_MINUTES, _run_fig12d),
        FigureSpec("fig13a", "Snapshot / CPH / k", "k", PAPER_K_VALUES, _run_fig13a),
        FigureSpec("fig13b", "Snapshot / CPH / |P|", "|P| (%)", PAPER_POI_PERCENTAGES, _run_fig13b),
        FigureSpec("fig14a", "Interval / CPH / k", "k", PAPER_K_VALUES, _run_fig14a),
        FigureSpec("fig14b", "Interval / CPH / |P|", "|P| (%)", PAPER_POI_PERCENTAGES, _run_fig14b),
        FigureSpec("fig14c", "Interval / CPH / window", "window (min)", PAPER_WINDOW_MINUTES, _run_fig14c),
    )
}


def run_figure(
    figure_id: str, ctx: BenchContext, params: Sequence | None = None
) -> FigureResult:
    """Run one registered figure by id."""
    spec = FIGURES.get(figure_id)
    if spec is None:
        raise KeyError(
            f"unknown figure {figure_id!r}; known: {sorted(FIGURES)}"
        )
    return spec.run(ctx, params)

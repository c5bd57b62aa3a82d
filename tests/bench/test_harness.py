"""Tests for the benchmark harness (figure registry, context, reporting)."""

import pytest

from repro.bench import (
    ABLATIONS,
    FIGURES,
    BenchContext,
    FigureResult,
    SeriesPoint,
    format_ablation,
    format_figure,
    run_figure,
)
from repro.bench.ablations import AblationRow

TINY = dict(scale=0.01, repeats=1)


class TestContext:
    def test_validation(self):
        with pytest.raises(ValueError):
            BenchContext(scale=0.0)
        with pytest.raises(ValueError):
            BenchContext(repeats=0)

    def test_dataset_caching(self):
        ctx = BenchContext(**TINY)
        first_dataset, first_engine = ctx.synthetic()
        second_dataset, second_engine = ctx.synthetic()
        assert first_dataset is second_dataset
        assert first_engine is second_engine

    def test_different_parameters_different_datasets(self):
        ctx = BenchContext(**TINY)
        small, _ = ctx.synthetic(detection_range=1.0)
        large, _ = ctx.synthetic(detection_range=2.5)
        assert small is not large

    def test_scale_applied(self):
        ctx = BenchContext(scale=0.01, repeats=1)
        dataset, _ = ctx.synthetic()
        assert dataset.ott.object_count == 10  # 1000 * 0.01

    def test_time_ms_positive(self):
        ctx = BenchContext(**TINY)
        _, engine = ctx.synthetic()
        assert ctx.time_ms(engine, lambda: sum(range(1000))) >= 0.0

    def test_compare_methods_runs_both(self):
        ctx = BenchContext(**TINY)
        _, engine = ctx.synthetic()
        seen = []
        iterative_ms, join_ms = ctx.compare_methods(
            engine, lambda method: seen.append(method)
        )
        assert set(seen) == {"iterative", "join"}
        assert iterative_ms >= 0.0 and join_ms >= 0.0

    @pytest.mark.parametrize(
        "figure_id, query", [("fig10a", "snapshot_topk"), ("fig12a", "interval_topk")]
    )
    def test_every_repeat_starts_cold(self, monkeypatch, figure_id, query):
        """Each timed repeat of a figure point rebuilds what the first did:
        no region, window or presence memo survives from the last repeat."""
        ctx = BenchContext(
            scale=0.01, repeats=3, default_window_minutes=2.0
        )
        _, engine = ctx.synthetic()
        original = getattr(engine, query)
        computed: dict[str, list[int]] = {"iterative": [], "join": []}

        def spy(*args, **kwargs):
            engine.reset_stats()
            result = original(*args, **kwargs)
            computed[kwargs["method"]].append(engine.stats()["regions_computed"])
            return result

        monkeypatch.setattr(engine, query, spy)
        run_figure(figure_id, ctx, params=(5,))
        for method, counts in computed.items():
            anchors = len(counts) // ctx.repeats
            first = counts[:anchors]
            assert sum(first) > 0, method
            assert counts == first * ctx.repeats, method


class TestFigureRegistry:
    def test_all_paper_figures_present(self):
        expected = {
            "fig10a", "fig10b", "fig11a", "fig11b",
            "fig12a", "fig12b", "fig12c", "fig12d",
            "fig13a", "fig13b", "fig14a", "fig14b", "fig14c",
        }
        assert set(FIGURES) == expected

    def test_unknown_figure_raises(self):
        with pytest.raises(KeyError):
            run_figure("fig99", BenchContext(**TINY))

    def test_run_one_snapshot_figure(self):
        ctx = BenchContext(**TINY)
        result = run_figure("fig10a", ctx, params=(1, 5))
        assert isinstance(result, FigureResult)
        assert result.figure_id == "fig10a"
        assert [point.param for point in result.points] == [1, 5]
        for point in result.points:
            assert point.iterative_ms >= 0.0
            assert point.join_ms >= 0.0

    def test_run_one_interval_figure(self):
        ctx = BenchContext(**TINY, default_window_minutes=2.0)
        result = run_figure("fig12d", ctx, params=(1, 2))
        assert len(result.points) == 2

    def test_default_params_match_paper_sweeps(self):
        assert FIGURES["fig12c"].default_params == (1000, 2000, 3000, 4000, 5000)
        assert FIGURES["fig11a"].default_params == (1.0, 1.5, 2.0, 2.5)


class TestAblations:
    def test_registry(self):
        assert set(ABLATIONS) == {
            "ablation_segment_mbrs",
            "ablation_topology_check",
            "ablation_grid_resolution",
            "ablation_rtree_fanout",
        }

    def test_segment_mbr_ablation_runs(self):
        ctx = BenchContext(**TINY, default_window_minutes=2.0)
        rows = ABLATIONS["ablation_segment_mbrs"](ctx)
        assert [row.label for row in rows] == [
            "synthetic/coarse-mbr",
            "synthetic/segment-mbrs",
            "cph/coarse-mbr",
            "cph/segment-mbrs",
        ]

    def test_topology_ablation_reports_overcredit(self):
        ctx = BenchContext(**TINY)
        rows = ABLATIONS["ablation_topology_check"](ctx)
        labels = [row.label for row in rows]
        assert "overcredit" in labels
        overcredit = next(row for row in rows if row.label == "overcredit")
        # Euclidean-only flows can only over-credit, never under-credit.
        assert overcredit.metrics["flow_excess"] >= -1e-6


class TestReporting:
    def sample_result(self):
        return FigureResult(
            figure_id="fig10a",
            title="Snapshot / k",
            param_name="k",
            points=(
                SeriesPoint(1, 10.0, 5.0),
                SeriesPoint(10, 12.0, 6.0),
            ),
            scale=0.1,
        )

    def test_format_figure_contains_rows(self):
        text = format_figure(self.sample_result())
        assert "fig10a" in text
        assert "iterative (ms)" in text
        assert "2.00x" in text  # speedup column

    def test_speedup(self):
        point = SeriesPoint(1, 10.0, 5.0)
        assert point.speedup == 2.0
        assert SeriesPoint(1, 10.0, 0.0).speedup == float("inf")

    def test_as_rows(self):
        rows = self.sample_result().as_rows()
        assert rows == [(1, 10.0, 5.0), (10, 12.0, 6.0)]

    def test_format_ablation(self):
        rows = [AblationRow("variant-a", 12.5, {"metric": 3})]
        text = format_ablation("my-ablation", rows)
        assert "variant-a" in text
        assert "metric=3" in text


class TestCli:
    def test_list(self, capsys):
        from repro.bench.__main__ import main

        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig10a" in out
        assert "ablation_segment_mbrs" in out

    def test_no_arguments_shows_help(self, capsys):
        from repro.bench.__main__ import main

        assert main([]) == 2

    def test_unknown_figure(self, capsys):
        from repro.bench.__main__ import main

        assert main(["--figure", "nope"]) == 2

    def test_quick_params_subset(self):
        from repro.bench.__main__ import _quick_params

        assert _quick_params((1, 2, 3, 4, 5)) == (1, 3, 5)
        assert _quick_params((1, 2)) == (1, 2)

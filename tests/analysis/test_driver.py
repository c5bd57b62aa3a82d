"""The v2 driver: caching, baselines, output formats and the CLI."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import repro.analysis.driver as driver_module
from repro.analysis import main
from repro.analysis.checkers import ALL_CHECKERS
from repro.analysis.driver import (
    AnalysisCache,
    analyze,
    load_baseline,
    render_json,
    render_sarif,
    subtract_baseline,
    write_baseline_file,
)
from repro.analysis.rules import ALL_RULES

VIOLATING = (
    "class ARTree:\n"
    "    def append_record(self, record: object) -> None:\n"
    "        pass\n"
    "\n"
    "class Store:\n"
    "    def __init__(self) -> None:\n"
    "        self.artree = ARTree()\n"
    "\n"
    "    def bad(self, record: object) -> None:\n"
    "        self.artree.append_record(record)\n"
)

CLEAN = "def double(x: float) -> float:\n    return x * 2.0\n"


def write_tree(tmp_path: Path, files: dict[str, str]) -> Path:
    for relative, source in files.items():
        target = tmp_path / relative
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
    return tmp_path


class TestAnalyze:
    def test_rules_and_checkers_share_one_run(self, tmp_path):
        root = write_tree(
            tmp_path, {"proj/store.py": VIOLATING, "proj/util.py": CLEAN}
        )
        report = analyze(
            [root], rules=ALL_RULES, checkers=list(ALL_CHECKERS)
        )
        rules_hit = {d.rule for d in report.diagnostics}
        assert "cache-coherence" in rules_hit
        assert "seam" in rules_hit
        assert report.files_checked == 2

    def test_checker_findings_respect_pragmas(self, tmp_path):
        suppressed = VIOLATING.replace(
            "        self.artree.append_record(record)\n",
            "        # repro: allow(cache-coherence, seam): fixture\n"
            "        self.artree.append_record(record)\n",
        )
        root = write_tree(tmp_path, {"proj/store.py": suppressed})
        report = analyze([root], checkers=list(ALL_CHECKERS))
        assert report.diagnostics == []
        assert report.suppressed == 2


class TestCache:
    def test_warm_run_parses_nothing(self, tmp_path, monkeypatch):
        root = write_tree(tmp_path, {"proj/store.py": VIOLATING})
        cache_path = tmp_path / "cache.json"

        calls: list[int] = []
        real_parse = driver_module.parse_files

        def counting_parse(files, **kwargs):
            calls.append(len(files))
            return real_parse(files, **kwargs)

        monkeypatch.setattr(driver_module, "parse_files", counting_parse)

        cold_cache = AnalysisCache(cache_path)
        cold = analyze(
            [root],
            rules=ALL_RULES,
            checkers=list(ALL_CHECKERS),
            cache=cold_cache,
        )
        cold_cache.save()
        assert calls == [1]

        warm_cache = AnalysisCache(cache_path)
        warm = analyze(
            [root],
            rules=ALL_RULES,
            checkers=list(ALL_CHECKERS),
            cache=warm_cache,
        )
        assert calls == [1, 0]
        assert [d.format() for d in warm.diagnostics] == [
            d.format() for d in cold.diagnostics
        ]
        assert warm.suppressed == cold.suppressed

    def test_edit_invalidates_only_that_file(self, tmp_path):
        root = write_tree(
            tmp_path, {"proj/store.py": VIOLATING, "proj/util.py": CLEAN}
        )
        cache_path = tmp_path / "cache.json"
        cache = AnalysisCache(cache_path)
        first = analyze(
            [root], rules=ALL_RULES, checkers=list(ALL_CHECKERS), cache=cache
        )
        cache.save()
        (root / "proj/util.py").write_text(CLEAN + "\nY = 1.0\n")
        cache = AnalysisCache(cache_path)
        second = analyze(
            [root], rules=ALL_RULES, checkers=list(ALL_CHECKERS), cache=cache
        )
        assert {d.rule for d in second.diagnostics} == {
            d.rule for d in first.diagnostics
        }

    def test_analyzer_edit_invalidates_cached_findings(
        self, tmp_path, monkeypatch
    ):
        """A finding cached by the old analyzer is not served once the
        analyzer's source (and so its digest) changes."""
        from repro.analysis.rules.float_equality import FloatEqualityRule

        root = write_tree(tmp_path, {"proj/t.py": "flag = x == 0.5\n"})
        cache_path = tmp_path / "cache.json"
        rules = [FloatEqualityRule()]
        cache = AnalysisCache(cache_path)
        first = analyze([root], rules=rules, checkers=list(ALL_CHECKERS), cache=cache)
        cache.save()
        assert [d.rule for d in first.diagnostics] == ["float-equality"]

        # The rule is edited to accept the line and, with it, the
        # analyzer's digest moves.
        monkeypatch.setattr(FloatEqualityRule, "check", lambda self, tree, path: [])
        monkeypatch.setattr(driver_module, "_analyzer_digest", lambda: "edited")
        cache = AnalysisCache(cache_path)
        second = analyze(
            [root], rules=rules, checkers=list(ALL_CHECKERS), cache=cache
        )
        assert second.diagnostics == []

    def test_corrupt_cache_is_discarded(self, tmp_path):
        cache_path = tmp_path / "cache.json"
        cache_path.write_text("{not json")
        cache = AnalysisCache(cache_path)
        root = write_tree(tmp_path, {"proj/util.py": CLEAN})
        report = analyze([root], rules=ALL_RULES, cache=cache)
        assert report.ok


class TestBaseline:
    def test_round_trip_subtracts_known_findings(self, tmp_path):
        root = write_tree(tmp_path, {"proj/store.py": VIOLATING})
        report = analyze([root], checkers=list(ALL_CHECKERS))
        assert report.diagnostics
        baseline_path = tmp_path / "baseline.json"
        write_baseline_file(baseline_path, report.diagnostics)
        baseline = load_baseline(baseline_path)
        kept, dropped = subtract_baseline(report.diagnostics, baseline)
        assert kept == []
        assert dropped == len(report.diagnostics)

    def test_new_findings_survive_the_baseline(self, tmp_path):
        root = write_tree(tmp_path, {"proj/store.py": VIOLATING})
        report = analyze([root], checkers=list(ALL_CHECKERS))
        baseline_path = tmp_path / "baseline.json"
        write_baseline_file(baseline_path, report.diagnostics[:1])
        baseline = load_baseline(baseline_path)
        kept, dropped = subtract_baseline(report.diagnostics, baseline)
        assert dropped == 1
        assert len(kept) == len(report.diagnostics) - 1


class TestFormats:
    def test_json_document_round_trips(self, tmp_path):
        root = write_tree(tmp_path, {"proj/store.py": VIOLATING})
        report = analyze([root], checkers=list(ALL_CHECKERS))
        payload = json.loads(render_json(report))
        assert payload["version"] == 1
        assert payload["summary"]["findings"] == len(report.diagnostics)
        assert payload["summary"]["ok"] is False
        first = payload["findings"][0]
        assert set(first) == {"path", "line", "column", "rule", "message"}

    def test_sarif_document_shape(self, tmp_path):
        root = write_tree(tmp_path, {"proj/store.py": VIOLATING})
        report = analyze([root], checkers=list(ALL_CHECKERS))
        payload = json.loads(
            render_sarif(report, rules=ALL_RULES, checkers=ALL_CHECKERS)
        )
        assert payload["version"] == "2.1.0"
        run = payload["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-analysis"
        rule_ids = {meta["id"] for meta in run["tool"]["driver"]["rules"]}
        assert {"seam", "cache-coherence", "determinism"} <= rule_ids
        result = run["results"][0]
        assert result["ruleId"] in rule_ids
        location = result["locations"][0]["physicalLocation"]
        assert location["region"]["startLine"] >= 1


class TestCli:
    def run(self, argv, capsys):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_check_all_flags_violations(self, tmp_path, capsys):
        root = write_tree(tmp_path, {"proj/store.py": VIOLATING})
        code, out, _err = self.run(
            ["--check-all", "--no-cache", str(root)], capsys
        )
        assert code == 1
        assert "[cache-coherence]" in out

    def test_json_format_round_trip(self, tmp_path, capsys):
        root = write_tree(tmp_path, {"proj/store.py": VIOLATING})
        code, out, _err = self.run(
            ["--check-all", "--no-cache", "--format", "json", str(root)],
            capsys,
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["summary"]["findings"] > 0

    def test_baseline_gate_passes_on_known_findings(self, tmp_path, capsys):
        root = write_tree(tmp_path, {"proj/store.py": VIOLATING})
        baseline = tmp_path / "baseline.json"
        code, _out, err = self.run(
            [
                "--check-all",
                "--no-cache",
                "--write-baseline",
                str(baseline),
                str(root),
            ],
            capsys,
        )
        assert code == 0
        assert "wrote" in err
        code, _out, _err = self.run(
            [
                "--check-all",
                "--no-cache",
                "--baseline",
                str(baseline),
                str(root),
            ],
            capsys,
        )
        assert code == 0

    def test_cached_run_stays_fast_and_identical(self, tmp_path, capsys):
        root = write_tree(tmp_path, {"proj/store.py": VIOLATING})
        cache = tmp_path / "cache.json"
        argv = [
            "--check-all",
            "--cache-path",
            str(cache),
            "--format",
            "json",
            str(root),
        ]
        code_cold, out_cold, _ = self.run(argv, capsys)
        code_warm, out_warm, _ = self.run(argv, capsys)
        assert (code_cold, out_cold) == (code_warm, out_warm)
        assert cache.exists()

    def test_profile(self, tmp_path, capsys):
        root = write_tree(tmp_path, {"proj/util.py": CLEAN})
        code, _out, err = self.run(
            ["--check-all", "--no-cache", "--profile", str(root)], capsys
        )
        assert code == 0
        assert "analysis.model" in err
        assert "analysis.checker.seam" in err

    def test_single_checker_selection(self, tmp_path, capsys):
        root = write_tree(tmp_path, {"proj/store.py": VIOLATING})
        code, out, _err = self.run(
            ["--checker", "determinism", "--no-cache", str(root)], capsys
        )
        # Only the determinism checker ran; the cache-coherence
        # violation is invisible to it.  Per-file rules still apply.
        assert "[cache-coherence]" not in out
        assert code in (0, 1)

    def test_unknown_checker_is_usage_error(self, tmp_path, capsys):
        code, _out, err = self.run(["--checker", "nope", str(tmp_path)], capsys)
        assert code == 2
        assert "unknown checker" in err

    def test_list_checkers(self, capsys):
        code, out, _err = self.run(["--list-checkers"], capsys)
        assert code == 0
        assert "seam" in out
        assert "determinism" in out

    def test_report_tests_includes_test_paths(self, tmp_path, capsys):
        # A determinism violation under tests/ (invisible to the
        # per-file rules, so the exit code isolates the checker).
        root = write_tree(
            tmp_path,
            {
                "tests/test_store.py": (
                    "def total(vals: set) -> float:\n"
                    "    return sum(v * 2.0 for v in vals)\n"
                )
            },
        )
        code, out, _err = self.run(
            ["--check-all", "--no-cache", str(root)], capsys
        )
        assert code == 0 and "[determinism]" not in out
        code, out, _err = self.run(
            ["--check-all", "--no-cache", "--report-tests", str(root)],
            capsys,
        )
        assert code == 1
        assert "[determinism]" in out

"""The driver: one pass of every check, the JSON format and the CLI."""

from __future__ import annotations

import ast
import json
from pathlib import Path

from repro.analysis import ALL_CHECKS, main
from repro.analysis.driver import analyze, checks_by_name, render_json

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
        report = analyze([root])
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
        report = analyze([root])
        assert report.diagnostics == []
        assert report.suppressed == 2

    def test_files_are_parsed_once(self, tmp_path, monkeypatch):
        root = write_tree(
            tmp_path, {"proj/store.py": VIOLATING, "proj/util.py": CLEAN}
        )
        parsed: list[str] = []
        real_parse = ast.parse

        def counting_parse(source, filename="<unknown>", *args, **kwargs):
            parsed.append(Path(filename).name)
            return real_parse(source, filename, *args, **kwargs)

        monkeypatch.setattr(ast, "parse", counting_parse)
        analyze([root])
        assert sorted(parsed) == ["store.py", "util.py"]

    def test_same_stem_files_are_both_reported(self, tmp_path):
        # Two loose (non-package) files named alike share one module
        # name; the rules still see both.
        root = write_tree(
            tmp_path,
            {"a/module.py": "flag = x == 0.5\n", "b/module.py": "flag = y == 1.5\n"},
        )
        report = analyze([root / "a/module.py", root / "b/module.py"])
        found = [(Path(d.path).parent.name, d.rule) for d in report.diagnostics]
        assert found == [("a", "float-equality"), ("b", "float-equality")]

    def test_same_stem_files_are_both_reported_by_checkers(self, tmp_path):
        # Each loose file keeps its own functions in the project model,
        # so a whole-program checker sees both.
        source = (
            "def total(vals: set[float]) -> float:\n"
            "    return sum(v * 2.0 for v in vals)\n"
        )
        root = write_tree(tmp_path, {"a/mod.py": source, "b/mod.py": source})
        report = analyze(
            [root / "a/mod.py", root / "b/mod.py"],
            checks=[checks_by_name()["determinism"]],
            report_all=True,
        )
        found = [
            (Path(d.path).parent.name, d.line, d.column, d.rule)
            for d in report.diagnostics
        ]
        assert found == [("a", 2, 12, "determinism"), ("b", 2, 12, "determinism")]


class TestFormats:
    def test_json_document_round_trips(self, tmp_path):
        root = write_tree(tmp_path, {"proj/store.py": VIOLATING})
        report = analyze([root])
        payload = json.loads(render_json(report))
        assert payload["version"] == 2
        assert payload["summary"]["findings"] == len(report.diagnostics)
        assert payload["summary"]["ok"] is False
        first = payload["findings"][0]
        assert set(first) == {"path", "line", "column", "rule", "message"}


class TestCli:
    def run(self, argv, capsys):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_check_all_flags_violations(self, tmp_path, capsys):
        """The default run includes the whole-program checkers."""
        root = write_tree(tmp_path, {"proj/store.py": VIOLATING})
        code, out, _err = self.run([str(root)], capsys)
        assert code == 1
        assert "[cache-coherence]" in out

    def test_json_format_round_trip(self, tmp_path, capsys):
        root = write_tree(tmp_path, {"proj/store.py": VIOLATING})
        code, out, _err = self.run(["--format", "json", str(root)], capsys)
        assert code == 1
        payload = json.loads(out)
        assert payload["summary"]["findings"] > 0

    def test_list_checkers(self, capsys):
        code, out, _err = self.run(["--list"], capsys)
        assert code == 0
        listed = [line.split()[0] for line in out.splitlines() if line[:1] != " "]
        assert listed == [check.name for check in ALL_CHECKS]
        assert len(listed) == 8

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
        code, out, _err = self.run([str(root)], capsys)
        assert code == 0 and "[determinism]" not in out
        code, out, _err = self.run(["--report-tests", str(root)], capsys)
        assert code == 1
        assert "[determinism]" in out

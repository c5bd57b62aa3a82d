"""The repo-specific AST lint pass: rules, suppressions and the CLI.

Violating code lives in string literals here, which the AST rules cannot
see — only the temp files the tests write from them are linted.  The
seam cases (shard, AR-tree, storage and serve mutators) run the ``seam``
checker over the same inputs.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import AnalysisReport, Diagnostic, analyze, main
from repro.analysis.checkers import SeamChecker
from repro.analysis.linter import FILE_WIDE_LINE, parse_suppressions
from repro.analysis.rules import ALL_RULES, rules_by_name

REPO_ROOT = Path(__file__).resolve().parents[2]


def lint_source(
    tmp_path: Path,
    source: str,
    filename: str = "module.py",
    rule: str | None = None,
) -> AnalysisReport:
    """Write ``source`` under ``tmp_path`` and lint it.

    ``rule="seam"`` runs the seam checker instead of the per-file rules;
    the file's directories become packages, so ``repro/core/engine.py``
    is the module ``repro.core.engine``.
    """
    target = tmp_path / filename
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source)
    if rule == "seam":
        for package in target.relative_to(tmp_path).parents[:-1]:
            (tmp_path / package / "__init__.py").touch()
        return analyze([target], checkers=[SeamChecker()])
    registry = rules_by_name()
    rules = [registry[rule]] if rule is not None else ALL_RULES
    return analyze([target], rules=rules)


def rule_names(report: AnalysisReport) -> list[str]:
    return [diagnostic.rule for diagnostic in report.diagnostics]


# ----------------------------------------------------------------------
# float-equality
# ----------------------------------------------------------------------


class TestFloatEquality:
    def test_flags_equality_against_float_literal(self, tmp_path):
        report = lint_source(tmp_path, "ok = value == 0.0\n")
        assert rule_names(report) == ["float-equality"]

    def test_flags_inequality_and_negative_literals(self, tmp_path):
        report = lint_source(
            tmp_path, "a = x != 1.5\nb = y == -2.25\n"
        )
        assert rule_names(report) == ["float-equality", "float-equality"]

    def test_ignores_integer_and_non_literal_comparisons(self, tmp_path):
        report = lint_source(
            tmp_path, "a = x == 3\nb = x == y\nc = x < 0.5\n"
        )
        assert report.ok

    def test_assert_statements_are_exempt(self, tmp_path):
        # Tests assert exact expected values (including bit-identity
        # determinism checks) on purpose.
        report = lint_source(
            tmp_path, "assert compute() == 0.25\nassert a == b == 0.0\n"
        )
        assert report.ok

    def test_diagnostic_location_and_format(self, tmp_path):
        report = lint_source(tmp_path, "\nflag = x == 0.0\n")
        (diagnostic,) = report.diagnostics
        assert diagnostic.line == 2
        formatted = diagnostic.format()
        assert formatted.endswith(diagnostic.message)
        assert f":{diagnostic.line}:" in formatted
        assert "[float-equality]" in formatted


# ----------------------------------------------------------------------
# unseeded-rng
# ----------------------------------------------------------------------


class TestUnseededRng:
    def test_flags_unseeded_random_instances(self, tmp_path):
        report = lint_source(
            tmp_path,
            "import random\nrng = random.Random()\n",
            rule="unseeded-rng",
        )
        assert rule_names(report) == ["unseeded-rng"]

    def test_flags_global_random_functions(self, tmp_path):
        report = lint_source(
            tmp_path,
            "import random\nvalue = random.uniform(0, 1)\n",
            rule="unseeded-rng",
        )
        assert rule_names(report) == ["unseeded-rng"]

    def test_flags_numpy_legacy_and_unseeded_default_rng(self, tmp_path):
        report = lint_source(
            tmp_path,
            "import numpy as np\n"
            "a = np.random.rand(3)\n"
            "rng = np.random.default_rng()\n",
            rule="unseeded-rng",
        )
        assert rule_names(report) == ["unseeded-rng", "unseeded-rng"]

    def test_accepts_seeded_construction(self, tmp_path):
        report = lint_source(
            tmp_path,
            "import random\n"
            "import numpy as np\n"
            "rng = random.Random(42)\n"
            "gen = np.random.default_rng(7)\n",
            rule="unseeded-rng",
        )
        assert report.ok


# ----------------------------------------------------------------------
# context-bypass
# ----------------------------------------------------------------------


class TestContextBypass:
    def test_flags_direct_import_of_region_builders(self, tmp_path):
        report = lint_source(
            tmp_path,
            "from repro.core.uncertainty.snapshot import snapshot_region\n",
            rule="context-bypass",
        )
        assert rule_names(report) == ["context-bypass"]

    def test_flags_bare_builder_call(self, tmp_path):
        report = lint_source(
            tmp_path,
            "region = interval_uncertainty(context, deployment, 1.0)\n",
            rule="context-bypass",
        )
        assert rule_names(report) == ["context-bypass"]

    def test_context_method_calls_are_fine(self, tmp_path):
        # The approved path: attribute calls through an EvaluationContext.
        report = lint_source(
            tmp_path,
            "region = ctx.snapshot_region(context)\n"
            "uncertainty = engine.ctx.interval_uncertainty(context)\n",
            rule="context-bypass",
        )
        assert report.ok

    def test_package_init_reexports_are_exempt(self, tmp_path):
        report = lint_source(
            tmp_path,
            "from .snapshot import snapshot_region\n",
            filename="__init__.py",
            rule="context-bypass",
        )
        assert report.ok

    def test_uncertainty_package_itself_is_exempt(self, tmp_path):
        report = lint_source(
            tmp_path,
            "from .snapshot import snapshot_region\n"
            "region = snapshot_region(context, deployment, 1.0)\n",
            filename="core/uncertainty/interval.py",
            rule="context-bypass",
        )
        assert report.ok

    # Mutator calls are rows of the seam table: these cases run the seam
    # checker, not this rule.

    def test_flags_direct_shard_mutation(self, tmp_path):
        report = lint_source(
            tmp_path,
            "shard.ingest_batch(records)\n"
            "shard.ingest_open_episode(record)\n"
            "shard.extend_open_episode('o1', 5.0)\n"
            "shard.close_open_episode('o1')\n",
            rule="seam",
        )
        assert rule_names(report) == ["seam"] * 4

    def test_engine_and_shard_may_mutate_shards(self, tmp_path):
        for filename in ("repro/core/engine.py", "repro/core/shard.py"):
            report = lint_source(
                tmp_path,
                "count = shard.ingest_batch(records)\n",
                filename=filename,
                rule="seam",
            )
            assert report.ok, filename

    def test_shard_mutation_suppressible_with_pragma(self, tmp_path):
        report = lint_source(
            tmp_path,
            "# repro: allow(seam): exercising the seam directly\n"
            "shard.ingest_batch(records)\n",
            rule="seam",
        )
        assert report.ok

    def test_engine_no_longer_allowed_to_patch_artree(self, tmp_path):
        # The AR-tree mutator seam moved from the engine into ShardState.
        report = lint_source(
            tmp_path,
            "tree.append_record(record, None)\n",
            filename="repro/core/engine.py",
            rule="seam",
        )
        assert rule_names(report) == ["seam"]

    def test_flags_direct_storage_backend_writes(self, tmp_path):
        report = lint_source(
            tmp_path,
            "backend.append_rows(rows)\n"
            "backend.rewrite_tail_row(record, open=True)\n",
            rule="seam",
        )
        assert rule_names(report) == ["seam"] * 2
        assert all(
            "storage backend" in d.message for d in report.diagnostics
        )

    def test_storage_and_table_modules_may_write_backends(self, tmp_path):
        for filename in (
            "repro/storage/sqlite.py",
            "repro/storage/memory.py",
            "repro/tracking/table.py",
        ):
            report = lint_source(
                tmp_path,
                "stored = backend.append_rows(rows)\n"
                "backend.rewrite_tail_row(record, open=False)\n",
                filename=filename,
                rule="seam",
            )
            assert report.ok, filename

    def test_storage_write_suppressible_with_pragma(self, tmp_path):
        report = lint_source(
            tmp_path,
            "# repro: allow(seam): the import seam is the writer\n"
            "backend.append_rows(rows)\n",
            rule="seam",
        )
        assert report.ok


# ----------------------------------------------------------------------
# mutable-default
# ----------------------------------------------------------------------


class TestMutableDefault:
    def test_flags_literal_and_constructor_defaults(self, tmp_path):
        report = lint_source(
            tmp_path,
            "def f(items=[]):\n    return items\n"
            "def g(mapping=dict()):\n    return mapping\n",
            rule="mutable-default",
        )
        assert rule_names(report) == ["mutable-default", "mutable-default"]

    def test_flags_keyword_only_and_lambda_defaults(self, tmp_path):
        report = lint_source(
            tmp_path,
            "def f(*, seen=set()):\n    return seen\n"
            "g = lambda acc={}: acc\n",
            rule="mutable-default",
        )
        assert rule_names(report) == ["mutable-default", "mutable-default"]

    def test_accepts_none_and_immutable_defaults(self, tmp_path):
        report = lint_source(
            tmp_path,
            "def f(items=None, pair=(1, 2), name='x'):\n    return items\n",
            rule="mutable-default",
        )
        assert report.ok


# ----------------------------------------------------------------------
# wall-clock
# ----------------------------------------------------------------------


class TestWallClock:
    def test_flags_clock_reads_in_core(self, tmp_path):
        report = lint_source(
            tmp_path,
            "import time\nstarted = time.perf_counter()\n",
            filename="repro/core/hot.py",
            rule="wall-clock",
        )
        assert rule_names(report) == ["wall-clock"]

    def test_flags_datetime_now_in_geometry(self, tmp_path):
        report = lint_source(
            tmp_path,
            "import datetime\nstamp = datetime.datetime.now()\n",
            filename="repro/geometry/area.py",
            rule="wall-clock",
        )
        assert rule_names(report) == ["wall-clock"]

    def test_other_packages_may_read_clocks(self, tmp_path):
        report = lint_source(
            tmp_path,
            "import time\nstarted = time.perf_counter()\n",
            filename="repro/bench/harness.py",
            rule="wall-clock",
        )
        assert report.ok


# ----------------------------------------------------------------------
# serve seam: the seam table's repro.serve rows
# ----------------------------------------------------------------------


SERVE_SEAM_FIXTURE = (
    Path(__file__).resolve().parent / "fixtures" / "serve_seam_violation.py"
)


class TestServeSeam:
    def lint_fixture(self, tmp_path, filename="repro/serve/handlers.py"):
        return lint_source(
            tmp_path,
            SERVE_SEAM_FIXTURE.read_text(),
            filename=filename,
            rule="seam",
        )

    def test_flags_seeded_lines_exactly(self, tmp_path):
        report = self.lint_fixture(tmp_path)
        lines = sorted(d.line for d in report.diagnostics)
        assert lines == [38, 42, 46, 50, 54]
        assert all(d.rule == "seam" for d in report.diagnostics)

    def test_actor_receivers_stay_clean(self, tmp_path):
        # Lines 30/34 call query()/ingest() *through the actor* — the
        # sanctioned seam — and must not be flagged.
        report = self.lint_fixture(tmp_path)
        assert not {30, 34}.intersection(d.line for d in report.diagnostics)

    def test_messages_distinguish_the_three_categories(self, tmp_path):
        report = self.lint_fixture(tmp_path)
        by_line = {d.line: d.message for d in report.diagnostics}
        assert "queries the engine" in by_line[38]
        assert "mutates the engine" in by_line[42]
        assert "internals" in by_line[50]
        assert "internals" in by_line[54]

    def test_rule_is_scoped_to_repro_serve(self, tmp_path):
        # Outside repro.serve only the shard/storage internals (every
        # scope's rows) stay findings; engine calls are fine there.
        report = self.lint_fixture(tmp_path, filename="repro/core/module.py")
        assert sorted(d.line for d in report.diagnostics) == [50, 54]

    def test_actor_client_and_smoke_modules_are_exempt(self, tmp_path):
        for exempt in ("actor.py", "client.py", "smoke.py"):
            report = self.lint_fixture(
                tmp_path, filename=f"repro/serve/{exempt}"
            )
            lines = sorted(d.line for d in report.diagnostics)
            assert lines == [50, 54], exempt

    def test_shipped_serve_package_is_clean(self):
        report = analyze(
            [REPO_ROOT / "src" / "repro" / "serve"], checkers=[SeamChecker()]
        )
        assert report.ok, "\n".join(d.format() for d in report.diagnostics)


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------


class TestSuppressions:
    def test_same_line_pragma(self, tmp_path):
        report = lint_source(
            tmp_path,
            "ok = x == 0.0  # repro: allow(float-equality): sentinel is exact\n",
        )
        assert report.ok
        assert report.suppressed == 1

    def test_preceding_line_pragma(self, tmp_path):
        report = lint_source(
            tmp_path,
            "# repro: allow(float-equality): sentinel is exact\nok = x == 0.0\n",
        )
        assert report.ok
        assert report.suppressed == 1

    def test_file_level_pragma_covers_every_occurrence(self, tmp_path):
        report = lint_source(
            tmp_path,
            "# repro: allow-file(float-equality): exactness fixture\n"
            "a = x == 0.0\n"
            "b = y == 1.0\n",
        )
        assert report.ok
        assert report.suppressed == 2

    def test_pragma_names_multiple_rules(self, tmp_path):
        report = lint_source(
            tmp_path,
            "import random\n"
            "v = random.random() == 0.5  "
            "# repro: allow(float-equality, unseeded-rng): test stub\n",
        )
        assert report.ok
        assert report.suppressed == 2

    def test_pragma_for_another_rule_does_not_cover(self, tmp_path):
        report = lint_source(
            tmp_path,
            "ok = x == 0.0  # repro: allow(unseeded-rng): wrong rule\n",
        )
        assert rule_names(report) == ["float-equality"]

    def test_two_pragmas_in_one_comment_both_apply(self, tmp_path):
        # Regression: the parser used to stop at the first pragma of a
        # line, silently dropping every later one.
        report = lint_source(
            tmp_path,
            "import random\n"
            "v = random.random() == 0.5  "
            "# repro: allow(float-equality): exact  "
            "# repro: allow(unseeded-rng): stub\n",
        )
        assert report.ok
        assert report.suppressed == 2


class TestPragmaParser:
    def test_comma_separated_rules_share_the_justification(self):
        parsed = parse_suppressions(
            "x = 1  # repro: allow(rule-a, rule-b): one reason for both\n"
        )
        assert parsed.by_line[1] == frozenset({"rule-a", "rule-b"})
        assert parsed.justifications[(1, "rule-a")] == "one reason for both"
        assert parsed.justifications[(1, "rule-b")] == "one reason for both"

    def test_multiple_pragmas_keep_their_own_justifications(self):
        parsed = parse_suppressions(
            "x = 1  # repro: allow(rule-a): reason a  "
            "# repro: allow(rule-b): reason b\n"
        )
        assert parsed.by_line[1] == frozenset({"rule-a", "rule-b"})
        assert parsed.justifications[(1, "rule-a")] == "reason a"
        assert parsed.justifications[(1, "rule-b")] == "reason b"

    def test_missing_justification_is_recorded_empty(self):
        parsed = parse_suppressions("x = 1  # repro: allow(rule-a)\n")
        assert parsed.by_line[1] == frozenset({"rule-a"})
        assert parsed.justifications[(1, "rule-a")] == ""

    def test_file_wide_justifications(self):
        parsed = parse_suppressions(
            "# repro: allow-file(rule-a): whole-file fixture\n"
        )
        assert parsed.file_wide == frozenset({"rule-a"})
        assert (
            parsed.justifications[(FILE_WIDE_LINE, "rule-a")]
            == "whole-file fixture"
        )

    def test_justification_for_diagnostic(self):
        parsed = parse_suppressions(
            "# repro: allow(rule-a): documented reason\n" "x = 1\n"
        )
        covered = Diagnostic(
            path="f.py", line=2, column=1, rule="rule-a", message="m"
        )
        uncovered = Diagnostic(
            path="f.py", line=2, column=1, rule="rule-b", message="m"
        )
        assert parsed.covers(covered)
        assert parsed.justification_for(covered) == "documented reason"
        assert not parsed.covers(uncovered)
        assert parsed.justification_for(uncovered) is None

    def test_empty_rule_list_is_ignored(self):
        parsed = parse_suppressions("x = 1  # repro: allow(): nothing\n")
        assert parsed.by_line == {}


# ----------------------------------------------------------------------
# Framework and CLI
# ----------------------------------------------------------------------


class TestFramework:
    def test_every_rule_documents_its_paper_invariant(self):
        for rule in ALL_RULES:
            assert rule.name
            assert rule.description
            assert rule.paper_ref

    def test_syntax_errors_are_reported_and_fail(self, tmp_path):
        report = lint_source(tmp_path, "def broken(:\n")
        assert not report.ok
        assert report.errors and "module.py" in report.errors[0]

    def test_directories_are_walked_recursively(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "deep.py").write_text("flag = x == 0.0\n")
        report = analyze([tmp_path], rules=ALL_RULES)
        assert rule_names(report) == ["float-equality"]

    def test_cli_exit_codes(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("value = 1\n")
        dirty = tmp_path / "dirty.py"
        dirty.write_text("flag = x == 0.0\n")

        assert main([str(clean)]) == 0
        assert main([str(dirty)]) == 1
        out = capsys.readouterr().out
        assert "[float-equality]" in out
        assert main([str(tmp_path / "missing.py")]) == 2
        assert main(["--rule", "no-such-rule", str(clean)]) == 2

    def test_cli_rule_filter_and_listing(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("flag = x == 0.0\n")
        assert main(["--rule", "unseeded-rng", str(dirty)]) == 0
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ALL_RULES:
            assert rule.name in out

    def test_repo_sources_and_tests_are_clean(self):
        # The acceptance bar of the tooling PR: the shipped code passes its
        # own linter (pre-existing violations fixed or suppressed with a
        # justification).
        report = analyze([REPO_ROOT / "src", REPO_ROOT / "tests"], rules=ALL_RULES)
        assert report.ok, "\n".join(d.format() for d in report.diagnostics)

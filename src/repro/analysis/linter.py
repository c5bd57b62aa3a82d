"""The repo-specific AST lint pass.

Generic linters cannot know that ``φ(o)`` is a probability, that uncertainty
regions must be built through :class:`~repro.core.context.EvaluationContext`
or that benchmark hot paths may not read wall clocks.  This module provides
the small framework — diagnostics, suppression comments, file walking and
the CLI — while the rules themselves live in :mod:`repro.analysis.rules`,
each documenting the paper invariant it protects.  The whole-program
checkers (:mod:`repro.analysis.checkers`) emit the same
:class:`Diagnostic` objects and share the suppression machinery; they are
orchestrated by :mod:`repro.analysis.driver`.

Suppressions
------------

A diagnostic is suppressed by a pragma comment naming its rule, either on
the flagged line or on the line directly above it::

    value = snapshot_region(ctx, ...)  # repro: allow(context-bypass): unit test of the low-level builder

    # repro: allow(float-equality): sentinel comparison, value is exact
    if marker == 1.0:

Several rules can be named in one pragma, comma separated — the
justification after the closing parenthesis then applies to each of
them — and one comment may carry several pragmas, each with its own
justification::

    # repro: allow(context-bypass, cache-coherence): rebuild path, generation bumped by caller
    # repro: allow(determinism): int-only sum  # repro: allow(wall-clock): cold path

A whole file opts out of one rule with a file-level pragma anywhere in the
file (used by unit tests that exist to exercise a low-level API)::

    # repro: allow-file(context-bypass): this file tests snapshot_region itself

Justifications are parsed and kept (``Suppressions.justification_for``)
so tools and reviewers can audit them; an empty justification is legal
but frowned upon.

Usage
-----

``python -m repro.analysis [paths ...]`` lints the given files/directories
(defaulting to ``src`` and ``tests``) and exits non-zero when any
diagnostic survives suppression.  ``--check-all`` additionally runs the
whole-program checkers; see ``--help`` for baselines, output formats,
caching, ``--jobs`` and ``--profile``.
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle:
    # rules import the Rule base class from this module)
    from .rules import Rule

__all__ = [
    "Diagnostic",
    "LintReport",
    "Suppressions",
    "lint_file",
    "main",
    "parse_suppressions",
]

#: ``# repro: allow(rule-a, rule-b)`` / ``# repro: allow-file(rule)``;
#: the justification is the ``: free text`` after the closing parenthesis,
#: running until the next pragma on the same line (if any).
_PRAGMA = re.compile(r"#\s*repro:\s*allow(?P<scope>-file)?\(\s*(?P<rules>[^)]*)\)")


@dataclass(frozen=True, slots=True)
class Diagnostic:
    """One finding: a rule violation at a source location."""

    path: str
    line: int
    column: int
    rule: str
    message: str

    def format(self) -> str:
        """``path:line:col: [rule] message`` — the text output line."""
        return f"{self.path}:{self.line}:{self.column}: [{self.rule}] {self.message}"


@dataclass(slots=True)
class LintReport:
    """The outcome of linting a set of files."""

    diagnostics: list[Diagnostic] = field(default_factory=list)
    files_checked: int = 0
    suppressed: int = 0
    errors: list[str] = field(default_factory=list)
    """Files that could not be parsed (reported, and fail the run)."""

    @property
    def ok(self) -> bool:
        return not self.diagnostics and not self.errors


#: File-wide suppressions are recorded under this pseudo line number.
FILE_WIDE_LINE = 0


@dataclass(frozen=True, slots=True)
class Suppressions:
    """Parsed pragma comments of one file."""

    by_line: dict[int, frozenset[str]]
    file_wide: frozenset[str]
    justifications: dict[tuple[int, str], str]
    """(line, rule) -> justification text ('' when none was written);
    file-wide pragmas use line :data:`FILE_WIDE_LINE`."""

    def covers(self, diagnostic: Diagnostic) -> bool:
        if diagnostic.rule in self.file_wide:
            return True
        for line in (diagnostic.line, diagnostic.line - 1):
            if diagnostic.rule in self.by_line.get(line, frozenset()):
                return True
        return False

    def justification_for(self, diagnostic: Diagnostic) -> str | None:
        """The pragma justification covering ``diagnostic``, if covered."""
        for line in (diagnostic.line, diagnostic.line - 1):
            if diagnostic.rule in self.by_line.get(line, frozenset()):
                return self.justifications.get((line, diagnostic.rule), "")
        if diagnostic.rule in self.file_wide:
            return self.justifications.get(
                (FILE_WIDE_LINE, diagnostic.rule), ""
            )
        return None


def parse_suppressions(source: str) -> Suppressions:
    """Parse every ``# repro: allow...`` pragma in ``source``.

    Handles several comma-separated rules per pragma (the trailing
    justification applies to each) and several pragmas per line (each
    keeps its own justification, running up to the next pragma).
    """
    by_line: dict[int, frozenset[str]] = {}
    file_wide: set[str] = set()
    justifications: dict[tuple[int, str], str] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        matches = list(_PRAGMA.finditer(text))
        for index, match in enumerate(matches):
            names = [
                name.strip()
                for name in match.group("rules").split(",")
                if name.strip()
            ]
            if not names:
                continue
            end = (
                matches[index + 1].start()
                if index + 1 < len(matches)
                else len(text)
            )
            trailer = text[match.end() : end].strip()
            justification = (
                trailer[1:].strip() if trailer.startswith(":") else ""
            )
            if match.group("scope"):
                file_wide.update(names)
                for name in names:
                    justifications.setdefault(
                        (FILE_WIDE_LINE, name), justification
                    )
            else:
                by_line[lineno] = by_line.get(lineno, frozenset()) | frozenset(
                    names
                )
                for name in names:
                    justifications[(lineno, name)] = justification
    return Suppressions(
        by_line=by_line,
        file_wide=frozenset(file_wide),
        justifications=justifications,
    )


def lint_file(
    path: Path,
    rules: Sequence["Rule"],
    report: LintReport,
    *,
    preparsed: tuple[str, ast.Module],
) -> None:
    """Lint one parsed file into ``report``.

    Args:
        path: The file to lint.
        rules: The rules to run.
        report: Receives diagnostics/suppression counts.
        preparsed: Its ``(source, tree)`` from the driver's parse stage.
    """
    from repro.obs import span

    source, tree = preparsed
    report.files_checked += 1
    suppressions = parse_suppressions(source)
    for rule in rules:
        if not rule.applies_to(path):
            continue
        with span(f"analysis.rule.{rule.name}"):
            found = rule.check(tree, str(path))
        for diagnostic in found:
            if suppressions.covers(diagnostic):
                report.suppressed += 1
            else:
                report.diagnostics.append(diagnostic)


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    from .rules import ALL_RULES, rules_by_name

    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "Paper-invariant static checks for the repro codebase: "
            "per-file rules, plus whole-program seam / "
            "cache-coherence / determinism checkers (--check-all)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src", "tests"],
        help="files or directories to lint (default: src tests)",
    )
    parser.add_argument(
        "--rule",
        action="append",
        default=None,
        metavar="NAME",
        help="run only the named per-file rule (repeatable)",
    )
    parser.add_argument(
        "--checker",
        action="append",
        default=None,
        metavar="NAME",
        help=(
            "run only the named whole-program checker (repeatable; "
            "implies the checker pass)"
        ),
    )
    parser.add_argument(
        "--check-all",
        action="store_true",
        help="run the per-file rules AND the whole-program checkers",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list the available per-file rules and exit",
    )
    parser.add_argument(
        "--list-checkers",
        action="store_true",
        help="list the available whole-program checkers and exit",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format for findings (default: text)",
    )
    parser.add_argument(
        "--baseline",
        metavar="PATH",
        default=None,
        help="subtract grandfathered findings recorded in this file",
    )
    parser.add_argument(
        "--write-baseline",
        metavar="PATH",
        default=None,
        help="write the surviving findings to PATH as a baseline and exit 0",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="parse files with N forked workers (default: 1)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="report per-rule / per-checker wall time via repro.obs spans",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore and do not write the analysis result cache",
    )
    parser.add_argument(
        "--cache-path",
        metavar="PATH",
        default=None,
        help="analysis cache location (default: .repro-analysis-cache.json)",
    )
    parser.add_argument(
        "--report-tests",
        action="store_true",
        help=(
            "report checker findings in tests/benchmarks/examples too "
            "(skipped by default — tests exercise seams on purpose)"
        ),
    )
    args = parser.parse_args(argv)

    registry = rules_by_name()
    from .checkers import checkers_by_name

    checker_registry = checkers_by_name()

    if args.list_rules or args.list_checkers:
        if args.list_rules:
            for name in sorted(registry):
                rule = registry[name]
                print(f"{name:20s} {rule.description}")
                if rule.paper_ref:
                    print(f"{'':20s} protects: {rule.paper_ref}")
        if args.list_checkers:
            for name in sorted(checker_registry):
                checker = checker_registry[name]
                print(f"{name:20s} {checker.description}")
                if checker.paper_ref:
                    print(f"{'':20s} protects: {checker.paper_ref}")
        return 0

    if args.rule:
        unknown = [name for name in args.rule if name not in registry]
        if unknown:
            print(f"unknown rule(s): {', '.join(unknown)}", file=sys.stderr)
            print(f"available: {', '.join(sorted(registry))}", file=sys.stderr)
            return 2
        rules: Sequence["Rule"] = [registry[name] for name in args.rule]
    else:
        rules = ALL_RULES

    checkers = None
    if args.checker:
        unknown = [
            name for name in args.checker if name not in checker_registry
        ]
        if unknown:
            print(f"unknown checker(s): {', '.join(unknown)}", file=sys.stderr)
            print(
                f"available: {', '.join(sorted(checker_registry))}",
                file=sys.stderr,
            )
            return 2
        checkers = [checker_registry[name] for name in args.checker]

    missing = [path for path in args.paths if not Path(path).exists()]
    if missing:
        print(f"no such path(s): {', '.join(missing)}", file=sys.stderr)
        return 2

    from .driver import run_cli

    return run_cli(args, rules=rules, checkers=checkers)

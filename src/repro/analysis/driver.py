"""One analyzer pass: every check over one parse, and the CLI.

:func:`analyze` walks the target paths, parses each file once, builds
the :class:`~repro.analysis.program.ProjectModel` and its
:class:`~repro.analysis.callgraph.CallGraph` once, runs every check of
:data:`ALL_CHECKS` over them and applies each file's suppression pragmas
once.  Output is ``text`` (one ``path:line:col: [rule] message`` per
finding) or ``json`` (a stable machine-readable document).

Usage::

    python -m repro.analysis [paths ...] [--format text|json] [--report-tests] [--list]

The paths default to ``src`` and ``tests``; the exit code is 0 when no
finding survives its pragmas, 1 otherwise and 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .callgraph import CallGraph
from .checkers import CacheCoherenceChecker, DeterminismChecker, SeamChecker
from .linter import Check, Diagnostic, parse_suppressions
from .program import ProjectModel, iter_python_files, parse_files
from .rules import (
    ContextBypassRule,
    FloatEqualityRule,
    MutableDefaultRule,
    UnseededRngRule,
    WallClockRule,
)

__all__ = [
    "ALL_CHECKS",
    "AnalysisReport",
    "analyze",
    "checks_by_name",
    "main",
    "render_json",
]

#: Every check: the per-file rules, then the whole-program checkers.
ALL_CHECKS: tuple[Check, ...] = (
    FloatEqualityRule(),
    UnseededRngRule(),
    ContextBypassRule(),
    MutableDefaultRule(),
    WallClockRule(),
    SeamChecker(),
    CacheCoherenceChecker(),
    DeterminismChecker(),
)


def checks_by_name() -> dict[str, Check]:
    """Name (the suppression token) -> check, for :data:`ALL_CHECKS`."""
    return {check.name: check for check in ALL_CHECKS}


@dataclass(slots=True)
class AnalysisReport:
    """The outcome of one analyzer pass."""

    diagnostics: list[Diagnostic] = field(default_factory=list)
    files_checked: int = 0
    suppressed: int = 0
    errors: list[str] = field(default_factory=list)
    """Files that could not be read or parsed (reported, and fail the run)."""

    @property
    def ok(self) -> bool:
        """True when the run produced no findings and no errors."""
        return not self.diagnostics and not self.errors


def analyze(
    paths: Sequence[Path | str],
    *,
    checks: Sequence[Check] = ALL_CHECKS,
    report_all: bool = False,
) -> AnalysisReport:
    """Run ``checks`` over ``paths``.

    Args:
        paths: Files or directories (directories walked recursively,
            ``fixtures`` / ``__pycache__`` skipped).
        checks: The checks to run.
        report_all: Report checker findings in tests/benchmarks/examples
            too (rules always report there).

    Returns:
        The report, diagnostics sorted by location.
    """
    report = AnalysisReport()
    files = list(iter_python_files(Path(p) for p in paths))
    parsed = parse_files(files, errors=report.errors)
    report.files_checked = len(parsed)
    model = ProjectModel.build(files, parsed=parsed)
    graph = CallGraph.build(model)
    suppressions = {
        path: parse_suppressions(source) for path, source, _tree in parsed
    }
    for check in checks:
        for diagnostic in check.check(model, graph, report_all=report_all):
            pragmas = suppressions.get(diagnostic.path)
            if pragmas is not None and pragmas.covers(diagnostic):
                report.suppressed += 1
            else:
                report.diagnostics.append(diagnostic)
    report.diagnostics.sort(key=lambda d: (d.path, d.line, d.column, d.rule))
    return report


def render_json(report: AnalysisReport) -> str:
    """A stable machine-readable report document."""
    payload = {
        "version": 2,
        "findings": [
            {
                "path": d.path,
                "line": d.line,
                "column": d.column,
                "rule": d.rule,
                "message": d.message,
            }
            for d in report.diagnostics
        ],
        "errors": list(report.errors),
        "summary": {
            "findings": len(report.diagnostics),
            "suppressed": report.suppressed,
            "files_checked": report.files_checked,
            "ok": report.ok,
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def main(argv: Sequence[str] | None = None) -> int:
    """``python -m repro.analysis``; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "Paper-invariant static checks for the repro codebase: the "
            "per-file rules and the whole-program seam / cache-coherence "
            "/ determinism checkers, over one parse."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src", "tests"],
        help="files or directories to analyze (default: src tests)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format for findings (default: text)",
    )
    parser.add_argument(
        "--report-tests",
        action="store_true",
        help=(
            "report checker findings in tests/benchmarks/examples too "
            "(skipped by default — tests exercise seams on purpose)"
        ),
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="list every check and the invariant it protects, then exit",
    )
    args = parser.parse_args(argv)

    if args.list:
        for check in ALL_CHECKS:
            print(f"{check.name:20s} {check.description}")
            print(f"{'':20s} protects: {check.paper_ref}")
        return 0

    missing = [path for path in args.paths if not Path(path).exists()]
    if missing:
        print(f"no such path(s): {', '.join(missing)}", file=sys.stderr)
        return 2

    report = analyze(args.paths, report_all=args.report_tests)
    if args.format == "json":
        print(render_json(report))
    else:
        for diagnostic in report.diagnostics:
            print(diagnostic.format())
        for error in report.errors:
            print(f"error: {error}", file=sys.stderr)
        print(
            f"{len(report.diagnostics)} finding(s), "
            f"{report.suppressed} suppressed, "
            f"{report.files_checked} file(s) checked",
            file=sys.stderr,
        )
    return 0 if report.ok else 1

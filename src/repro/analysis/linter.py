"""Diagnostics, the check interface and pragma suppressions.

Generic linters cannot know that ``φ(o)`` is a probability, that uncertainty
regions must be built through :class:`~repro.core.context.EvaluationContext`
or that benchmark hot paths may not read wall clocks.  This module holds
the small framework every repo-specific check shares: the
:class:`Diagnostic` a finding is reported as, the :class:`Check`
interface, and the suppression pragmas.  The checks themselves live in
:mod:`repro.analysis.rules` (per-file AST rules) and
:mod:`repro.analysis.checkers` (whole-program checkers), each
documenting the paper invariant it protects; :mod:`repro.analysis.driver`
runs them all over one parse.

Suppressions
------------

A diagnostic is suppressed by a pragma comment naming its check, either on
the flagged line or on the line directly above it::

    value = snapshot_region(ctx, ...)  # repro: allow(context-bypass): unit test of the low-level builder

    # repro: allow(float-equality): sentinel comparison, value is exact
    if marker == 1.0:

Several checks can be named in one pragma, comma separated — the
justification after the closing parenthesis then applies to each of
them — and one comment may carry several pragmas, each with its own
justification::

    # repro: allow(context-bypass, cache-coherence): rebuild path, generation bumped by caller
    # repro: allow(determinism): int-only sum  # repro: allow(wall-clock): cold path

A whole file opts out of one check with a file-level pragma anywhere in the
file (used by unit tests that exist to exercise a low-level API)::

    # repro: allow-file(context-bypass): this file tests snapshot_region itself

Justifications are parsed and kept (``Suppressions.justification_for``)
so tools and reviewers can audit them; an empty justification is legal
but frowned upon.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import PurePath

from .callgraph import CallGraph
from .program import ProjectModel

__all__ = [
    "Check",
    "Diagnostic",
    "Suppressions",
    "is_test_path",
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


#: Path parts whose modules are parsed into the model (their calls count
#: for reachability) but not *reported* on by default by the
#: whole-program checkers: tests exercise seams on purpose, benchmarks
#: and examples drive public APIs.
_UNREPORTED_PARTS = frozenset({"tests", "benchmarks", "examples"})


def is_test_path(path: str) -> bool:
    """Whether ``path`` belongs to tests/benchmarks/examples."""
    return bool(_UNREPORTED_PARTS.intersection(PurePath(path).parts))


class Check:
    """One named check over the parsed program.

    Subclasses set ``name`` (the suppression token), ``description`` (one
    line for ``--list``) and ``paper_ref`` (the paper equation or
    architectural invariant the check protects), and implement
    :meth:`check`.  ``report_all`` is set when fixture trees are
    analyzed with tests included (``--report-tests``).
    """

    name: str = ""
    description: str = ""
    paper_ref: str = ""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"

    def check(
        self, model: ProjectModel, graph: CallGraph, *, report_all: bool = False
    ) -> list[Diagnostic]:
        """All violations in the program."""
        raise NotImplementedError

    def reportable(self, path: str, *, report_all: bool) -> bool:
        """Whether findings in ``path`` are reported (see ``is_test_path``)."""
        return report_all or not is_test_path(path)

    def diagnostic(
        self, path: str, node: ast.AST | None, message: str,
        line: int | None = None, col: int | None = None,
    ) -> Diagnostic:
        """A diagnostic at ``node`` (or an explicit ``line``/``col``)."""
        return Diagnostic(
            path=path,
            line=line if line is not None else getattr(node, "lineno", 1),
            column=(
                col if col is not None else getattr(node, "col_offset", 0)
            )
            + 1,
            rule=self.name,
            message=message,
        )


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

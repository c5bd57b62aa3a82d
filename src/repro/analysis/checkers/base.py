"""The whole-program checker protocol.

A :class:`Checker` is the interprocedural sibling of the per-file
:class:`~repro.analysis.rules.base.Rule`: it runs once over the parsed
:class:`~repro.analysis.program.ProjectModel` plus its
:class:`~repro.analysis.callgraph.CallGraph`, and emits the same
:class:`~repro.analysis.linter.Diagnostic` objects — so suppression
pragmas (``# repro: allow(seam): ...``), baselines and the output
formats are shared with the linter.
"""

from __future__ import annotations

import ast

from ..linter import Diagnostic
from ..callgraph import CallGraph
from ..program import ProjectModel

__all__ = ["Checker", "is_test_path"]

#: Path parts whose modules are parsed into the model (their calls count
#: for reachability) but not *reported* on by default: tests exercise
#: seams on purpose, benchmarks and examples drive public APIs.
_UNREPORTED_PARTS = frozenset({"tests", "benchmarks", "examples"})


def is_test_path(path: str) -> bool:
    """Whether ``path`` belongs to tests/benchmarks/examples."""
    from pathlib import PurePath

    return bool(_UNREPORTED_PARTS.intersection(PurePath(path).parts))


class Checker:
    """One named whole-program check.

    Subclasses set ``name`` (the suppression token), ``description`` and
    ``paper_ref``, and implement :meth:`check`.  ``report_all`` is set by
    the driver when fixture trees are analyzed (tests included).
    """

    name: str = ""
    description: str = ""
    paper_ref: str = ""

    def check(
        self, model: ProjectModel, graph: CallGraph, *, report_all: bool = False
    ) -> list[Diagnostic]:
        """All violations in the program."""
        raise NotImplementedError

    def reportable(self, path: str, *, report_all: bool) -> bool:
        """Whether findings in ``path`` are reported (see module note)."""
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

"""The per-file rule: a check that sees one module's AST at a time."""

from __future__ import annotations

import ast
from pathlib import Path

from ..callgraph import CallGraph
from ..linter import Check, Diagnostic
from ..program import ProjectModel

__all__ = ["Rule"]


class Rule(Check):
    """A :class:`~repro.analysis.linter.Check` run file by file.

    Subclasses implement :meth:`check_tree` and may narrow
    :meth:`applies_to`.  Rules report on every file, tests included,
    whatever ``report_all`` says.
    """

    def applies_to(self, path: Path) -> bool:
        """Whether the rule runs on ``path`` at all (default: every file)."""
        return True

    def check_tree(self, tree: ast.Module, path: str) -> list[Diagnostic]:
        """All violations in one parsed file."""
        raise NotImplementedError

    def check(
        self, model: ProjectModel, graph: CallGraph, *, report_all: bool = False
    ) -> list[Diagnostic]:
        # The parse list: every parsed file, in parse order.
        return [
            diagnostic
            for module in model.files
            if self.applies_to(Path(module.path))
            for diagnostic in self.check_tree(module.tree, module.path)
        ]

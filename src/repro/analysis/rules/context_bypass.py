"""Rule: uncertainty regions are built through the EvaluationContext.

The context's region/presence caches are only coherent if every region
derivation goes through :meth:`EvaluationContext.snapshot_region` /
:meth:`EvaluationContext.interval_uncertainty`: a direct call to the
low-level builders skips the memo layer, the stats counters and the
params-epoch stamping, so cached and fresh answers can silently diverge.
This rule flags imports and bare calls of the builders outside the
caching layer itself; ``__init__.py`` re-exports are exempt.  Mutator
calls are the ``seam`` checker's (:mod:`repro.analysis.seams`).
"""

from __future__ import annotations

import ast
from pathlib import Path

from ..linter import Diagnostic
from .base import Rule

__all__ = ["ContextBypassRule"]

#: The low-level builder functions owned by the caching layer.
_GUARDED = frozenset({"snapshot_region", "interval_uncertainty"})

#: Path fragments of the modules allowed to touch the builders directly:
#: the context itself and the uncertainty package implementing them.
_BUILDER_ALLOWED = (
    ("core", "uncertainty"),
    ("core", "context.py"),
    ("repro", "analysis"),
)


class ContextBypassRule(Rule):
    name = "context-bypass"
    description = (
        "no direct snapshot_region()/interval_uncertainty() outside the "
        "EvaluationContext caching layer"
    )
    paper_ref = (
        "cache coherence: memoized UR(o, t) / UR(o, [ts, te]) must be the "
        "only derivation path (Sections 3.1-3.2)"
    )

    def applies_to(self, path: Path) -> bool:
        parts = path.parts
        return not any(
            parts[i : i + len(fragment)] == fragment
            for fragment in _BUILDER_ALLOWED
            for i in range(len(parts) - len(fragment) + 1)
        )

    def check(self, tree: ast.Module, path: str) -> list[Diagnostic]:
        reexports = Path(path).name == "__init__.py"
        found: list[tuple[ast.AST, str]] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and not reexports:
                found.extend(
                    (node, f"import of low-level {alias.name}(); derive "
                     f"regions through EvaluationContext.{alias.name} so "
                     "the memo layer stays coherent")
                    for alias in node.names
                    if alias.name in _GUARDED
                )
            elif isinstance(node, ast.Import):
                found.extend(
                    (node, f"import of {alias.name}; derive regions through "
                     "EvaluationContext instead of the uncertainty modules")
                    for alias in node.names
                    if "core.uncertainty" in alias.name
                )
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in _GUARDED
            ):
                found.append((node, f"direct {node.func.id}() call bypasses "
                              "the EvaluationContext region cache"))
        return [self.diagnostic(path, node, message) for node, message in found]

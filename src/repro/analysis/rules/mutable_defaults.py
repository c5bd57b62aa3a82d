"""Rule: no mutable default arguments.

A list/dict/set default is created once at function definition time and
shared across calls — state leaks between queries, which is exactly the
class of bug the evaluation context was introduced to rule out.  Use
``None`` and construct inside the function.
"""

from __future__ import annotations

import ast

from ..linter import Diagnostic
from .base import Rule

__all__ = ["MutableDefaultRule"]

_MUTABLE_CALLS = frozenset({"list", "dict", "set", "defaultdict", "OrderedDict"})


def _is_mutable(node: ast.expr | None) -> bool:
    if node is None:
        return False
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None
        )
        return name in _MUTABLE_CALLS
    return False


class MutableDefaultRule(Rule):
    name = "mutable-default"
    description = "no mutable default arguments (shared across calls)"
    paper_ref = "EvaluationContext state isolation (no cross-query leakage)"

    def check_tree(self, tree: ast.Module, path: str) -> list[Diagnostic]:
        diagnostics: list[Diagnostic] = []
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            defaults = [*node.args.defaults, *node.args.kw_defaults]
            for default in defaults:
                if _is_mutable(default):
                    diagnostics.append(
                        self.diagnostic(
                            path,
                            default,
                            "mutable default argument is shared across calls; "
                            "default to None and construct per call",
                        )
                    )
        return diagnostics

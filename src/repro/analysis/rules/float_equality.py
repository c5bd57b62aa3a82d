"""Rule: no exact equality against float literals.

Presence values, areas and flows are grid-quadrature results — sums and
ratios of floats — so ``x == 0.35`` silently becomes dead code after any
refactor that reorders an accumulation.  The paper's determinism guarantee
(identical flows from the iterative and join strategies) rests on comparing
such values with a tolerance: use :func:`math.isclose` or the shared
helpers :func:`repro.geometry.area.near_zero` /
:func:`repro.geometry.area.floats_equal`.

``assert`` statements are exempt: exact expected values in tests (and the
suite's cached-vs-uncached bit-identity checks) are intentional exact
comparisons, not control flow that can silently rot.
"""

from __future__ import annotations

import ast

from ..linter import Diagnostic
from .base import Rule

__all__ = ["FloatEqualityRule"]


def _is_float_literal(node: ast.expr) -> bool:
    if isinstance(node, ast.Constant):
        return type(node.value) is float
    # A negated literal (``-0.5``) parses as UnaryOp(USub, Constant).
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        return _is_float_literal(node.operand)
    return False


class _Visitor(ast.NodeVisitor):
    def __init__(self, rule: "FloatEqualityRule", path: str):
        self.rule = rule
        self.path = path
        self.diagnostics: list[Diagnostic] = []

    def visit_Assert(self, node: ast.Assert) -> None:
        # Exact expected values in assertions are intentional; do not
        # descend into the asserted expression.
        return

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            if _is_float_literal(left) or _is_float_literal(right):
                self.diagnostics.append(
                    self.rule.diagnostic(
                        self.path,
                        node,
                        "exact float equality; use math.isclose or "
                        "repro.geometry.area.near_zero/floats_equal",
                    )
                )
                break
        self.generic_visit(node)


class FloatEqualityRule(Rule):
    name = "float-equality"
    description = "no ==/!= against float literals outside assert statements"
    paper_ref = (
        "Definition 1 (presence is a quadrature ratio) and the iterative-"
        "vs-join flow-identity guarantee"
    )

    def check_tree(self, tree: ast.Module, path: str) -> list[Diagnostic]:
        visitor = _Visitor(self, path)
        visitor.visit(tree)
        return visitor.diagnostics

"""Rule: every random source must carry an explicit seed.

The paper's experiments (Section 5.1: random-waypoint workloads, Zipf room
popularity) are reproducible only because every generator derives from a
config seed.  A ``random.Random()`` without arguments, a module-level
``random.*`` call (shared global state) or a legacy ``np.random.*``
sampling call silently re-randomises datasets between runs — and with it
every benchmark figure.  Construct ``random.Random(seed)`` /
``np.random.default_rng(seed)`` and thread the instance through.
"""

from __future__ import annotations

import ast

from ..linter import Diagnostic
from .base import Rule

__all__ = ["UnseededRngRule"]

#: NumPy constructors that are fine when given a seed argument.
_NP_SEEDABLE = {"default_rng", "Generator", "RandomState", "SeedSequence"}


def _attribute_chain(node: ast.expr) -> list[str]:
    """``np.random.default_rng`` -> ["np", "random", "default_rng"]."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    else:
        return []
    return parts[::-1]


class UnseededRngRule(Rule):
    name = "unseeded-rng"
    description = "no random.Random()/module-level random.*/np.random.* without a seed"
    paper_ref = "Section 5.1 workload generation (reproducible seeds end to end)"

    def check_tree(self, tree: ast.Module, path: str) -> list[Diagnostic]:
        diagnostics: list[Diagnostic] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            message = self._violation(node)
            if message is not None:
                diagnostics.append(self.diagnostic(path, node, message))
        return diagnostics

    def _violation(self, node: ast.Call) -> str | None:
        has_args = bool(node.args or node.keywords)
        chain = _attribute_chain(node.func)
        # Bare ``Random()`` (imported via ``from random import Random``).
        if chain == ["Random"] and not has_args:
            return "Random() without a seed; pass an explicit seed"
        if len(chain) < 2:
            return None
        head, *rest = chain
        if head == "random":
            if rest == ["Random"]:
                if not has_args:
                    return "random.Random() without a seed; pass an explicit seed"
                return None
            # Any other random.* call uses the interpreter-global RNG.
            return (
                f"module-level random.{rest[0]}() uses the shared global RNG; "
                "construct random.Random(seed) and thread it through"
            )
        if head in ("np", "numpy") and rest and rest[0] == "random":
            if len(rest) == 1:
                return None  # bare attribute access, e.g. an annotation
            func = rest[1]
            if func in _NP_SEEDABLE:
                if not has_args:
                    return f"np.random.{func}() without a seed; pass an explicit seed"
                return None
            return (
                f"legacy np.random.{func}() uses the global NumPy RNG; "
                "use np.random.default_rng(seed)"
            )
        return None

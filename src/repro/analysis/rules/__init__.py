"""The repo-specific lint rules.

Each rule protects one paper equation or architectural invariant; the
mapping is documented per rule (``paper_ref``) and collected in
``docs/paper_mapping.md`` ("Correctness tooling").
"""

from __future__ import annotations

from .base import Rule
from .context_bypass import ContextBypassRule
from .float_equality import FloatEqualityRule
from .mutable_defaults import MutableDefaultRule
from .unseeded_rng import UnseededRngRule
from .wall_clock import WallClockRule

__all__ = [
    "ALL_RULES",
    "ContextBypassRule",
    "FloatEqualityRule",
    "MutableDefaultRule",
    "Rule",
    "UnseededRngRule",
    "WallClockRule",
    "rules_by_name",
]

#: The default rule set, in diagnostic-output order.
ALL_RULES: tuple[Rule, ...] = (
    FloatEqualityRule(),
    UnseededRngRule(),
    ContextBypassRule(),
    MutableDefaultRule(),
    WallClockRule(),
)


def rules_by_name() -> dict[str, Rule]:
    """Name -> rule instance for the default rule set."""
    return {rule.name: rule for rule in ALL_RULES}

"""The per-file rules: checks that see one module's AST at a time.

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
    "ContextBypassRule",
    "FloatEqualityRule",
    "MutableDefaultRule",
    "Rule",
    "UnseededRngRule",
    "WallClockRule",
]

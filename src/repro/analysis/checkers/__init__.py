"""Whole-program checkers for the repro.analysis v2 engine.

A checker runs once over the parsed :class:`~repro.analysis.program.ProjectModel`
plus its :class:`~repro.analysis.callgraph.CallGraph` (unlike the
per-file :mod:`~repro.analysis.rules`, which see one AST at a time).
"""

from __future__ import annotations

from .base import Checker, is_test_path
from .cache_coherence import CacheCoherenceChecker
from .determinism import DeterminismChecker
from .seam import SeamChecker

__all__ = [
    "ALL_CHECKERS",
    "CacheCoherenceChecker",
    "Checker",
    "DeterminismChecker",
    "SeamChecker",
    "checkers_by_name",
    "is_test_path",
]

ALL_CHECKERS: tuple[Checker, ...] = (
    SeamChecker(),
    CacheCoherenceChecker(),
    DeterminismChecker(),
)


def checkers_by_name() -> dict[str, Checker]:
    """Registered checkers keyed by their suppression token."""
    return {checker.name: checker for checker in ALL_CHECKERS}

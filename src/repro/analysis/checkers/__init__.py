"""Whole-program checkers over the parsed program.

A checker runs once over the parsed :class:`~repro.analysis.program.ProjectModel`
plus its :class:`~repro.analysis.callgraph.CallGraph` (unlike the
per-file :mod:`~repro.analysis.rules`, which see one AST at a time).
By default its findings under tests/benchmarks/examples are not reported
(:func:`~repro.analysis.linter.is_test_path`).
"""

from __future__ import annotations

from .cache_coherence import CacheCoherenceChecker
from .determinism import DeterminismChecker
from .seam import SeamChecker

__all__ = [
    "CacheCoherenceChecker",
    "DeterminismChecker",
    "SeamChecker",
]

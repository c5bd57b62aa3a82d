"""Static analysis for the query engine.

The evaluation stack caches uncertainty regions and presence values
(:mod:`repro.core.context`), so a single silently broken invariant — a
presence outside ``[0, 1]``, a negative region area, an unseeded RNG in a
workload generator, or a region built outside the caching layer — is
amplified into every downstream snapshot/interval top-k answer.  This
package is the correctness tooling that keeps those invariants machine
checked (``python -m repro.analysis src tests``):

* :mod:`repro.analysis.linter` — the :class:`Diagnostic` findings, the
  :class:`Check` interface and the ``# repro: allow(...)`` pragmas;
* :mod:`repro.analysis.rules` — the per-file checks, each documenting
  the paper equation or architectural invariant it protects;
* :mod:`repro.analysis.program` / :mod:`repro.analysis.callgraph` — a
  one-parse project model (symbol tables, attribute-write index) plus an
  approximate, annotation-driven call graph;
* :mod:`repro.analysis.seams` — the one declarative table of guarded
  mutators (receivers, scope, allowed callers) that the ``seam`` and
  ``cache-coherence`` checkers read;
* :mod:`repro.analysis.checkers` — the interprocedural checks over that
  model (seam, cache-coherence, determinism);
* :mod:`repro.analysis.driver` — :data:`ALL_CHECKS`, the one pass that
  runs them over one parse, the text/json output and the CLI.

The runtime contract checks the engine calls at its seams live outside
this package, in :mod:`repro.contracts`, so importing the engine loads
none of the analyzer.
"""

from .callgraph import CallGraph, CallSite
from .driver import ALL_CHECKS, AnalysisReport, analyze, checks_by_name, main
from .linter import Check, Diagnostic
from .program import ProjectModel

__all__ = [
    "ALL_CHECKS",
    "AnalysisReport",
    "CallGraph",
    "CallSite",
    "Check",
    "Diagnostic",
    "ProjectModel",
    "analyze",
    "checks_by_name",
    "main",
]

"""Static analysis for the query engine.

The evaluation stack caches uncertainty regions and presence values
(:mod:`repro.core.context`), so a single silently broken invariant — a
presence outside ``[0, 1]``, a negative region area, an unseeded RNG in a
workload generator, or a region built outside the caching layer — is
amplified into every downstream snapshot/interval top-k answer.  This
package is the correctness tooling that keeps those invariants machine
checked:

* :mod:`repro.analysis.linter` — an AST-based lint pass with repo-specific
  rules derived from the paper (``python -m repro.analysis src tests``);
* :mod:`repro.analysis.rules` — the individual per-file rules, each
  documenting the paper equation or architectural invariant it protects;
* :mod:`repro.analysis.program` / :mod:`repro.analysis.callgraph` — the
  v2 whole-program layer: a one-parse project model (symbol tables,
  attribute-write index) plus an approximate, annotation-driven call
  graph;
* :mod:`repro.analysis.seams` — the one declarative table of guarded
  mutators (receivers, scope, allowed callers) that the ``seam`` and
  ``cache-coherence`` checkers read;
* :mod:`repro.analysis.checkers` — interprocedural checkers over that
  model (seam, cache-coherence, determinism), run with
  ``python -m repro.analysis --check-all``;
* :mod:`repro.analysis.driver` — orchestration: shared parsing, the
  result cache, baselines and the text/json/sarif output formats.

The runtime contract checks the engine calls at its seams live outside
this package, in :mod:`repro.contracts`, so importing the engine loads
none of the analyzer.
"""

from .callgraph import CallGraph, CallSite
from .checkers import ALL_CHECKERS, Checker, checkers_by_name
from .driver import AnalysisReport, analyze
from .linter import Diagnostic, LintReport, main
from .program import ProjectModel
from .rules import ALL_RULES, rules_by_name

__all__ = [
    "ALL_CHECKERS",
    "ALL_RULES",
    "AnalysisReport",
    "CallGraph",
    "CallSite",
    "Checker",
    "Diagnostic",
    "LintReport",
    "ProjectModel",
    "analyze",
    "checkers_by_name",
    "main",
    "rules_by_name",
]

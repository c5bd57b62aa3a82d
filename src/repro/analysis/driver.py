"""Orchestration for the v2 analysis: rules + checkers, cache, formats.

The driver owns everything above the individual rule/checker level:

* walking the target paths once and parsing each file at most once per
  run,
* running the per-file rules and the whole-program checkers over the
  same parse results, with pragma suppression applied uniformly,
* the **result cache** (``.repro-analysis-cache.json``): per-file lint
  results keyed by content digest + rule set, whole-program checker
  results keyed by the digest of every analyzed file; both keys also
  carry one digest of the analyzer's own source, so editing a rule or
  checker invalidates every cached finding — a warm run does nothing
  but ``stat()`` calls, one read of the analyzer and a JSON load, well
  under the 2 s budget,
* the **baseline** workflow (``--baseline`` / ``--write-baseline``):
  grandfathered findings are recorded as ``(path, rule, message)``
  entries with counts (line numbers drift too much to key on), and only
  *new* findings fail the run,
* the output formats: ``text`` (one ``path:line:col: [rule] message``
  per finding), ``json`` (stable machine-readable document) and
  ``sarif`` (SARIF 2.1.0, for code-scanning upload).
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, Sequence

from .callgraph import CallGraph
from .checkers import ALL_CHECKERS, Checker
from .linter import Diagnostic, lint_file, LintReport, parse_suppressions
from .program import ProjectModel, iter_python_files, parse_files

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .rules import Rule

__all__ = [
    "AnalysisReport",
    "AnalysisCache",
    "DEFAULT_CACHE_PATH",
    "analyze",
    "load_baseline",
    "render_json",
    "render_sarif",
    "run_cli",
    "subtract_baseline",
    "write_baseline_file",
]

DEFAULT_CACHE_PATH = Path(".repro-analysis-cache.json")
_CACHE_VERSION = 1
_SARIF_VERSION = "2.1.0"
_SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


@dataclass(slots=True)
class AnalysisReport:
    """Combined outcome of the rule and checker passes."""

    diagnostics: list[Diagnostic] = field(default_factory=list)
    files_checked: int = 0
    suppressed: int = 0
    errors: list[str] = field(default_factory=list)
    baselined: int = 0
    """Findings swallowed by the baseline file."""

    @property
    def ok(self) -> bool:
        """True when the run produced no findings and no errors."""
        return not self.diagnostics and not self.errors


# ----------------------------------------------------------------------
# Result cache
# ----------------------------------------------------------------------


def _digest_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:20]


def _analyzer_digest() -> str:
    """One digest of every ``.py`` file of this analyzer package.

    Folded into every cache key: results computed by an edited rule or
    checker must never be served again.
    """
    root = Path(__file__).resolve().parent
    hasher = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        hasher.update(path.relative_to(root).as_posix().encode("utf-8"))
        hasher.update(_digest_bytes(path.read_bytes()).encode("ascii"))
    return hasher.hexdigest()[:20]


class AnalysisCache:
    """mtime+size → content-digest → result cache, one JSON file.

    A file's entry is trusted when its ``(mtime_ns, size)`` still match —
    no re-hash, no re-read.  When they differ the content is re-hashed;
    an unchanged digest (e.g. ``touch``) still reuses the results.
    Corrupt or version-skewed cache files are silently discarded.
    """

    def __init__(self, path: Path) -> None:
        self.path = path
        self._files: dict[str, dict] = {}
        self._programs: dict[str, dict] = {}
        self._dirty = False
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
            if payload.get("version") == _CACHE_VERSION:
                self._files = dict(payload.get("files", {}))
                self._programs = dict(payload.get("programs", {}))
        except (OSError, ValueError):
            pass

    # -- digests -------------------------------------------------------

    def digest_for(self, path: Path) -> str | None:
        """The content digest of ``path``, cached by stat signature."""
        try:
            stat = path.stat()
        except OSError:
            return None
        key = str(path)
        entry = self._files.get(key)
        if (
            entry is not None
            and entry.get("mtime_ns") == stat.st_mtime_ns
            and entry.get("size") == stat.st_size
        ):
            digest = entry.get("digest")
            if isinstance(digest, str):
                return digest
        try:
            digest = _digest_bytes(path.read_bytes())
        except OSError:
            return None
        if entry is None or entry.get("digest") != digest:
            entry = {"mtime_ns": stat.st_mtime_ns, "size": stat.st_size,
                     "digest": digest, "lint": {}}
        else:
            entry = dict(entry)
            entry["mtime_ns"] = stat.st_mtime_ns
            entry["size"] = stat.st_size
        self._files[key] = entry
        self._dirty = True
        return digest

    # -- per-file lint results ----------------------------------------

    def lint_result(
        self, path: Path, digest: str, rules_key: str
    ) -> tuple[list[Diagnostic], int] | None:
        entry = self._files.get(str(path))
        if entry is None or entry.get("digest") != digest:
            return None
        cached = entry.get("lint", {}).get(rules_key)
        if cached is None:
            return None
        diagnostics = [_diag_from_list(item) for item in cached["diagnostics"]]
        return diagnostics, int(cached["suppressed"])

    def store_lint_result(
        self,
        path: Path,
        digest: str,
        rules_key: str,
        diagnostics: Sequence[Diagnostic],
        suppressed: int,
    ) -> None:
        entry = self._files.setdefault(str(path), {"digest": digest, "lint": {}})
        entry.setdefault("lint", {})[rules_key] = {
            "diagnostics": [_diag_to_list(d) for d in diagnostics],
            "suppressed": suppressed,
        }
        self._dirty = True

    # -- whole-program checker results --------------------------------

    @staticmethod
    def program_key(
        digests: Mapping[str, str],
        checker_names: Sequence[str],
        report_all: bool,
        analyzer: str,
    ) -> str:
        payload = json.dumps(
            {
                "files": sorted(digests.items()),
                "checkers": sorted(checker_names),
                "report_all": report_all,
                "analyzer": analyzer,
            },
            sort_keys=True,
        )
        return _digest_bytes(payload.encode("utf-8"))

    def program_result(self, key: str) -> tuple[list[Diagnostic], int] | None:
        cached = self._programs.get(key)
        if cached is None:
            return None
        diagnostics = [_diag_from_list(item) for item in cached["diagnostics"]]
        return diagnostics, int(cached["suppressed"])

    def store_program_result(
        self, key: str, diagnostics: Sequence[Diagnostic], suppressed: int
    ) -> None:
        # Keep only the latest program result: stale keys accumulate
        # one per edit otherwise.
        self._programs = {
            key: {
                "diagnostics": [_diag_to_list(d) for d in diagnostics],
                "suppressed": suppressed,
            }
        }
        self._dirty = True

    # -- persistence ---------------------------------------------------

    def save(self) -> None:
        if not self._dirty:
            return
        payload = {
            "version": _CACHE_VERSION,
            "files": self._files,
            "programs": self._programs,
        }
        try:
            self.path.write_text(
                json.dumps(payload, sort_keys=True), encoding="utf-8"
            )
        except OSError:  # pragma: no cover - read-only checkouts
            pass


def _diag_to_list(diagnostic: Diagnostic) -> list:
    return [
        diagnostic.path,
        diagnostic.line,
        diagnostic.column,
        diagnostic.rule,
        diagnostic.message,
    ]


def _diag_from_list(item: Sequence) -> Diagnostic:
    path, line, column, rule, message = item
    return Diagnostic(
        path=str(path),
        line=int(line),
        column=int(column),
        rule=str(rule),
        message=str(message),
    )


# ----------------------------------------------------------------------
# The analysis itself
# ----------------------------------------------------------------------


def analyze(
    paths: Sequence[Path | str],
    *,
    rules: Sequence["Rule"] = (),
    checkers: Sequence[Checker] = (),
    report_all: bool = False,
    cache: AnalysisCache | None = None,
) -> AnalysisReport:
    """Run ``rules`` and ``checkers`` over ``paths`` with caching.

    Args:
        paths: Files or directories (directories walked recursively,
            ``fixtures`` / ``__pycache__`` skipped).
        rules: Per-file rules to run (may be empty).
        checkers: Whole-program checkers to run (may be empty).
        report_all: Report checker findings in tests/benchmarks too.
        cache: Optional result cache (caller saves it).

    Returns:
        The combined report, diagnostics sorted by location.
    """
    from repro.obs import span

    report = AnalysisReport()
    files = list(iter_python_files(Path(p) for p in paths))

    digests: dict[str, str] = {}
    for path in files:
        if cache is not None:
            digest = cache.digest_for(path)
        else:
            try:
                digest = _digest_bytes(path.read_bytes())
            except OSError as exc:
                report.errors.append(f"{path}: {exc}")
                continue
        if digest is None:
            report.errors.append(f"{path}: unreadable")
            continue
        digests[str(path)] = digest

    analyzer = _analyzer_digest()
    rules_key = analyzer + ":" + ",".join(sorted(rule.name for rule in rules))
    checker_names = [checker.name for checker in checkers]

    # Decide what actually needs parsing.
    lint_misses: list[Path] = []
    lint_hits: dict[str, tuple[list[Diagnostic], int]] = {}
    if rules:
        for path_str, digest in digests.items():
            cached = (
                cache.lint_result(Path(path_str), digest, rules_key)
                if cache is not None
                else None
            )
            if cached is not None:
                lint_hits[path_str] = cached
            else:
                lint_misses.append(Path(path_str))

    program_key = AnalysisCache.program_key(
        digests, checker_names, report_all, analyzer
    )
    program_cached = (
        cache.program_result(program_key)
        if cache is not None and checkers
        else None
    )

    need_parse: list[Path] = list(lint_misses)
    if checkers and program_cached is None:
        seen = {str(p) for p in need_parse}
        need_parse.extend(
            Path(path_str)
            for path_str in digests
            if path_str not in seen
        )

    with span("analysis.parse"):
        parse_errors: list[str] = []
        parsed = parse_files(sorted(need_parse), errors=parse_errors)
    report.errors.extend(parse_errors)
    parsed_by_path: dict[str, tuple[str, ast.Module]] = {
        path_str: (source, tree) for path_str, source, tree in parsed
    }

    # ---- per-file rules ----------------------------------------------
    if rules:
        for path_str in sorted(digests):
            hit = lint_hits.get(path_str)
            if hit is not None:
                diagnostics, suppressed = hit
                report.diagnostics.extend(diagnostics)
                report.suppressed += suppressed
                report.files_checked += 1
                continue
            preparsed = parsed_by_path.get(path_str)
            if preparsed is None:
                continue  # parse error, already recorded
            path = Path(path_str)
            file_report = LintReport()
            lint_file(path, rules, file_report, preparsed=preparsed)
            report.diagnostics.extend(file_report.diagnostics)
            report.suppressed += file_report.suppressed
            report.files_checked += file_report.files_checked
            if cache is not None:
                cache.store_lint_result(
                    path,
                    digests[path_str],
                    rules_key,
                    file_report.diagnostics,
                    file_report.suppressed,
                )
    else:
        report.files_checked = len(digests)

    # ---- whole-program checkers --------------------------------------
    if checkers:
        if program_cached is not None:
            diagnostics, suppressed = program_cached
            report.diagnostics.extend(diagnostics)
            report.suppressed += suppressed
        else:
            analyzable = [
                (path_str, source, tree)
                for path_str, (source, tree) in sorted(parsed_by_path.items())
            ]
            with span("analysis.model"):
                model = ProjectModel.build(
                    [item[0] for item in analyzable], parsed=analyzable
                )
            with span("analysis.callgraph"):
                graph = CallGraph.build(model)
            kept: list[Diagnostic] = []
            suppressed = 0
            suppressions_by_path = {
                path_str: parse_suppressions(source)
                for path_str, (source, _tree) in parsed_by_path.items()
            }
            for checker in checkers:
                with span(f"analysis.checker.{checker.name}"):
                    found = checker.check(model, graph, report_all=report_all)
                for diagnostic in found:
                    suppressions = suppressions_by_path.get(diagnostic.path)
                    if suppressions is not None and suppressions.covers(
                        diagnostic
                    ):
                        suppressed += 1
                    else:
                        kept.append(diagnostic)
            report.diagnostics.extend(kept)
            report.suppressed += suppressed
            if cache is not None and not report.errors:
                cache.store_program_result(program_key, kept, suppressed)

    report.diagnostics.sort(key=lambda d: (d.path, d.line, d.column, d.rule))
    return report


# ----------------------------------------------------------------------
# Baseline workflow
# ----------------------------------------------------------------------


def load_baseline(path: Path) -> dict[tuple[str, str, str], int]:
    """Baseline entries as ``(path, rule, message) -> count``."""
    payload = json.loads(path.read_text(encoding="utf-8"))
    counts: dict[tuple[str, str, str], int] = {}
    for item in payload.get("findings", []):
        key = (str(item["path"]), str(item["rule"]), str(item["message"]))
        counts[key] = counts.get(key, 0) + int(item.get("count", 1))
    return counts


def subtract_baseline(
    diagnostics: Sequence[Diagnostic],
    baseline: Mapping[tuple[str, str, str], int],
) -> tuple[list[Diagnostic], int]:
    """Drop diagnostics covered by ``baseline``; returns (kept, dropped)."""
    remaining = dict(baseline)
    kept: list[Diagnostic] = []
    dropped = 0
    for diagnostic in diagnostics:
        key = (diagnostic.path, diagnostic.rule, diagnostic.message)
        if remaining.get(key, 0) > 0:
            remaining[key] -= 1
            dropped += 1
        else:
            kept.append(diagnostic)
    return kept, dropped


def write_baseline_file(
    path: Path, diagnostics: Sequence[Diagnostic]
) -> None:
    """Record ``diagnostics`` as the grandfathered baseline at ``path``."""
    counts: dict[tuple[str, str, str], int] = {}
    for diagnostic in diagnostics:
        key = (diagnostic.path, diagnostic.rule, diagnostic.message)
        counts[key] = counts.get(key, 0) + 1
    findings = [
        {"path": key[0], "rule": key[1], "message": key[2], "count": count}
        for key, count in sorted(counts.items())
    ]
    payload = {"version": 1, "findings": findings}
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


# ----------------------------------------------------------------------
# Output formats
# ----------------------------------------------------------------------


def render_json(report: AnalysisReport) -> str:
    """A stable machine-readable report document."""
    payload = {
        "version": 1,
        "findings": [
            {
                "path": d.path,
                "line": d.line,
                "column": d.column,
                "rule": d.rule,
                "message": d.message,
            }
            for d in report.diagnostics
        ],
        "errors": list(report.errors),
        "summary": {
            "findings": len(report.diagnostics),
            "suppressed": report.suppressed,
            "baselined": report.baselined,
            "files_checked": report.files_checked,
            "ok": report.ok,
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def render_sarif(
    report: AnalysisReport,
    rules: Sequence["Rule"] = (),
    checkers: Sequence[Checker] = (),
) -> str:
    """A SARIF 2.1.0 document (GitHub code-scanning compatible)."""
    rule_meta = []
    seen: set[str] = set()
    for obj in [*rules, *checkers]:
        if obj.name in seen:
            continue
        seen.add(obj.name)
        meta = {
            "id": obj.name,
            "shortDescription": {"text": obj.description},
        }
        if obj.paper_ref:
            meta["help"] = {"text": f"Protects: {obj.paper_ref}"}
        rule_meta.append(meta)
    # Findings may reference rules not passed in (cached results).
    for diagnostic in report.diagnostics:
        if diagnostic.rule not in seen:
            seen.add(diagnostic.rule)
            rule_meta.append({"id": diagnostic.rule})
    results = [
        {
            "ruleId": d.rule,
            "level": "error",
            "message": {"text": d.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {"uri": d.path},
                        "region": {
                            "startLine": d.line,
                            "startColumn": d.column,
                        },
                    }
                }
            ],
        }
        for d in report.diagnostics
    ]
    payload = {
        "$schema": _SARIF_SCHEMA,
        "version": _SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-analysis",
                        "informationUri": (
                            "https://github.com/"  # repo-relative docs
                        ),
                        "rules": rule_meta,
                    }
                },
                "results": results,
                "invocations": [
                    {
                        "executionSuccessful": not report.errors,
                        "toolExecutionNotifications": [
                            {"level": "error", "message": {"text": error}}
                            for error in report.errors
                        ],
                    }
                ],
            }
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


# ----------------------------------------------------------------------
# CLI glue
# ----------------------------------------------------------------------


def run_cli(
    args: argparse.Namespace,
    *,
    rules: Sequence["Rule"],
    checkers: Sequence[Checker] | None,
) -> int:
    """Execute the parsed ``python -m repro.analysis`` invocation."""
    import repro.obs as obs

    profiling = bool(args.profile)
    if profiling:
        obs.reset()
        obs.enable()
    try:
        run_checkers = bool(args.check_all or checkers is not None)
        active_checkers: Sequence[Checker] = (
            checkers
            if checkers is not None
            else (list(ALL_CHECKERS) if run_checkers else [])
        )
        cache = (
            None
            if args.no_cache
            else AnalysisCache(Path(args.cache_path or DEFAULT_CACHE_PATH))
        )
        report = analyze(
            args.paths,
            rules=rules,
            checkers=active_checkers,
            report_all=bool(args.report_tests),
            cache=cache,
        )
        if cache is not None:
            cache.save()

        if args.baseline:
            baseline_path = Path(args.baseline)
            if baseline_path.exists():
                try:
                    baseline = load_baseline(baseline_path)
                except (OSError, ValueError, KeyError) as exc:
                    print(
                        f"invalid baseline {baseline_path}: {exc}",
                        file=sys.stderr,
                    )
                    return 2
                report.diagnostics, report.baselined = subtract_baseline(
                    report.diagnostics, baseline
                )

        if args.write_baseline:
            write_baseline_file(Path(args.write_baseline), report.diagnostics)
            print(
                f"wrote {len(report.diagnostics)} finding(s) to "
                f"{args.write_baseline}",
                file=sys.stderr,
            )
            return 0

        if args.format == "json":
            print(render_json(report))
        elif args.format == "sarif":
            print(render_sarif(report, rules=rules, checkers=active_checkers))
        else:
            for diagnostic in report.diagnostics:
                print(diagnostic.format())
            for error in report.errors:
                print(f"error: {error}", file=sys.stderr)
            summary = (
                f"{len(report.diagnostics)} finding(s), "
                f"{report.suppressed} suppressed, "
                f"{report.baselined} baselined, "
                f"{report.files_checked} file(s) checked"
            )
            print(summary, file=sys.stderr)
        if profiling:
            print(obs.format_table(), file=sys.stderr)
        return 0 if report.ok else 1
    finally:
        if profiling:
            obs.disable()

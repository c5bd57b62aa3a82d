"""The whole-program checkers against their seeded-violation fixtures.

Each fixture under ``tests/analysis/fixtures/`` plants violations at
known lines; the tests here pin the exact ``(rule, file, line)`` each
checker must report — and that the surrounding *good* code stays clean.
The directory is excluded from tree walks (``iter_python_files``), so
the repo-wide clean gates never see it; the fixtures are passed as
explicit file paths.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.callgraph import CallGraph
from repro.analysis.checkers import (
    CacheCoherenceChecker,
    DeterminismChecker,
    SeamChecker,
)
from repro.analysis.driver import ALL_CHECKS, analyze, checks_by_name
from repro.analysis.linter import is_test_path
from repro.analysis.program import ProjectModel
from repro.analysis.seams import ATTRIBUTE_WRITE, SEAMS

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).resolve().parent / "fixtures"

SHARD_FIXTURE = FIXTURES / "shard_safety_violation.py"
CACHE_FIXTURE = FIXTURES / "cache_coherence_violation.py"
DETERMINISM_FIXTURE = FIXTURES / "determinism_violation.py"
STORAGE_FIXTURE = FIXTURES / "storage_seam_violation.py"


@pytest.fixture(scope="module")
def fixture_graph():
    model = ProjectModel.build(
        [SHARD_FIXTURE, CACHE_FIXTURE, DETERMINISM_FIXTURE, STORAGE_FIXTURE]
    )
    assert not model.errors
    return model, CallGraph.build(model)


def findings(checker, fixture_graph, path: Path) -> set[int]:
    model, graph = fixture_graph
    return {
        d.line
        for d in checker.check(model, graph, report_all=True)
        if d.path == str(path)
    }


class TestShardSafety:
    def test_flags_seeded_lines(self, fixture_graph):
        lines = findings(SeamChecker(), fixture_graph, SHARD_FIXTURE)
        assert 26 in lines  # external attribute write shard.artree = ...
        assert 31 in lines  # shard.ingest_batch() outside the seam

    def test_implementation_methods_stay_clean(self, fixture_graph):
        # ShardState.__init__ / ingest_batch mutate self: not flagged.
        lines = findings(SeamChecker(), fixture_graph, SHARD_FIXTURE)
        assert not lines.intersection({13, 14, 17})


class TestStorageSeam:
    def test_flags_seeded_lines(self, fixture_graph):
        lines = findings(SeamChecker(), fixture_graph, STORAGE_FIXTURE)
        assert 33 in lines  # backend.append_rows() outside the seam
        assert 38 in lines  # backend.rewrite_tail_row() outside the seam
        assert 43 in lines  # external write backend.generation = ...

    def test_write_through_path_stays_clean(self, fixture_graph):
        # The table's own append() (the seam) and the backend's self
        # mutations are the implementation, not violations.
        lines = findings(SeamChecker(), fixture_graph, STORAGE_FIXTURE)
        assert not lines.intersection({12, 15, 19, 24, 28})


class TestCacheCoherence:
    def test_flags_mutators_without_invalidation(self, fixture_graph):
        lines = findings(
            CacheCoherenceChecker(), fixture_graph, CACHE_FIXTURE
        )
        assert lines == {41, 45}

    def test_direct_and_transitive_invalidation_pass(self, fixture_graph):
        # good_append calls note_append directly; good_via_helper
        # reaches it through _bump: neither is flagged.
        lines = findings(
            CacheCoherenceChecker(), fixture_graph, CACHE_FIXTURE
        )
        assert not lines.intersection({28, 33})


class TestDeterminism:
    def test_flags_unordered_float_accumulation(self, fixture_graph):
        lines = findings(
            DeterminismChecker(), fixture_graph, DETERMINISM_FIXTURE
        )
        assert lines == {9, 16, 23, 29}

    def test_sorted_int_and_insertion_ordered_pass(self, fixture_graph):
        lines = findings(
            DeterminismChecker(), fixture_graph, DETERMINISM_FIXTURE
        )
        # good_sorted_total / good_counter / good_insertion_dict bodies.
        assert not lines.intersection(set(range(33, 60)))


class TestFramework:
    def test_registry_and_paper_refs(self):
        assert list(checks_by_name()) == [
            "float-equality",
            "unseeded-rng",
            "context-bypass",
            "mutable-default",
            "wall-clock",
            "seam",
            "cache-coherence",
            "determinism",
        ]
        for check in ALL_CHECKS:
            assert check.description
            assert check.paper_ref

    def test_test_paths_are_skipped_by_default(self, fixture_graph):
        # Except the seam checker's: tests that drive a seam on purpose
        # say so with an allow-file(seam) pragma.
        model, graph = fixture_graph
        checkers = (SeamChecker(), CacheCoherenceChecker(), DeterminismChecker())
        for checker in checkers:
            found = checker.check(model, graph, report_all=False)
            if checker.name == "seam":
                assert found
            else:
                assert found == []

    def test_is_test_path(self):
        assert is_test_path("tests/analysis/fixtures/x.py")
        assert is_test_path("benchmarks/bench_engine.py")
        assert not is_test_path("src/repro/core/shard.py")


class TestSeamTable:
    """Every row names what ``src`` really defines, so a renamed or new
    mutator cannot silently drop out of the table."""

    @pytest.fixture(scope="class")
    def src_model(self):
        return ProjectModel.build([REPO_ROOT / "src"])

    def test_methods_exist_on_every_receiver(self, src_model):
        for seam in SEAMS:
            for receiver in seam.receivers:
                class_info = src_model.resolve_class(receiver)
                assert class_info is not None, (seam.method, receiver)
                if seam.method != ATTRIBUTE_WRITE:
                    assert src_model.mro_methods(class_info, seam.method), (
                        seam.method,
                        receiver,
                    )

    def test_allowed_modules_classes_and_scopes_exist(self, src_model):
        for seam in SEAMS:
            for module in (*seam.modules, *([seam.scope] if seam.scope else [])):
                assert module in src_model.modules, (seam.method, module)
            for cls in seam.classes:
                assert src_model.resolve_class(cls), (seam.method, cls)

    def test_cache_coherence_tracks_every_table_mutator(self):
        # A table mutator missing here would escape cache-coherence.
        tracked = {
            (seam.method, receiver)
            for seam in SEAMS
            if seam.tracked
            for receiver in seam.receivers
        }
        for method in ("append", "append_batch", "extend_episode", "close_episode"):
            assert (method, "LiveTrackingTable") in tracked
        for method in ("append_record", "patch_tail"):
            assert (method, "ARTree") in tracked


class TestRepoIsClean:
    def test_src_passes_every_checker(self):
        report = analyze([REPO_ROOT / "src"])
        assert not report.errors
        assert report.diagnostics == [], "\n".join(
            d.format() for d in report.diagnostics
        )

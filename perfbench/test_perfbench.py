"""Smoke tests of the benchmark at a tiny scale.

Run from the repository root with ``python -m pytest perfbench -q``.  Each
workload runs end to end through ``perfbench/run.py``; the tests check
the result line against ``BENCHMARK.json`` and that the deterministic
per-layer counts repeat exactly for one seed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Any

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: Counts fixed by the operation list alone.  The served query answers
#: depend on how queries interleave with ingest, so only the storage and
#: ingest counts repeat there.
DETERMINISTIC = {
    "adhoc_cold": ("ur.builds", "presence.evals", "join.heap_pops", "storage.rows_appended"),
    "dashboard_warm": ("ur.builds", "presence.evals", "join.heap_pops", "storage.rows_appended"),
    "serve_ingest": ("storage.rows_appended", "engine.ingest.records", "monitor.ticks"),
}


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess[str]:
    return subprocess.run(
        [
            sys.executable, str(cwd / "perfbench" / "run.py"),
            "--workload", workload,
            "--seed", "3",
            "--seconds", "2",
            "--trace", str(trace),
            "--scale", "0.05",
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def _result(workload: str, trace: int) -> tuple[dict[str, Any], dict[str, Any]]:
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    detail = json.loads(next(l for l in lines if l.startswith("# detail "))[len("# detail "):])
    return json.loads(lines[-1]), detail


def _units(entries: list[dict[str, Any]]) -> dict[str, str]:
    return {entry["name"]: entry["unit"] for entry in entries}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_gated_metric(workload: str) -> None:
    result, _ = _result(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == _units(SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload: str) -> None:
    (first, detail), (second, _) = _result(workload, 1), _result(workload, 1)
    for result in (first, second):
        assert result["correct"] is True
        assert {n: m["unit"] for n, m in result["metrics"].items()} == _units(SPEC["per_layer"])
    for name in DETERMINISTIC[workload]:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    layers = {name: m["value"] for name, m in first["metrics"].items()}
    if workload == "dashboard_warm":
        assert layers["ur.builds"] == 0 and layers["presence.evals"] == 0
    if workload == "serve_ingest":
        assert layers["storage.rows_appended"] == detail["rows"]
        assert layers["serve.requests"] > 0


def test_checkout_without_sources_fails_without_a_result(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    proc = _run("adhoc_cold", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

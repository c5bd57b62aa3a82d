"""Shared benchmark fixtures.

The pytest benches assert the system's claims (live ingest, sharding,
monitor caches, serving, substrates) at a small fixed scale.  The paper's
figures are timed by ``python -m repro.bench``; end-to-end system numbers
come from ``perfbench``.
"""

from __future__ import annotations

import pytest

from repro.bench import BenchContext

#: Default population scale for the benches (fraction of the paper's
#: |O|); the ingest, serve and shard benches read ``REPRO_BENCH_SCALE``.
DEFAULT_SCALE = 0.05

METHODS = ("iterative", "join")


@pytest.fixture(scope="session")
def synthetic():
    """(dataset, engine) for the default synthetic setting."""
    return BenchContext(scale=DEFAULT_SCALE, repeats=1).synthetic()


def run_benchmark(benchmark, fn):
    """One warm-up call, then two timed rounds (queries are not micro-ops)."""
    fn()
    benchmark.pedantic(fn, rounds=2, iterations=1)

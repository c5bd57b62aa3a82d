"""The observation-only invariant, enforced with runtime contracts on:
tracing and metrics must not perturb query answers (bit-identical top-k
flows) or the engine's ``stats()`` counters."""

import pytest

from repro import obs
from repro.contracts import set_contracts
from repro.datagen.config import SyntheticConfig
from repro.datagen.synthetic import build_synthetic_dataset

K = 5
CONFIG = SyntheticConfig(num_objects=16, duration=500.0, rooms_per_side=4, seed=7)


@pytest.fixture()
def contracts_on():
    set_contracts(True)
    try:
        yield
    finally:
        set_contracts(None)


@pytest.fixture(scope="module")
def dataset():
    return build_synthetic_dataset(CONFIG)


def _run_queries(dataset):
    """All four query-matrix cells on a fresh engine; returns the answers
    (as plain tuples) and the engine's counters."""
    engine = dataset.engine()
    t = dataset.mid_time()
    window = (t - 120.0, t)
    answers = {}
    for method in ("iterative", "join"):
        snapshot = engine.snapshot_topk(t, K, method=method)
        interval = engine.interval_topk(*window, K, method=method)
        answers[f"snapshot_{method}"] = (snapshot.poi_ids, snapshot.flows)
        answers[f"interval_{method}"] = (interval.poi_ids, interval.flows)
    return answers, engine.stats()


def test_tracing_does_not_perturb_results_or_stats(dataset, contracts_on):
    obs.disable()
    plain_answers, plain_stats = _run_queries(dataset)

    obs.reset()
    obs.enable()
    try:
        traced_answers, traced_stats = _run_queries(dataset)
        spans = obs.TRACER.snapshot()
    finally:
        obs.disable()
        obs.reset()

    # The instrumented run actually traced something...
    assert spans, "expected spans from an instrumented query run"
    top_level = {row.path[0] for row in spans}
    assert "query.snapshot.iterative" in top_level
    assert "query.interval.join" in top_level

    # ...and perturbed nothing: float-exact answers, equal counters.
    assert traced_answers == plain_answers
    assert traced_stats == plain_stats


def test_monitor_counters_do_not_leak_into_engine_stats(dataset):
    """Metric increments (monitor.ticks etc.) live in the obs registry,
    never in FlowEngine.stats()."""
    from repro.core.monitor import SnapshotTopKMonitor

    engine = dataset.engine()
    monitor = SnapshotTopKMonitor(engine, k=K, method="join")
    t = dataset.mid_time()

    obs.enable()
    try:
        monitor.advance(t)
        monitor.advance(t + 5.0)
    finally:
        obs.disable()

    ticks = obs.REGISTRY.get("monitor.ticks")
    assert ticks is not None and ticks.value == 2.0
    assert "monitor.ticks" not in engine.stats()

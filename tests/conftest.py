"""Shared fixtures: small but realistic datasets, built once per session.

The heavyweight fixtures (simulated datasets) are session-scoped; tests
must treat them as immutable.
"""

from __future__ import annotations

import pytest

from repro.contracts import set_contracts
from repro.datagen import (
    CphConfig,
    SyntheticConfig,
    build_cph_dataset,
    build_synthetic_dataset,
)
from repro.indoor import (
    DoorGraph,
    IndoorDistanceOracle,
    deploy_office_devices,
    office_building,
    partition_rooms_into_pois,
)


@pytest.fixture(autouse=True)
def _contracts_follow_env():
    """Re-read ``REPRO_CONTRACTS`` after every test.

    The contract flag is read once at import; a test that forces it or
    changes the variable would otherwise leave its setting to the tests
    after it.  Runs after ``monkeypatch`` has restored the environment.
    """
    yield
    set_contracts(None)


SMALL_SYNTHETIC = SyntheticConfig(
    num_objects=40,
    duration=1200.0,
    rooms_per_side=6,
    seed=11,
)

SMALL_CPH = CphConfig(num_passengers=120, horizon=6 * 3600.0, seed=13)


@pytest.fixture(scope="session")
def office_plan():
    return office_building(rooms_per_side=6)


@pytest.fixture(scope="session")
def office_deployment(office_plan):
    return deploy_office_devices(office_plan, detection_range=1.5)


@pytest.fixture(scope="session")
def office_graph(office_plan):
    return DoorGraph(office_plan)


@pytest.fixture(scope="session")
def office_oracle(office_plan, office_graph):
    return IndoorDistanceOracle(office_plan, office_graph)


@pytest.fixture(scope="session")
def office_pois(office_plan):
    return partition_rooms_into_pois(office_plan, count=30, seed=3)


@pytest.fixture(scope="session")
def synthetic_dataset():
    return build_synthetic_dataset(SMALL_SYNTHETIC)


@pytest.fixture(scope="session")
def synthetic_engine(synthetic_dataset):
    return synthetic_dataset.engine()


@pytest.fixture(scope="session")
def cph_dataset():
    return build_cph_dataset(SMALL_CPH)


@pytest.fixture(scope="session")
def cph_engine(cph_dataset):
    return cph_dataset.engine()

from __future__ import annotations

import pytest

import spe


def pytest_addoption(parser):
    parser.addoption(
        "--runslow",
        action="store_true",
        default=False,
        help="run tests marked slow (full-scale reproduction)",
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip = pytest.mark.skip(reason="needs --runslow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


@pytest.fixture(scope="session")
def ref_params():
    return spe.reference_params()


@pytest.fixture(scope="session")
def engine_model(ref_params):
    return spe.build_engine_model(ref_params, 0.95)


@pytest.fixture(scope="session")
def fleet6(ref_params):
    """The seed-6 fleet (500 x 100): its default-start stage-1 search tries |u| near 120."""
    return spe.simulate(ref_params, spe.SimConfig(500, 100, seed=6)).histories

"""Fixtures shared by more than one test module."""

import pytest

from twistknots.casework import SweepConfig, sweep


@pytest.fixture(scope="session")
def sweep_7_6():
    return sweep(SweepConfig("7_6", n_range=4))


@pytest.fixture(scope="session")
def sweep_10_58():
    return sweep(SweepConfig("10_58", n_range=4))

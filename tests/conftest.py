import pytest

from qaroute.hwgraph import builtin_topology


@pytest.fixture(scope="session")
def line4():
    return builtin_topology("line", 4)


@pytest.fixture(scope="session")
def grid6():
    return builtin_topology("grid", 6)


@pytest.fixture(scope="session")
def y6():
    return builtin_topology("y", 6)


@pytest.fixture(scope="session")
def line6():
    return builtin_topology("line", 6)


@pytest.fixture(scope="session")
def grid8():
    return builtin_topology("grid", 8)


@pytest.fixture(scope="session")
def y8():
    return builtin_topology("y", 8)

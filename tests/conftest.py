import pytest

from k3hasse.pipeline import load_fixtures
from k3hasse.surface import build_k3


@pytest.fixture(scope="session")
def fixtures():
    return load_fixtures()


@pytest.fixture(scope="session")
def example_sextet(fixtures):
    return fixtures.sextet


@pytest.fixture(scope="session")
def example_surface(example_sextet):
    return build_k3(example_sextet)


@pytest.fixture(scope="session")
def example_sextic(example_surface):
    return example_surface.branch_sextic

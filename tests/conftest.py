import sys

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


#: functools caches that hold set-up (fields and their tables, the fixtures),
#: the ones a benchmark pass keeps
SETUP_CACHES = {
    ("k3hasse.finitefield", "fq"),
    ("k3hasse.finitefield", "prime_field"),
    ("k3hasse.pipeline", "load_fixtures"),
}


def _clear_memos():
    for name, mod in list(sys.modules.items()):
        if name != "k3hasse" and not name.startswith("k3hasse."):
            continue
        for attr, obj in vars(mod).items():
            if (
                getattr(obj, "__module__", None) == name
                and callable(getattr(obj, "cache_clear", None))
                and (name, attr) not in SETUP_CACHES
            ):
                obj.cache_clear()


@pytest.fixture
def fresh_memos():
    """Every functools cache of the package but the set-up ones, emptied
    before and after the test, so a call count sees no earlier result."""
    _clear_memos()
    yield
    _clear_memos()

import pytest

from crossroads import noncrossing_partitions


@pytest.fixture(scope="session")
def nc_lists():
    """Memoized lists of noncrossing partitions, shared across test modules."""
    cache = {}

    def get(n):
        if n not in cache:
            cache[n] = list(noncrossing_partitions(n))
        return cache[n]

    return get

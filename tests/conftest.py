from itertools import combinations

import pytest

from crossroads import Classification, Kind, can_merge, noncrossing_partitions


def classify_definitional(p):
    """The merge-and-recheck classifier: the first singleton pair that merges cleanly.

    Pairs are tried in lexicographic order, so the witness is the smallest
    mergeable pair. This is the test oracle for ``classify``; it does not
    use the region scan that ``classify`` reads.
    """
    for i, j in combinations(p.singletons, 2):
        if can_merge(p, i, j):
            return Classification(Kind.MARRIAGEABLE, (i, j))
    return Classification(Kind.LONELY)


@pytest.fixture(scope="session")
def nc_lists():
    """Memoized lists of noncrossing partitions, shared across test modules."""
    cache = {}

    def get(n):
        if n not in cache:
            cache[n] = list(noncrossing_partitions(n))
        return cache[n]

    return get

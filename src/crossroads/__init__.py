"""Noncrossing partitions split into lonely and marriageable singles.

A partition of {1, ..., n} is noncrossing when no two blocks interleave
around the circle. Among these, a partition is *marriageable* if two of its
singleton blocks can be merged into a pair without creating a crossing, and
*lonely* otherwise. The two classes partition the Catalan family, and the
same split appears in a road-intersection model where noncrossing lane sets
either admit a valid U-turn swap or do not.

The library enumerates and classifies partitions, counts both classes exactly
from the coefficients of the lonely generating function far past exhaustive
range, evaluates the proved closed formulas and lower bounds, and realizes the
lane-model bijection, with a maximal lane set held as the exit of each entry
(``Msl(exits)``).
"""
from .enumeration import (
    ENUMERATE_CEILING,
    CountJob,
    Tally,
    classified_stream,
    noncrossing_partitions,
    tally,
    tally_range,
)
from .formulas import (
    COUNT_CEILING,
    SequenceRow,
    catalan,
    lower_bound_lonely,
    lower_bound_marriageable,
    nc_count,
    ratio_report,
    two_digits,
)
from .intersection import (
    Msl,
    enumerate_msl,
    is_absolute,
    msl_to_partition,
    partition_to_msl,
)
from .partitions import (
    CeilingExceededError,
    Classification,
    Kind,
    Partition,
    absorb_into_first,
    absorb_into_last,
    add_pair_block,
    add_singleton_pair,
    classify,
    grow_lonely,
    grow_marriageable,
    is_noncrossing,
    nesting_forest,
)
from .reference import MAX_PUBLISHED_N, SEQUENCE_IDS, published_row

__version__ = "0.1.0"

__all__ = [
    "COUNT_CEILING",
    "CeilingExceededError",
    "Classification",
    "CountJob",
    "ENUMERATE_CEILING",
    "Kind",
    "MAX_PUBLISHED_N",
    "Msl",
    "Partition",
    "SEQUENCE_IDS",
    "SequenceRow",
    "Tally",
    "absorb_into_first",
    "absorb_into_last",
    "add_pair_block",
    "add_singleton_pair",
    "catalan",
    "classified_stream",
    "classify",
    "enumerate_msl",
    "grow_lonely",
    "grow_marriageable",
    "is_absolute",
    "is_noncrossing",
    "lower_bound_lonely",
    "lower_bound_marriageable",
    "msl_to_partition",
    "nc_count",
    "nesting_forest",
    "noncrossing_partitions",
    "partition_to_msl",
    "published_row",
    "ratio_report",
    "tally",
    "tally_range",
    "two_digits",
]

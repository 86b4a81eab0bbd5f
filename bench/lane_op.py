"""The benchmark's library op for the lane model, which the CLI does not reach.

For every noncrossing partition of [n] it calls ``partition_to_msl``, then
``is_absolute``, then ``msl_to_partition``, and prints one JSON object with
the number of partitions, of absolute lane sets and of round trips that gave
back their input.

Usage: PYTHONPATH=src python3 bench/lane_op.py --n 10
"""
from __future__ import annotations

import argparse
import json

from crossroads import enumeration, intersection


def round_trip(n: int) -> dict:
    # module attributes, not imported names, so a tracer that rebinds them sees every call
    partitions = absolute = returned = 0
    for p in enumeration.noncrossing_partitions(n):
        msl = intersection.partition_to_msl(p)
        absolute += intersection.is_absolute(msl)
        returned += intersection.msl_to_partition(msl) == p
        partitions += 1
    return {"n": n, "partitions": partitions, "absolute": absolute, "round_trips": returned}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, required=True)
    print(json.dumps(round_trip(parser.parse_args(argv).n)))


if __name__ == "__main__":
    main()

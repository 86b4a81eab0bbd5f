"""The four benchmark workloads as seeded, endless sequences of op cycles.

An op is an argv tuple: a ``crossroads`` subcommand with its options, or the
benchmark's own lane round trip (``lane-op --n N``). Every cycle of a
workload holds the same strata of sizes; the seed picks the jitter inside
each stratum, the formats, the classes and which report gets which size.
A run stops only at a cycle boundary, so the mix a run sees does not depend
on how fast the machine was. The strata are chosen so that, for any number
of cycles, the median op and the p90 op fall inside a group of ops of one
stratum rather than between two strata, which keeps both steady.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterator

from oracle import LANE_OP

FORMATS = ("text", "json", "csv")
CLASSES = (None, "lonely", "marriageable")
MAX_N = 320
"""Largest n any op asks for; the oracle precomputes sequences this far."""


def _jitter(rng: random.Random, value: int, spread: int, lo: int, hi: int) -> int:
    return min(hi, max(lo, value + rng.randint(-spread, spread)))


COUNT_SIZES = (120, 152, 192, 244, 317)
"""Five strata of [120, 320] for count_deep; at the seed an op takes about
0.7, 0.8, 1.2, 2 and 4.5 s, so the strata never overlap in time."""


def count_deep(rng: random.Random) -> list[tuple]:
    """Five ``count`` ops, one per stratum, each jittered by up to 3."""
    return [
        ("count", "--n", str(_jitter(rng, n, 3, 120, 320)), "--format", rng.choice(FORMATS))
        for n in COUNT_SIZES
    ]


def report_sweep(rng: random.Random) -> list[tuple]:
    """Five report ops: table, bfile and conjectures at n about 35, 60 and 85
    (the seed decides which report gets which size), bounds near n = 40 and
    verify at n in [8, 14], which exits 2 from n = 10 on."""
    kinds = ["table", "bfile", "conjectures"]
    rng.shuffle(kinds)
    ops = [
        ("verify", "--max-n", str(rng.randint(8, 14)), "--format", rng.choice(("text", "json"))),
        ("bounds", "--max-n", str(_jitter(rng, 40, 4, 20, 60)), "--format", rng.choice(("text", "json"))),
    ]
    for kind, m in zip(kinds, (35, 60, 85)):
        m = str(_jitter(rng, m, 3, 30, 90))
        if kind == "bfile":
            ops.append(("bfile", "--seq", rng.choice("LM"), "--max-n", m))
        else:
            ops.append((kind, "--max-n", m, "--format", rng.choice(FORMATS)))
    return ops


def enumerate_stream(rng: random.Random) -> list[tuple]:
    """Nine ``enumerate`` ops, three rounds of n = 11, 9, 10: each n gets every
    format and every class filter once, from two orthogonal Latin squares
    relabelled by the seed."""
    formats = rng.sample(FORMATS, 3)
    classes = rng.sample(CLASSES, 3)
    ops = []
    for r in range(3):
        for n in (11, 9, 10):
            argv = ("enumerate", "--n", str(n), "--format", formats[(n + r) % 3])
            wanted = classes[(n + 2 * r) % 3]
            ops.append(argv + (("--class", wanted) if wanted else ()))
    return ops


def lanes(rng: random.Random) -> list[tuple]:
    """The lane round trip at n = 10 twice, 9 and 8, and ``intersection``
    for n = 5, 6, 7 twice each in formats drawn by the seed."""
    ops = [(LANE_OP, "--n", str(n)) for n in (10, 9, 10, 8)]
    ops += [("intersection", "--n", str(n), "--format", rng.choice(FORMATS)) for n in (5, 6, 7, 5, 6, 7)]
    return ops


@dataclass(frozen=True)
class Workload:
    name: str
    setup_op: tuple
    """The trivial first op whose fresh-interpreter time is ``setup_s``."""
    cycle: Callable[[random.Random], list]

    def cycles(self, seed: int) -> Iterator[list]:
        rng = random.Random(seed)
        while True:
            yield self.cycle(rng)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("count_deep", ("count", "--n", "0"), count_deep),
        Workload("report_sweep", ("count", "--n", "0"), report_sweep),
        Workload("enumerate_stream", ("count", "--n", "0"), enumerate_stream),
        # the first intersection op also pays the lazy networkx import
        Workload("lanes", ("intersection", "--n", "1"), lanes),
    )
}

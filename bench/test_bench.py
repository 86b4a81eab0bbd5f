"""Checks of the benchmark itself: the oracle, the seeded op lists and the tracer.

Run from the repository root: python3 -m pytest -q bench
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path[:0] = [str(BENCH), str(SRC)]

import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

PUBLISHED_LONELY_TO_9 = [1, 1, 1, 4, 9, 26, 77, 232, 725, 2299]


def test_cubic_gives_the_published_rows_that_are_not_disputed():
    assert oracle.lonely_numbers(9) == PUBLISHED_LONELY_TO_9


def test_oracle_agrees_with_the_package_routes():
    from crossroads import CountJob, formulas, tally

    seq = oracle.Sequences(40)
    for n in range(41):
        t = tally(CountJob(n, workers=1))
        assert seq.row(n) == (t.lonely, t.marriageable, t.total)
        if n >= 2:
            assert seq.lonely_bound(n) == formulas.lower_bound_lonely(n)
        if n >= 3:
            assert seq.marriageable_bound(n) == formulas.lower_bound_marriageable(n)
    for num, den in [(1, 8), (5, 200), (3, 2), (7415, 2299), (10**40 + 5, 10**41), (0, 3), (2, 3)]:
        assert oracle.two_digits(num, den) == formulas.two_digits(num, den)


@pytest.mark.parametrize("argv, code, output", [
    (("count", "--n", "4", "--format", "json"), 0, b'{"n":4,"lonely":9,"marriageable":6,"total":15}\n'),
    (("count", "--n", "4"), 0, b"n=4: lonely=9 marriageable=5 total=14\nextra\n"),
    (("count", "--n", "4"), 65, b""),
    (("verify", "--max-n", "10"), 0, b""),
    (("enumerate", "--n", "3"), 0, b"1,2,3\n1,2,3\n1,3/2\n1/2,3\n1/2/3\n"),
    (("intersection", "--n", "2"), 0, b"E1>X1,E2>X2 nonabsolute\nE1>X2,E2>X1 nonabsolute\n"),
])
def test_oracle_rejects_wrong_output(argv, code, output):
    seq = oracle.Sequences(12)
    assert oracle.check(argv, code, output, seq, oracle.published_rows(SRC)) is not None


def _first_cycles(name: str, seed: int, count: int = 3) -> list:
    cycles = workloads.WORKLOADS[name].cycles(seed)
    return [next(cycles) for _ in range(count)]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_the_same_ops(name):
    assert _first_cycles(name, 7) == _first_cycles(name, 7)
    assert _first_cycles(name, 7) != _first_cycles(name, 8)


SIZE_RANGES = {
    "count": range(120, 321),
    "table": range(30, 91),
    "bfile": range(30, 91),
    "conjectures": range(30, 91),
    "bounds": range(20, 61),
    "verify": range(8, 15),
    "enumerate": range(9, 12),
    "intersection": range(5, 8),
    oracle.LANE_OP: range(8, 11),
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_ops_stay_inside_the_workload_sizes(name):
    for cycle in _first_cycles(name, 3, count=20):
        for argv in cycle:
            opts = dict(zip(argv[1::2], argv[2::2]))
            size = int(opts.get("--n", opts.get("--max-n")))
            assert size in SIZE_RANGES[argv[0]], argv


def test_each_enumerate_size_gets_every_format_and_class():
    for cycle in _first_cycles("enumerate_stream", 5):
        for n in ("9", "10", "11"):
            opts = [dict(zip(a[1::2], a[2::2])) for a in cycle if a[2] == n]
            assert sorted(o["--format"] for o in opts) == ["csv", "json", "text"]
            assert sorted(o.get("--class", "") for o in opts) == ["", "lonely", "marriageable"]


def test_tracer_rebinds_every_imported_name():
    script = (
        "import json, crossroads.cli, tracer\n"
        "replaced = tracer.install(tracer.Tracer())\n"
        "print(json.dumps([sorted(replaced), tracer.stale_bindings(replaced)]))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH)]))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    replaced, stale = json.loads(out.stdout)
    classes_and_methods = {"partitions.Partition", "partitions.Partition.to_text", "intersection.Msl"}
    assert replaced == sorted(set(tracer.TRACED) - classes_and_methods)
    assert stale == []


# Which workloads must drive each layer metric; every other workload must read zero.
DRIVEN_BY = {
    "enumeration.tally.calls": {"count_deep", "report_sweep"},
    "enumeration.tally.child_cpu_s": {"count_deep", "report_sweep"},
    "enumeration.tally_range.calls": {"report_sweep"},
    "formulas.lower_bound_lonely.calls": {"report_sweep"},
    "formulas.lower_bound_marriageable.calls": {"report_sweep"},
    "formulas.ratio_report.calls": {"report_sweep"},
    "formulas.two_digits.calls": {"report_sweep"},
    "enumeration.noncrossing_partitions.items": {"enumerate_stream", "lanes"},
    "enumeration.classified_stream.items": {"enumerate_stream"},
    "partitions.Partition.calls": {"enumerate_stream", "lanes"},
    "partitions.Partition.to_text.calls": {"enumerate_stream", "lanes"},
    "partitions.nesting_forest.calls": {"enumerate_stream"},
    "partitions.classify_fast.calls": {"enumerate_stream"},
    "partitions.is_noncrossing.calls": {"lanes"},
    "intersection.enumerate_msl.calls": {"lanes"},
    "intersection.Msl.calls": {"lanes"},
    "intersection.is_absolute.calls": {"lanes"},
    "intersection.msl_to_partition.calls": {"lanes"},
    "intersection.partition_to_msl.calls": {"lanes"},
    "cli.enumerate.emit_ratio": {"enumerate_stream"},
    "cli.self_s": set(workloads.WORKLOADS),
    "cli.output_bytes": set(workloads.WORKLOADS),
    "process.import_s": set(workloads.WORKLOADS),
}


def _smallest_op_per_command(name: str) -> list:
    """The cheapest op of each subcommand in the workload's first cycle."""
    smallest: dict = {}
    for argv in _first_cycles(name, 0, count=1)[0]:
        opts = dict(zip(argv[1::2], argv[2::2]))
        size = int(opts.get("--n", opts.get("--max-n")))
        if argv[0] not in smallest or size < smallest[argv[0]][0]:
            smallest[argv[0]] = (size, argv)
    return [argv for _, argv in smallest.values()]


@pytest.fixture(scope="module")
def traced_layers():
    runner = run.Runner()
    layers = {}
    try:
        for name in workloads.WORKLOADS:
            pairs = []
            for argv in _smallest_op_per_command(name):
                traced, plain = runner.run(argv, traced=True), runner.run(argv)
                assert traced.failure is None and plain.failure is None, (argv, traced.failure, plain.failure)
                pairs.append((traced, plain))
            layers[name] = run.per_layer(pairs)
    finally:
        runner.close()
    return layers


@pytest.mark.parametrize("metric", sorted(DRIVEN_BY))
def test_layer_is_driven_exactly_where_predicted(traced_layers, metric):
    for name, metrics in traced_layers.items():
        if name in DRIVEN_BY[metric]:
            assert metrics[metric] > 0, (name, metric)
        else:
            assert metrics[metric] == 0, (name, metric)


def test_busy_time_is_recorded_for_every_driven_layer(traced_layers):
    for metric, names in DRIVEN_BY.items():
        layer, _, count = metric.rpartition(".")
        if count in ("calls", "items") and layer in tracer.TRACED:
            for name in names:
                assert traced_layers[name][f"{layer}.busy_s"] > 0, (name, layer)


def test_result_line_is_the_last_line():
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "lanes", "--seed", "1",
         "--seconds", "0", "--trace", "0"],
        cwd=BENCH.parent, capture_output=True, text=True, check=True,
    )
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)

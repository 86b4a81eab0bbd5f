"""Per-layer spans for one benchmark op, recorded from outside the program.

Usage: PYTHONPATH=src python3 bench/tracer.py SPANS_PATH OP_ARGV...

Runs one op (a ``crossroads`` subcommand, or ``lane-op --n N``) in this
interpreter after wrapping, from the outside, the public functions and
classes of the traced modules listed in :data:`TRACED`. A function is
rebound in every ``crossroads`` module that holds it, because ``cli``
imports ``tally``, ``tally_range`` and ``classified_stream`` by name and
``enumeration`` imports ``classify_fast`` by name. A class is traced through
its ``__init__``, a method in place on its class.

A span carries its name, start, end and parent span; spans stay in memory
and are written to SPANS_PATH when the op ends (one file per op, so the
file is the op id). A generator gets one span per item it produces, and its
calls and items are counted apart. ``enumeration.tally`` also records the
CPU time of the child processes it reaps (its worker pool).
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import resource
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

from oracle import LANE_OP

TRACED = (
    "enumeration.tally",
    "enumeration.tally_range",
    "enumeration.noncrossing_partitions",
    "enumeration.classified_stream",
    "formulas.lower_bound_lonely",
    "formulas.lower_bound_marriageable",
    "formulas.ratio_report",
    "formulas.two_digits",
    "partitions.Partition",
    "partitions.Partition.to_text",
    "partitions.nesting_forest",
    "partitions.classify_fast",
    "partitions.is_noncrossing",
    "intersection.enumerate_msl",
    "intersection.Msl",
    "intersection.is_absolute",
    "intersection.msl_to_partition",
    "intersection.partition_to_msl",
)
ITEM_COUNTED = ("enumeration.noncrossing_partitions", "enumeration.classified_stream")
"""Generators whose work is reported as items produced rather than calls."""
ROOTS = ("cli", "lane_op")
"""Name of the span around the whole op: a CLI command, or the lane round trip."""


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class Tracer:
    """Spans in flat arrays: name id, parent span index, start and end times."""

    def __init__(self):
        self.names: list[str] = []
        self.kind = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.calls: Counter = Counter()
        self.items: Counter = Counter()
        self.child_cpu_s = 0.0

    def name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def begin(self, name_id: int) -> int:
        span = len(self.kind)
        self.kind.append(name_id)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(span)
        self.start.append(time.perf_counter())
        return span

    def finish(self, span: int) -> None:
        self.end[span] = time.perf_counter()
        self.stack.pop()

    def dump(self, path: "str | Path", import_s: float) -> None:
        header = {
            "names": self.names,
            "calls": self.calls,
            "items": self.items,
            "child_cpu_s": self.child_cpu_s,
            "import_s": import_s,
            "spans": len(self.kind),
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.kind, self.parent, self.start, self.end):
                arr.tofile(fh)


def _wrap_call(tracer: Tracer, name: str, fn):
    name_id = tracer.name_id(name)
    begin, finish = tracer.begin, tracer.finish

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = begin(name_id)
        try:
            return fn(*args, **kwargs)
        finally:
            finish(span)

    return traced


def _wrap_pool_call(tracer: Tracer, name: str, fn):
    traced_fn = _wrap_call(tracer, name, fn)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        before = _children_cpu()
        try:
            return traced_fn(*args, **kwargs)
        finally:
            tracer.child_cpu_s += _children_cpu() - before

    return traced


def _wrap_generator(tracer: Tracer, name: str, fn):
    name_id = tracer.name_id(name)
    begin, finish = tracer.begin, tracer.finish

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.calls[name] += 1
        inner = fn(*args, **kwargs)
        while True:
            span = begin(name_id)
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                finish(span)
            tracer.items[name] += 1
            yield item

    return traced


def _package_modules() -> list:
    return [m for key, m in sys.modules.items() if key == "crossroads" or key.startswith("crossroads.")]


def install(tracer: Tracer) -> dict:
    """Wrap every traced name; returns the replaced module-level functions by name."""
    replaced = {}
    for name in TRACED:
        module_name, attr, *method = name.split(".")
        obj = getattr(importlib.import_module(f"crossroads.{module_name}"), attr)
        if method:
            setattr(obj, method[0], _wrap_call(tracer, name, vars(obj)[method[0]]))
        elif isinstance(obj, type):
            obj.__init__ = _wrap_call(tracer, name, obj.__init__)
        else:
            if inspect.isgeneratorfunction(obj):
                wrapped = _wrap_generator(tracer, name, obj)
            elif name == "enumeration.tally":
                wrapped = _wrap_pool_call(tracer, name, obj)
            else:
                wrapped = _wrap_call(tracer, name, obj)
            for module in _package_modules():
                for key, value in list(vars(module).items()):
                    if value is obj:
                        setattr(module, key, wrapped)
            replaced[name] = obj
    return replaced


def stale_bindings(replaced: dict) -> list[str]:
    """Module attributes that still hold an unwrapped original."""
    originals = {id(fn): name for name, fn in replaced.items()}
    return [
        f"{module.__name__}.{key} ({originals[id(value)]})"
        for module in _package_modules()
        for key, value in vars(module).items()
        if id(value) in originals and value is replaced[originals[id(value)]]
    ]


def summarize(path: "str | Path") -> dict[str, float]:
    """Per-name counts and busy seconds of one op's spans, plus cli self time.

    ``NAME.calls`` counts spans (or generator calls), ``NAME.items`` the items
    a generator produced, ``NAME.busy_s`` the summed span time, and
    ``cli.self_s`` is the command span minus the time of its child spans.
    """
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        count = header["spans"]
        arrays = []
        for code in ("H", "i", "d", "d"):
            arr = array(code)
            arr.fromfile(fh, count)
            arrays.append(arr)
    names = header["names"]
    busy = [0.0] * len(names)
    spans = [0] * len(names)
    root_children = 0.0
    for kind, parent, start, end in zip(*arrays):
        busy[kind] += end - start
        spans[kind] += 1
        if parent == 0:
            root_children += end - start
    kinds, _, starts, ends = arrays
    out = {}
    for i, name in enumerate(names):
        if name in ROOTS:
            continue
        if name in header["calls"] or name in header["items"]:
            out[f"{name}.calls"] = header["calls"].get(name, 0)
            out[f"{name}.items"] = header["items"].get(name, 0)
        else:
            out[f"{name}.calls"] = spans[i]
        out[f"{name}.busy_s"] = busy[i]
    out["enumeration.tally.child_cpu_s"] = header["child_cpu_s"]
    out["process.import_s"] = header["import_s"]
    if count and names[kinds[0]] == "cli":
        out["cli.self_s"] = ends[0] - starts[0] - root_children
    return out


def _run(argv: list[str]) -> None:
    if argv[0] == LANE_OP:
        import lane_op

        lane_op.main(argv[1:])
    else:
        import crossroads.cli

        sys.argv = ["crossroads", *argv]
        crossroads.cli.main()


def main() -> None:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    started = time.perf_counter()
    # what the untraced op imports: the package, plus click and the CLI for a CLI op
    importlib.import_module("crossroads" if argv[0] == LANE_OP else "crossroads.cli")
    import_s = time.perf_counter() - started
    tracer = Tracer()
    install(tracer)
    root = tracer.begin(tracer.name_id("lane_op" if argv[0] == LANE_OP else "cli"))
    code = 0
    try:
        _run(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        tracer.finish(root)
        sys.stdout.flush()
        tracer.dump(spans_path, import_s)
    sys.exit(code)


if __name__ == "__main__":
    main()

"""Run one benchmark workload against the crossroads CLI and print its metrics.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload count_deep --seed 1 --seconds 21 --trace 0

Each op runs in a fresh interpreter, closed loop, one at a time, from this
single driver (through the one small launcher process it forks), with the
checkout's ``src`` on PYTHONPATH and CROSSROADS_WORKERS removed from the
environment, so counting ops use the default worker count. Every op's exit
code and output are checked against the independent oracle in
``oracle.py``; a wrong value, an unexpected exit code, a crash or a timeout
counts as a failed op.

A run starts with the workload's trivial setup op as a warm-up that writes
bytecode caches, then runs whole op cycles (``workloads.py``) until
``--seconds`` have passed, repeating the setup op at even intervals.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs each op
once under ``tracer.py`` and once plain, in alternating order, and reports
per-layer metrics averaged per traced op, plus the tracing overhead. The last
line of standard output is one JSON object; the lines before it are a
readable summary. The full record (op list, seed, machine, per-op figures)
is written to ``bench/out/``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import oracle
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
OP_TIMEOUT_S = 30.0
HARD_STOP_S = 100.0
"""No op starts after this many seconds, even inside a cycle, so that a much
slower program still ends its run within three minutes."""
SETUP_REPEATS = 7
TAIL_PERCENTILE = 90
"""A run holds about 10 to 40 ops of 0.2 to 6 s, too few for a high percentile
with ten samples beyond it, so the tail is a fixed p90 (nearest rank) and the
record keeps how many samples lie beyond it."""

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "op/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "op_cpu_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class OpResult:
    argv: tuple
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int
    output_bytes: int
    failure: "str | None"
    traced: bool = False
    layers: dict = field(default_factory=dict)

    def record(self) -> dict:
        return {
            "argv": list(self.argv),
            "traced": self.traced,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "rss_mb": self.rss_mb,
            "exit_code": self.exit_code,
            "output_bytes": self.output_bytes,
            "failure": self.failure,
        }


class Launcher:
    """A small process, forked before the driver grows, that starts, times and reaps every op.

    Linux carries a process's peak resident set across exec, and Python
    starts children with vfork, so an op started straight from the driver
    would report at least the driver's own peak, which reading large outputs
    raises. Ops started from this process start from its small footprint.
    """

    def __init__(self, env: dict):
        request_r, request_w = os.pipe()
        reply_r, reply_w = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            os.close(request_w)
            os.close(reply_r)
            code = 1
            try:
                with os.fdopen(request_r) as requests, os.fdopen(reply_w, "w") as replies:
                    for line in requests:
                        replies.write(json.dumps(_spawn(*json.loads(line), env)) + "\n")
                        replies.flush()
                code = 0
            finally:
                os._exit(code)
        os.close(request_r)
        os.close(reply_w)
        self.requests = os.fdopen(request_w, "w")
        self.replies = os.fdopen(reply_r)

    def run(self, command: list[str], stdout: Path, stderr: Path) -> dict:
        self.requests.write(json.dumps([command, str(stdout), str(stderr)]) + "\n")
        self.requests.flush()
        line = self.replies.readline()
        if not line:
            raise RuntimeError("the op launcher exited")
        return json.loads(line)

    def close(self) -> None:
        """Let the launcher finish its op and exit, and reap it."""
        self.requests.close()
        os.waitpid(self.pid, 0)
        self.replies.close()


def _spawn(command: list[str], stdout: str, stderr: str, env: dict) -> dict:
    timed_out = threading.Event()
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(command, stdout=out, stderr=err, env=env, cwd=ROOT, start_new_session=True)
        timer = threading.Timer(OP_TIMEOUT_S, _kill_group, (proc.pid, timed_out))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        # wait4 reports the op process together with the children it reaped (its pool)
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024,
        "exit_code": proc.returncode,
        "timed_out": timed_out.is_set(),
    }


def _kill_group(pid: int, flag: threading.Event) -> None:
    flag.set()
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Runner:
    """Runs ops through the launcher and checks their output against the oracle."""

    def __init__(self):
        env = dict(os.environ)
        env.pop("CROSSROADS_WORKERS", None)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        self.launcher = Launcher(env)
        self.seq = oracle.Sequences(workloads.MAX_N)
        self.published = oracle.published_rows(SRC)

    def close(self) -> None:
        self.launcher.close()

    def command(self, argv: tuple, spans: "Path | None") -> list[str]:
        if spans is not None:
            return [sys.executable, str(BENCH / "tracer.py"), str(spans), *argv]
        if argv[0] == oracle.LANE_OP:
            return [sys.executable, str(BENCH / "lane_op.py"), *argv[1:]]
        return [sys.executable, "-m", "crossroads.cli", *argv]

    def run(self, argv: tuple, traced: bool = False) -> OpResult:
        OUT.mkdir(exist_ok=True)
        out_path, spans = OUT / "op.out", OUT / "op.spans"
        done = self.launcher.run(self.command(argv, spans if traced else None), out_path, OUT / "op.err")
        output = out_path.read_bytes()
        if done["timed_out"]:
            failure = f"timed out after {OP_TIMEOUT_S:.0f} s"
        else:
            failure = oracle.check(argv, done["exit_code"], output, self.seq, self.published)
        result = OpResult(
            argv=argv,
            wall_s=done["wall_s"],
            cpu_s=done["cpu_s"],
            rss_mb=done["rss_mb"],
            exit_code=done["exit_code"],
            output_bytes=len(output),
            failure=failure,
            traced=traced,
        )
        if traced and failure is None:
            result.layers = tracer.summarize(spans)
            if argv[0] == "enumerate":
                header = dict(zip(argv[1::2], argv[2::2])).get("--format") == "csv"
                result.layers["cli.enumerate.lines"] = output.count(b"\n") - header
        return result


def nearest_rank(values: list[float], percentile: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(percentile / 100 * len(ordered)) - 1)]


def end_to_end(setup: list[OpResult], timed: list[OpResult]) -> dict[str, float]:
    walls = [r.wall_s for r in timed]
    return {
        "setup_s": statistics.median(r.wall_s for r in setup),
        # op wall time only: the driver's own output checks between ops are excluded
        "ops_per_s": len(walls) / sum(walls),
        "op_p50_s": statistics.median(walls),
        "op_tail_s": nearest_rank(walls, TAIL_PERCENTILE),
        "op_cpu_s": statistics.median(r.cpu_s for r in timed),
        "peak_rss_mb": max(r.rss_mb for r in setup + timed),
    }


PER_LAYER_UNITS = {
    **{
        f"{name}.{unit}": f"{unit}/op" if unit != "busy_s" else "s/op"
        for name in tracer.TRACED
        for unit in ("items" if name in tracer.ITEM_COUNTED else "calls", "busy_s")
    },
    "enumeration.tally.child_cpu_s": "s/op",
    "cli.enumerate.emit_ratio": "1",
    "cli.self_s": "s/op",
    "cli.output_bytes": "B/op",
    "process.import_s": "s/op",
    "trace.overhead_s": "s/op",
    "trace.overhead_ratio": "1",
}


def per_layer(pairs: list[tuple[OpResult, OpResult]]) -> dict[str, float]:
    """Per-op means of the traced ops' layer figures, and the tracing overhead."""
    traced = [t for t, _ in pairs]
    totals: dict[str, float] = {}
    for t in traced:
        for key, value in t.layers.items():
            totals[key] = totals.get(key, 0) + value
    ops = len(traced)
    cli_ops = sum(1 for t in traced if t.argv[0] != oracle.LANE_OP)
    metrics = {name: totals.get(name, 0) / ops for name in PER_LAYER_UNITS}
    metrics["cli.self_s"] = totals.get("cli.self_s", 0) / cli_ops if cli_ops else 0.0
    metrics["cli.output_bytes"] = sum(t.output_bytes for t in traced) / ops
    classified = sum(t.layers.get("partitions.classify_fast.calls", 0) for t in traced if t.argv[0] == "enumerate")
    metrics["cli.enumerate.emit_ratio"] = totals.get("cli.enumerate.lines", 0) / classified if classified else 0.0
    traced_wall = sum(t.wall_s for t, _ in pairs)
    plain_wall = sum(p.wall_s for _, p in pairs)
    metrics["trace.overhead_s"] = (traced_wall - plain_wall) / ops
    metrics["trace.overhead_ratio"] = traced_wall / plain_wall - 1
    return metrics


def _git_commit() -> "str | None":
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _cpu_model() -> "str | None":
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def machine() -> dict:
    return {
        "git_commit": _git_commit(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        # CROSSROADS_WORKERS is removed, so tally falls back to os.cpu_count()
        "effective_workers": os.cpu_count(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = workloads.WORKLOADS[name]
    runner = Runner()
    try:
        return _run_ops(runner, workload, seed, seconds, trace)
    finally:
        runner.close()


def _run_ops(runner: "Runner", workload: workloads.Workload, seed: int, seconds: float, trace: bool) -> dict:
    warmup = runner.run(workload.setup_op)  # also writes the bytecode caches
    # setup repeats are spread over the run, so a slow spell of the machine moves few of them
    setup: list[OpResult] = []
    setup_due = 0 if trace else SETUP_REPEATS
    timed: list[OpResult] = []
    pairs: list[tuple[OpResult, OpResult]] = []
    started = time.monotonic()
    for cycle in workload.cycles(seed):
        for argv in cycle:
            elapsed = time.monotonic() - started
            if elapsed >= HARD_STOP_S:
                break
            if len(setup) < setup_due and elapsed >= len(setup) * seconds / setup_due:
                setup.append(runner.run(workload.setup_op))
            if trace:
                first_traced = len(pairs) % 2 == 0
                a = runner.run(argv, traced=first_traced)
                b = runner.run(argv, traced=not first_traced)
                pairs.append((a, b) if first_traced else (b, a))
                timed += [a, b]
            else:
                timed.append(runner.run(argv))
        if time.monotonic() - started >= seconds:
            break
    setup += [runner.run(workload.setup_op) for _ in range(setup_due - len(setup))]
    everything = [warmup] + setup + timed
    walls = [r.wall_s for r in timed]
    tail = nearest_rank(walls, TAIL_PERCENTILE)
    failed = [r for r in everything if r.failure]
    if trace:
        metrics, units = per_layer(pairs), PER_LAYER_UNITS
    else:
        metrics, units = end_to_end(setup, timed), END_TO_END_UNITS
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": machine(),
        "tail": {
            "percentile": TAIL_PERCENTILE,
            "samples": len(walls),
            "beyond": sum(w > tail for w in walls),
        },
        "attempted": len(everything),
        "failed": len(failed),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "ops": [r.record() for r in everything],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one crossroads benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "crossroads" / "cli.py").is_file():
        print(f"error: no crossroads sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(result, indent=1))

    tail = result["tail"]
    print(f"{args.workload} seed {args.seed}: {tail['samples']} timed ops, "
          f"{result['failed']} of {result['attempted']} ops failed; record in {record.relative_to(ROOT)}")
    for op in result["ops"]:
        if op["failure"]:
            print(f"FAILED {' '.join(op['argv'])}: {op['failure']}")
    for key, metric in result["metrics"].items():
        note = f"  (p{tail['percentile']} of {tail['samples']} ops, {tail['beyond']} beyond)" if key == "op_tail_s" else ""
        print(f"{key:48s} {metric['value']:.6g} {metric['unit']}{note}")
    print(f"{'fail_ratio':48s} {result['failed'] / result['attempted']:.6g} 1")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

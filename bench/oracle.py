"""Expected results for every benchmark op, computed without the crossroads code.

The counts come from closed forms and a generating function, never from the
package's counting engine:

* C_n from ``math.comb``;
* L_n by online coefficient extraction from the algebraic equation
  x^2 (1+x)^2 R^3 - x (2+3x+2x^2) R^2 + (1+2x+3x^2) R - (1+x) = 0,
  which the lonely generating function R satisfies (O(n^2) bigint steps);
* M_n = C_n - L_n;
* the proved lower bounds from the Riordan numbers F_n (noncrossing
  partitions without singletons): F_n + n F_(n-1) partitions have at most
  one singleton, and sum over gaps d of (n-d) F_(d-1) F_(n-d-1) have exactly
  two singletons that can merge.

Only the published reference rows are read from the program's own
``reference.py``, because ``verify`` must show exactly those.

:func:`check` parses one op's output in any of its formats and returns None
when every value matches, or a one-line reason otherwise.
"""
from __future__ import annotations

import csv
import io
import json
import runpy
from collections import Counter
from math import comb
from pathlib import Path

LANE_OP = "lane-op"
"""First argv word of the library op that round-trips partitions through the lane bijection."""

TABLE_HEADER = ["n", "lonely", "marriageable", "catalan", "ratio_l", "ratio_m", "m_over_l", "m_over_c"]
CONJECTURE_HEADER = ["n", "ratio_l", "ratio_m", "m_over_l", "m_over_c", "l_over_c", "m_gt_l"]


def lonely_numbers(max_n: int) -> list[int]:
    """L_0..L_max_n from the cubic, one coefficient at a time."""
    r: list[int] = []
    s2: list[int] = []  # coefficients of R^2
    s3: list[int] = []  # coefficients of R^3

    def at(seq: list[int], i: int) -> int:
        return seq[i] if i >= 0 else 0

    for n in range(max_n + 1):
        value = (n == 0) + (n == 1) - 2 * at(r, n - 1) - 3 * at(r, n - 2)
        value += 2 * at(s2, n - 1) + 3 * at(s2, n - 2) + 2 * at(s2, n - 3)
        value -= at(s3, n - 2) + 2 * at(s3, n - 3) + at(s3, n - 4)
        r.append(value)
        s2.append(sum(r[i] * r[n - i] for i in range(n + 1)))
        s3.append(sum(r[i] * s2[n - i] for i in range(n + 1)))
    return r


def two_digits(num: int, den: int) -> str:
    """num/den for nonnegative integers, two fractional digits, round half up."""
    hundredths = (200 * num + den) // (2 * den)
    return f"{hundredths // 100}.{hundredths % 100:02d}"


class Sequences:
    """Exact C_n, L_n, M_n, Riordan numbers and lower bounds for n <= max_n."""

    def __init__(self, max_n: int):
        self.catalan = [comb(2 * n, n) // (n + 1) for n in range(max_n + 1)]
        self.lonely = lonely_numbers(max_n)
        self.marriageable = [c - l for c, l in zip(self.catalan, self.lonely)]
        riordan = [1, 0]
        for n in range(2, max_n + 1):
            riordan.append((n - 1) * (2 * riordan[-1] + 3 * riordan[-2]) // (n + 1))
        self.riordan = riordan[: max_n + 1]

    def row(self, n: int) -> tuple[int, int, int]:
        return self.lonely[n], self.marriageable[n], self.catalan[n]

    def lonely_bound(self, n: int) -> int:
        f = self.riordan
        return f[n] + n * f[n - 1]

    def marriageable_bound(self, n: int) -> int:
        f = self.riordan
        return sum((n - d) * f[d - 1] * f[n - d - 1] for d in range(1, n))


def published_rows(src: Path):
    """``published_row`` from the program's reference table, loaded without the package."""
    return runpy.run_path(str(src / "crossroads" / "reference.py"))["published_row"]


def _options(argv) -> dict[str, str]:
    return dict(zip(argv[1::2], argv[2::2]))


def expected_exit(argv, seq: Sequences, published) -> int:
    """Exit code the op must end with: 2 when verify or bounds finds a violation."""
    opts = _options(argv)
    if argv[0] == "verify":
        max_n = int(opts["--max-n"])
        return 2 if any(seq.row(n) != published(n) for n in range(max_n + 1)) else 0
    if argv[0] == "bounds":
        return 0 if all(holds for *_, holds in _bound_checks(int(opts["--max-n"]), seq)) else 2
    return 0


def check(argv, exit_code: int, output: bytes, seq: Sequences, published) -> "str | None":
    """None when the op ended as expected with correct output, else why not."""
    want = expected_exit(argv, seq, published)
    if exit_code != want:
        return f"exit code {exit_code}, expected {want}"
    opts = _options(argv)
    try:
        return _CHECKERS[argv[0]](opts, output.decode(), seq, published)
    except (ValueError, KeyError, IndexError, TypeError, csv.Error) as exc:
        return f"unparsable output: {exc!r}"


def _mismatch(got, want) -> "str | None":
    return None if got == want else f"got {str(got)[:200]}, expected {str(want)[:200]}"


def _csv_rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def _check_count(opts, text, seq, published):
    n = int(opts["--n"])
    want = [n, *seq.row(n)]
    fmt = opts.get("--format", "text")
    if fmt == "json":
        d = json.loads(text)
        got = [d["n"], int(d["lonely"]), int(d["marriageable"]), int(d["total"])]
    elif fmt == "csv":
        rows = _csv_rows(text)
        if rows[0] != ["n", "lonely", "marriageable", "total"] or len(rows) != 2:
            return f"bad csv layout {rows[:1]}"
        got = [int(x) for x in rows[1]]
    else:
        got = text.split()
        want = [f"n={n}:", *(f"{k}={v}" for k, v in zip(("lonely", "marriageable", "total"), want[1:]))]
    return _mismatch(got, want)


def _ratio(num: int, den: int) -> "str | None":
    return two_digits(num, den) if den else None


def _table_cells(max_n: int, seq: Sequences) -> list[list]:
    rows = []
    for n in range(max_n + 1):
        lonely, married, total = seq.row(n)
        rows.append([
            n, lonely, married, total,
            _ratio(lonely, seq.lonely[n - 1]) if n else None,
            _ratio(married, seq.marriageable[n - 1]) if n else None,
            _ratio(married, lonely),
            two_digits(married, total),
        ])
    return rows


def _conjecture_cells(max_n: int, seq: Sequences) -> list[list]:
    return [
        [n, rl, rm, ml, mc, two_digits(lonely, total), married > lonely]
        for n, lonely, married, total, rl, rm, ml, mc in _table_cells(max_n, seq)
    ]


def _check_rows(text, fmt, header, cells):
    """Compare a table-shaped report in any format against expected cells."""
    if fmt == "json":
        got = [[d[h] for h in header] for d in json.loads(text)]
        got = [[int(v) if isinstance(v, str) and v.isdigit() else v for v in row] for row in got]
        return _mismatch(got, cells)

    def as_text(value, bools):
        if value is None:
            return ""
        if isinstance(value, bool):
            return bools[0] if value else bools[1]
        return str(value)

    if fmt == "csv":
        want = [header] + [[as_text(v, ("true", "false")) for v in row] for row in cells]
        return _mismatch(_csv_rows(text), want)
    want = [header] + [[s for s in (as_text(v, ("yes", "no")) for v in row) if s] for row in cells]
    return _mismatch([line.split() for line in text.splitlines()], want)


def _check_table(opts, text, seq, published):
    cells = _table_cells(int(opts["--max-n"]), seq)
    return _check_rows(text, opts.get("--format", "text"), TABLE_HEADER, cells)


def _check_conjectures(opts, text, seq, published):
    cells = _conjecture_cells(int(opts["--max-n"]), seq)
    return _check_rows(text, opts.get("--format", "text"), CONJECTURE_HEADER, cells)


def _check_bfile(opts, text, seq, published):
    values = seq.lonely if opts["--seq"] == "L" else seq.marriageable
    want = [f"{n} {values[n]}" for n in range(int(opts["--max-n"]) + 1)]
    return _mismatch(text.splitlines(), want)


def _bound_checks(max_n: int, seq: Sequences) -> list[tuple]:
    checks = []
    for n in range(max_n + 1):
        lonely, married, _ = seq.row(n)
        if n >= 2:
            checks.append(("lonely_bound", n, seq.lonely_bound(n), lonely))
        if n >= 3:
            checks.append(("marriageable_bound", n, seq.marriageable_bound(n), married))
    for n in range(max_n - 1):
        checks.append(("two_step", n, seq.catalan[n] + 3 * seq.marriageable[n], seq.marriageable[n + 2]))
    return [(name, n, a, b, a <= b) for name, n, a, b in checks]


def _check_bounds(opts, text, seq, published):
    checks = _bound_checks(int(opts["--max-n"]), seq)
    failed = sum(not holds for *_, holds in checks)
    if opts.get("--format", "text") == "json":
        d = json.loads(text)
        got = [d["all_hold"]] + [
            (c["check"], c["n"], int(c["bound"]), int(c["value"]), c["holds"]) for c in d["checks"]
        ]
        return _mismatch(got, [failed == 0] + checks)
    want = [
        f"{name} n={n}: {a} <= {b} {'ok' if holds else 'VIOLATED'}".split()
        for name, n, a, b, holds in checks
    ]
    want.append(f"{len(checks)} checks, {failed} violations".split())
    return _mismatch([line.split() for line in text.splitlines()], want)


def _check_verify(opts, text, seq, published):
    rows = [(n, seq.row(n), published(n)) for n in range(int(opts["--max-n"]) + 1)]
    mismatches = sum(ours != theirs for _, ours, theirs in rows)
    if opts.get("--format", "text") == "json":
        d = json.loads(text)
        got = [d["all_match"]] + [
            (r["n"], r["match"],
             tuple(int(r["computed"][k]) for k in ("lonely", "marriageable", "total")),
             tuple(int(r["published"][k]) for k in ("lonely", "marriageable", "total")))
            for r in d["rows"]
        ]
        want = [mismatches == 0] + [(n, ours == theirs, ours, theirs) for n, ours, theirs in rows]
        return _mismatch(got, want)
    want = []
    for n, (cl, cm, cc), (pl, pm, pc) in rows:
        if (cl, cm, cc) == (pl, pm, pc):
            line = f"n={n}: ok lonely={cl} marriageable={cm} total={cc}"
        else:
            line = (f"n={n}: MISMATCH computed lonely={cl} marriageable={cm} total={cc}, "
                    f"published lonely={pl} marriageable={pm} total={pc}")
        want.append(line.split())
    want.append(f"{len(rows)} rows compared, {mismatches} mismatches".split())
    return _mismatch([line.split() for line in text.splitlines()], want)


def _check_enumerate(opts, text, seq, published):
    n = int(opts["--n"])
    lonely, married, total = seq.row(n)
    wanted = opts.get("--class")
    classes = {"lonely": lonely, "marriageable": married}
    if wanted:
        classes = {wanted: classes[wanted]}
    expected = sum(classes.values())
    fmt = opts.get("--format", "text")
    lines = text.splitlines()
    if fmt == "csv":
        if lines[0] != "partition,class":
            return f"bad csv header {lines[0]!r}"
        lines = lines[1:]
    if len(lines) != expected or len(set(lines)) != expected:
        return f"{len(lines)} lines, {len(set(lines))} distinct, expected {expected}"
    if fmt == "json":
        found = Counter(json.loads(line)["class"] for line in lines)
    elif fmt == "csv":
        found = Counter(line.rsplit(",", 1)[1] for line in lines)
    else:
        return None
    return _mismatch(dict(found), {k: v for k, v in classes.items() if v})


def lanes_of(partition_text: str) -> str:
    """The lane set of a partition under the bijection, in the CLI's text form."""
    lanes = []
    for block in partition_text.split("/"):
        items = [int(x) for x in block.split(",")]
        lanes.append((items[0], items[-1]))
        lanes.extend((items[t + 1], items[t]) for t in range(len(items) - 1))
    return ",".join(f"E{e}>X{x}" for e, x in sorted(lanes))


def _check_intersection(opts, text, seq, published):
    n = int(opts["--n"])
    lonely, _, total = seq.row(n)
    fmt = opts.get("--format", "text")
    if fmt == "json":
        records = [json.loads(line) for line in text.splitlines()]
        rows = [(d["lanes"], d["absolute"], d["partition"]) for d in records]
    elif fmt == "csv":
        table = _csv_rows(text)
        if table[0] != ["lanes", "absolute", "partition"]:
            return f"bad csv header {table[0]}"
        rows = [(lanes, {"true": True, "false": False}[flag], part) for lanes, flag, part in table[1:]]
    else:
        pairs = [line.split(" ") for line in text.splitlines()]
        rows = [(lanes, {"absolute": True, "nonabsolute": False}[flag], None) for lanes, flag in pairs]
    distinct = len({lanes for lanes, _, _ in rows})
    absolute = sum(flag for _, flag, _ in rows)
    if (len(rows), distinct, absolute) != (total, total, lonely):
        return f"{len(rows)} lane sets, {distinct} distinct, {absolute} absolute; expected {total}, {total}, {lonely}"
    if fmt != "text":
        if len({part for _, _, part in rows}) != total:
            return "partitions repeat"
        bad = [lanes for lanes, _, part in rows if lanes_of(part) != lanes]
        if bad:
            return f"{len(bad)} lane sets do not match their partition, first {bad[0]}"
    return None


def _check_lane_op(opts, text, seq, published):
    n = int(opts["--n"])
    lonely, _, total = seq.row(n)
    got = json.loads(text)
    return _mismatch(got, {"n": n, "partitions": total, "absolute": lonely, "round_trips": total})


_CHECKERS = {
    "count": _check_count,
    "table": _check_table,
    "conjectures": _check_conjectures,
    "bfile": _check_bfile,
    "bounds": _check_bounds,
    "verify": _check_verify,
    "enumerate": _check_enumerate,
    "intersection": _check_intersection,
    LANE_OP: _check_lane_op,
}

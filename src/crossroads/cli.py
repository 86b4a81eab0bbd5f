"""Command-line interface.

Eight subcommands over the library: count, table, verify, enumerate, bounds,
conjectures, intersection, bfile. Reports print as text by default and as
machine-readable json or csv on request. Exit codes: 0 success, 2 a
verification or bound check found mismatches, 64 usage errors, 65 a resource
or data ceiling was exceeded.
"""
from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import os
import sys

import click

from .enumeration import (
    CountJob,
    Tally,
    classified_stream,
    tally,
    tally_range,
)
from .formulas import (
    catalan,
    lower_bound_lonely,
    lower_bound_marriageable,
    ratio_report,
    two_digits,
)
from .intersection import enumerate_msl, is_absolute, msl_to_partition
from .partitions import CeilingExceededError, Kind

click.exceptions.UsageError.exit_code = 64

_JSON_SAFE = 2**53 - 1


def _jnum(value: int):
    """Counts stay bare JSON integers while exact in doubles, else strings."""
    return value if abs(value) <= _JSON_SAFE else str(value)


@contextlib.contextmanager
def _lines(output: "str | None"):
    """A write function for the --output file, or for stdout when none is given.

    Writes are buffered, never flushed per line. Stdout is flushed once at
    the end, still inside the command, so that :func:`_guard` sees a broken
    pipe.
    """
    if output:
        with open(output, "w") as fh:
            yield fh.write
    else:
        yield sys.stdout.write
        sys.stdout.flush()


def _emit(text: str, output: "str | None") -> None:
    with _lines(output) as write:
        write(text + "\n")


def _guard(func):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        try:
            return func(*args, **kwargs)
        except CeilingExceededError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(65)
        except BrokenPipeError:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            sys.exit(1)
        except OSError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)

    return wrapper


format_option = click.option(
    "--format",
    "fmt",
    type=click.Choice(["text", "json", "csv"]),
    default="text",
    show_default=True,
    help="Output format.",
)
output_option = click.option(
    "--output", type=click.Path(writable=True), default=None, help="Write to a file."
)


@click.group()
def cli():
    """Count and classify noncrossing partitions into lonely and marriageable
    singles, and explore the equivalent road-intersection lane model."""


@cli.command()
@click.option("--n", type=click.IntRange(min=0), required=True)
@format_option
@output_option
@_guard
def count(n: int, fmt: str, output: "str | None"):
    """Tally the partitions of one ground-set size."""
    t = tally(CountJob(n))
    if fmt == "json":
        payload = {
            "n": t.n,
            "lonely": _jnum(t.lonely),
            "marriageable": _jnum(t.marriageable),
            "total": _jnum(t.total),
        }
        _emit(json.dumps(payload, separators=(",", ":")), output)
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["n", "lonely", "marriageable", "total"])
        writer.writerow([t.n, t.lonely, t.marriageable, t.total])
        _emit(buf.getvalue().rstrip("\n"), output)
    else:
        _emit(f"n={t.n}: lonely={t.lonely} marriageable={t.marriageable} total={t.total}", output)


TABLE_CSV_HEADER = ["n", "lonely", "marriageable", "catalan", "ratio_l", "ratio_m", "m_over_l", "m_over_c"]


def _rows_for(max_n: int):
    tallies = tally_range(max_n)
    return ratio_report(max_n, tallies)


@cli.command()
@click.option("--max-n", type=click.IntRange(min=0), required=True)
@format_option
@output_option
@_guard
def table(max_n: int, fmt: str, output: "str | None"):
    """Counts and ratio columns for every n up to --max-n."""
    rows = _rows_for(max_n)
    if fmt == "json":
        payload = [
            {
                "n": r.n,
                "lonely": _jnum(r.lonely),
                "marriageable": _jnum(r.marriageable),
                "catalan": _jnum(r.catalan),
                "ratio_l": r.ratio_l,
                "ratio_m": r.ratio_m,
                "m_over_l": r.m_over_l,
                "m_over_c": r.m_over_c,
            }
            for r in rows
        ]
        _emit(json.dumps(payload, separators=(",", ":")), output)
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(TABLE_CSV_HEADER)
        for r in rows:
            writer.writerow(
                [r.n, r.lonely, r.marriageable, r.catalan,
                 r.ratio_l or "", r.ratio_m or "", r.m_over_l or "", r.m_over_c]
            )
        _emit(buf.getvalue().rstrip("\n"), output)
    else:
        lines = [" ".join(h.rjust(12) for h in TABLE_CSV_HEADER)]
        for r in rows:
            cells = [r.n, r.lonely, r.marriageable, r.catalan,
                     r.ratio_l or "", r.ratio_m or "", r.m_over_l or "", r.m_over_c]
            lines.append(" ".join(str(c).rjust(12) for c in cells))
        _emit("\n".join(lines), output)


@cli.command()
@click.option("--max-n", type=click.IntRange(min=0), required=True)
@format_option
@output_option
@_guard
def verify(max_n: int, fmt: str, output: "str | None"):
    """Recompute tallies and compare against the published reference rows.

    Exits 0 when every row matches and 2 otherwise, listing each mismatch.
    """
    from .reference import MAX_PUBLISHED_N, published_row

    if max_n > MAX_PUBLISHED_N:
        raise CeilingExceededError(
            f"published reference values stop at n={MAX_PUBLISHED_N}, got {max_n}"
        )
    tallies = tally_range(max_n)
    rows = []
    mismatches = 0
    for t in tallies:
        pl, pm, pc = published_row(t.n)
        match = (t.lonely, t.marriageable, t.total) == (pl, pm, pc)
        mismatches += 0 if match else 1
        rows.append((t, (pl, pm, pc), match))
    if fmt == "json":
        payload = {
            "all_match": mismatches == 0,
            "rows": [
                {
                    "n": t.n,
                    "match": match,
                    "computed": {
                        "lonely": _jnum(t.lonely),
                        "marriageable": _jnum(t.marriageable),
                        "total": _jnum(t.total),
                    },
                    "published": {
                        "lonely": _jnum(pl),
                        "marriageable": _jnum(pm),
                        "total": _jnum(pc),
                    },
                }
                for t, (pl, pm, pc), match in rows
            ],
        }
        _emit(json.dumps(payload, separators=(",", ":")), output)
    else:
        lines = []
        for t, (pl, pm, pc), match in rows:
            if match:
                lines.append(
                    f"n={t.n}: ok lonely={t.lonely} marriageable={t.marriageable} total={t.total}"
                )
            else:
                lines.append(
                    f"n={t.n}: MISMATCH computed lonely={t.lonely} "
                    f"marriageable={t.marriageable} total={t.total}, published "
                    f"lonely={pl} marriageable={pm} total={pc}"
                )
        lines.append(f"{len(rows)} rows compared, {mismatches} mismatches")
        _emit("\n".join(lines), output)
    if mismatches:
        sys.exit(2)


@cli.command(name="enumerate")
@click.option("--n", type=click.IntRange(min=0), required=True)
@click.option(
    "--class",
    "wanted",
    type=click.Choice(["lonely", "marriageable"]),
    default=None,
    help="Stream only one class.",
)
@format_option
@output_option
@_guard
def enumerate_cmd(n: int, wanted: "str | None", fmt: str, output: "str | None"):
    """Stream noncrossing partitions in text form, optionally filtered."""
    kind = Kind(wanted) if wanted else None
    with _lines(output) as write:
        if fmt == "csv":
            write("partition,class\n")
        for p, c in classified_stream(n, kind):
            text = p.to_text()
            if fmt == "json":
                write(json.dumps({"partition": text, "class": c.kind.value}, separators=(",", ":")) + "\n")
            elif fmt == "csv":
                write(f"\"{text}\",{c.kind.value}\n")
            else:
                write(text + "\n")


@cli.command()
@click.option("--max-n", type=click.IntRange(min=0), required=True)
@format_option
@output_option
@_guard
def bounds(max_n: int, fmt: str, output: "str | None"):
    """Evaluate the proved lower bounds and the two-step inequality.

    Checks lower_bound_lonely(n) <= lonely, lower_bound_marriageable(n) <=
    marriageable, and total + 3*marriageable <= marriageable two sizes up.
    Exits 2 on any violation.
    """
    tallies = tally_range(max_n)
    checks = []
    for t in tallies:
        if t.n >= 2:
            lb = lower_bound_lonely(t.n)
            checks.append(("lonely_bound", t.n, lb, t.lonely, lb <= t.lonely))
        if t.n >= 3:
            mb = lower_bound_marriageable(t.n)
            checks.append(("marriageable_bound", t.n, mb, t.marriageable, mb <= t.marriageable))
    for t in tallies:
        if t.n + 2 <= max_n:
            lhs = t.total + 3 * t.marriageable
            rhs = tallies[t.n + 2].marriageable
            checks.append(("two_step", t.n, lhs, rhs, lhs <= rhs))
    failed = [c for c in checks if not c[4]]
    if fmt == "json":
        payload = {
            "all_hold": not failed,
            "checks": [
                {"check": name, "n": n, "bound": _jnum(a), "value": _jnum(b), "holds": ok}
                for name, n, a, b, ok in checks
            ],
        }
        _emit(json.dumps(payload, separators=(",", ":")), output)
    else:
        lines = []
        for name, n, a, b, ok in checks:
            status = "ok" if ok else "VIOLATED"
            lines.append(f"{name} n={n}: {a} <= {b} {status}")
        lines.append(f"{len(checks)} checks, {len(failed)} violations")
        _emit("\n".join(lines), output)
    if failed:
        sys.exit(2)


CONJECTURE_CSV_HEADER = ["n", "ratio_l", "ratio_m", "m_over_l", "m_over_c", "l_over_c", "m_gt_l"]


@cli.command()
@click.option("--max-n", type=click.IntRange(min=0), required=True)
@format_option
@output_option
@_guard
def conjectures(max_n: int, fmt: str, output: "str | None"):
    """Per-n quantities behind the five conjectured limits.

    Consecutive ratios of both sequences, marriageable over lonely,
    marriageable over total, lonely over total, and whether marriageable
    exceeds lonely.
    """
    rows = _rows_for(max_n)
    records = []
    for r in rows:
        records.append(
            {
                "n": r.n,
                "ratio_l": r.ratio_l,
                "ratio_m": r.ratio_m,
                "m_over_l": r.m_over_l,
                "m_over_c": r.m_over_c,
                "l_over_c": two_digits(r.lonely, r.catalan),
                "m_gt_l": r.marriageable > r.lonely,
            }
        )
    if fmt == "json":
        _emit(json.dumps(records, separators=(",", ":")), output)
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(CONJECTURE_CSV_HEADER)
        for rec in records:
            writer.writerow(
                [rec["n"], rec["ratio_l"] or "", rec["ratio_m"] or "",
                 rec["m_over_l"] or "", rec["m_over_c"], rec["l_over_c"],
                 "true" if rec["m_gt_l"] else "false"]
            )
        _emit(buf.getvalue().rstrip("\n"), output)
    else:
        lines = [" ".join(h.rjust(10) for h in CONJECTURE_CSV_HEADER)]
        for rec in records:
            cells = [rec["n"], rec["ratio_l"] or "", rec["ratio_m"] or "",
                     rec["m_over_l"] or "", rec["m_over_c"], rec["l_over_c"],
                     "yes" if rec["m_gt_l"] else "no"]
            lines.append(" ".join(str(c).rjust(10) for c in cells))
        _emit("\n".join(lines), output)


@cli.command()
@click.option("--n", type=click.IntRange(min=1), required=True)
@format_option
@output_option
@_guard
def intersection(n: int, fmt: str, output: "str | None"):
    """Stream every maximal lane set with its absoluteness flag."""
    with _lines(output) as write:
        if fmt == "csv":
            write("lanes,absolute,partition\n")
        for m in enumerate_msl(n):
            absolute = is_absolute(m)
            text = m.to_text()
            part = msl_to_partition(m).to_text()
            if fmt == "json":
                write(json.dumps(
                    {"lanes": text, "absolute": absolute, "partition": part},
                    separators=(",", ":"),
                ) + "\n")
            elif fmt == "csv":
                write(f"\"{text}\",{'true' if absolute else 'false'},\"{part}\"\n")
            else:
                write(f"{text} {'absolute' if absolute else 'nonabsolute'}\n")


@cli.command()
@click.option("--seq", type=click.Choice(["L", "M"]), required=True,
              help="L for the lonely sequence, M for the marriageable one.")
@click.option("--max-n", type=click.IntRange(min=0), required=True)
@output_option
@_guard
def bfile(seq: str, max_n: int, output: "str | None"):
    """Write the sequence in OEIS b-file form, one "n a(n)" pair per line."""
    tallies = tally_range(max_n)
    lines = []
    for t in tallies:
        value = t.lonely if seq == "L" else t.marriageable
        lines.append(f"{t.n} {value}")
    _emit("\n".join(lines), output)


def main():
    cli()


if __name__ == "__main__":
    main()

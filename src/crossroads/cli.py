"""Command-line interface.

Eight subcommands over the library: count, table, verify, enumerate, bounds,
conjectures, intersection, bfile. Each command hands its rows, tuples in the
order of its column names, to one renderer, :func:`_render`, which writes text
by default and json or csv on request (bfile: text only). Reports pass a list,
enumerate and intersection stream a generator; both are written in chunks.
Exit codes: 0 success, 1 an output path could not be written, 2 a verification
or bound check found mismatches, 64 usage errors, 65 a resource or data
ceiling was exceeded.
"""
from __future__ import annotations

import contextlib
import itertools
import json
import os
import sys
from dataclasses import astuple, fields
from json.encoder import encode_basestring_ascii
from operator import itemgetter

import click

from .enumeration import CountJob, _text_rows, tally, tally_range
from .formulas import SequenceRow, lower_bound_lonely, lower_bound_marriageable, ratio_report, two_digits
from .intersection import _lane_rows
from .partitions import CeilingExceededError, Kind, check_size
from .reference import MAX_PUBLISHED_N, published_row

USAGE_EXIT = 64
"""Exit code of a usage error, set by :class:`_Group` on each one it raises or
passes on; click's own default of 2 stays for other commands in the process."""

def _jnum(value):
    """Integers stay bare JSON integers while exact in doubles, else strings."""
    return str(value) if type(value) is int and abs(value) > 2**53 - 1 else value


_encode = json.JSONEncoder(separators=(",", ":")).encode

_QUOTED = frozenset({"partition", "lanes"})  # CSV columns whose values hold commas

_TEXT_COLUMNS = frozenset({"partition", "lanes", "class"})
"""Columns whose cells are always str: csv writes them as they are, json
encodes them with the C string encoder that ``_encode`` calls on a str."""


def _cell(value, words=("false", "true")) -> str:
    """One cell as a string: None becomes empty, a bool one of ``words``."""
    if value is None:
        return ""
    if value is True or value is False:
        return words[value]
    return str(value)


def _json_cell(value) -> str:
    """One json cell: None and the bools by identity, as :func:`_cell` finds them, the rest by ``_encode`` after :func:`_jnum`."""
    if value is None:
        return "null"
    if value is True or value is False:
        return ("false", "true")[value]
    return _encode(_jnum(value))


CHUNK_LINES = 512
"""Most lines :func:`_render` joins into one write call. Larger chunks save
few calls and hold more text at once."""


@contextlib.contextmanager
def _lines(output: "str | None"):
    """A write function for the --output file, or for stdout when none is given.

    Each call reaches the file object as it is: on a write-through stdout
    (``python -u``, ``PYTHONUNBUFFERED=1``) it is one system call, which is
    why :func:`_render` joins its lines into chunks. Stdout is flushed once
    at the end, still inside the command, so that :class:`_Group` sees a
    broken pipe.
    """
    if output is not None:
        with open(output, "w") as fh:
            yield fh.write
    else:
        yield sys.stdout.write
        sys.stdout.flush()


def _filled(template, converters, rows):
    """``template % cells`` for each row, each cell through its column's converter (None keeps it).

    Each column is a C-level map over its own ``itertools.tee`` copy of the
    rows, so a cell costs a Python call only where its converter is one.
    """
    copies = itertools.tee(rows, len(converters))
    columns = [map(itemgetter(i), copy) if convert is None else map(convert, map(itemgetter(i), copy))
               for i, (convert, copy) in enumerate(zip(converters, copies))]
    return map(template.__mod__, zip(*columns))


def _render(output, fmt, columns, rows, *, line=None, width=None, summary=None, document=None):
    """Write ``rows``, tuples in ``columns`` order, in format ``fmt``.

    Rows become lines lazily, and the lines are written in chunks of at most
    :data:`CHUNK_LINES`, one write call per chunk, so a stream is never held
    whole.
    csv: a header, then a line per row, each ending in "\\n"; None is empty,
    bools are true/false, partition and lanes are quoted.
    json: ``document(records)`` as one line, each record ``dict(zip(columns,
    row))``; without ``document``, one object per row and line, encoded cells
    in one template. Both write integers past 2^53 - 1 as strings (:func:`_jnum`).
    csv and json lines are filled by :func:`_filled`; the cells of
    :data:`_TEXT_COLUMNS` take no Python call.
    text: with ``width``, a header and the cells right-aligned to it, bools as
    yes/no; otherwise ``line(*row)`` per row, then ``summary`` if given.
    """
    rows = iter(rows)
    # draw the first row before opening the output: a stream past its ceiling writes nothing
    rows = itertools.chain(list(itertools.islice(rows, 1)), rows)
    if fmt == "csv":
        template = ",".join('"%s"' if c in _QUOTED else "%s" for c in columns) + "\n"
        converters = [None if c in _TEXT_COLUMNS else _cell for c in columns]
        lines = itertools.chain([",".join(columns) + "\n"], _filled(template, converters, rows))
    elif fmt == "json" and document:
        records = [{c: _jnum(v) for c, v in zip(columns, row)} for row in rows]
        lines = iter([_encode(document(records)) + "\n"])
    elif fmt == "json":
        template = "{" + ",".join(_encode(c) + ":%s" for c in columns) + "}\n"
        converters = [encode_basestring_ascii if c in _TEXT_COLUMNS else _json_cell for c in columns]
        lines = _filled(template, converters, rows)
    elif width:
        lines = (" ".join(_cell(v, ("no", "yes")).rjust(width) for v in row) + "\n"
                 for row in itertools.chain([columns], rows))
    else:
        lines = itertools.chain((line(*row) + "\n" for row in rows), [summary + "\n"] if summary else [])
    with _lines(output) as put:
        while chunk := list(itertools.islice(lines, CHUNK_LINES)):
            put("".join(chunk))


class _Group(click.Group):
    """The command group, where errors from every command become exit codes.

    Usage errors come from parsing the group's own arguments
    (:meth:`make_context`) or from resolving and parsing a subcommand
    (:meth:`invoke`); both stamp :data:`USAGE_EXIT` on the error itself.
    """

    def make_context(self, *args, **kwargs):
        try:
            return super().make_context(*args, **kwargs)
        except click.UsageError as exc:
            exc.exit_code = USAGE_EXIT
            raise

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except click.UsageError as exc:
            exc.exit_code = USAGE_EXIT
            raise
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


format_option = click.option("--format", "fmt", type=click.Choice(["text", "json", "csv"]),
                             default="text", show_default=True, help="Output format.")
# no parse-time check: the open in _lines decides, and exits 1 through _Group.invoke
output_option = click.option("--output", metavar="PATH", default=None, help="Write to a file.")


@click.group(cls=_Group)
def cli():
    """Count and classify noncrossing partitions into lonely and marriageable
    singles, and explore the equivalent road-intersection lane model."""


@cli.command()
@click.option("--n", type=click.IntRange(min=0), required=True)
@format_option
@output_option
def count(n: int, fmt: str, output: "str | None"):
    """Tally the partitions of one ground-set size."""
    _render(
        output, fmt, ("n", "lonely", "marriageable", "total"), [astuple(tally(CountJob(n)))],
        line="n={}: lonely={} marriageable={} total={}".format,
    )


TABLE_CSV_HEADER = tuple(f.name for f in fields(SequenceRow))


@cli.command()
@click.option("--max-n", type=click.IntRange(min=0), required=True)
@format_option
@output_option
def table(max_n: int, fmt: str, output: "str | None"):
    """Counts and ratio columns for every n up to --max-n."""
    _render(
        output, fmt, TABLE_CSV_HEADER, [astuple(r) for r in ratio_report(tally_range(max_n))],
        width=12, document=list,
    )


def _verify_line(n, match, lonely, marriageable, total, pl, pm, pc) -> str:
    computed = f"lonely={lonely} marriageable={marriageable} total={total}"
    if match:
        return f"n={n}: ok {computed}"
    return f"n={n}: MISMATCH computed {computed}, published lonely={pl} marriageable={pm} total={pc}"


def _verify_document(records: list) -> dict:
    keys = ("lonely", "marriageable", "total")
    rows = [
        {"n": r["n"], "match": r["match"], "computed": {k: r[k] for k in keys},
         "published": {k: r[f"published_{k}"] for k in keys}}
        for r in records
    ]
    return {"all_match": all(r["match"] for r in records), "rows": rows}


@cli.command()
@click.option("--max-n", type=click.IntRange(min=0), required=True)
@format_option
@output_option
def verify(max_n: int, fmt: str, output: "str | None"):
    """Recompute tallies and compare against the published reference rows.

    Exits 0 when every row matches and 2 otherwise, listing each mismatch.
    """
    check_size(max_n, ceiling=MAX_PUBLISHED_N, what="the published table")
    rows = []
    for t in tally_range(max_n):
        computed, published = astuple(t)[1:], published_row(t.n)
        rows.append((t.n, computed == published, *computed, *published))
    mismatches = sum(not row[1] for row in rows)
    _render(
        output, fmt,
        ("n", "match", "lonely", "marriageable", "total",
         "published_lonely", "published_marriageable", "published_total"),
        rows,
        line=_verify_line, summary=f"{len(rows)} rows compared, {mismatches} mismatches",
        document=_verify_document,
    )
    if mismatches:
        sys.exit(2)


@cli.command(name="enumerate")
@click.option("--n", type=click.IntRange(min=0), required=True)
@click.option("--class", "wanted", type=click.Choice([k.value for k in Kind]), default=None,
              help="Stream only one class.")
@format_option
@output_option
def enumerate_cmd(n: int, wanted: "str | None", fmt: str, output: "str | None"):
    """Stream noncrossing partitions in text form, optionally filtered.

    Without --class it writes C_n rows, the n-th Catalan number. On a 2-vCPU
    host with CPython 3.11, n = 13 (742,900 rows) takes about 1.7 s in text
    and 2.2 s in json, so n = 16 (35.4 M rows) takes over a minute and n = 20
    (6.56 G rows) hours.
    """
    _render(
        output, fmt, ("partition", "class"),
        _text_rows(n, wanted),
        line=lambda partition, kind: partition,
    )


@cli.command()
@click.option("--max-n", type=click.IntRange(min=0), required=True)
@format_option
@output_option
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
            checks.append(("lonely_bound", t.n, lower_bound_lonely(t.n), t.lonely))
        if t.n >= 3:
            checks.append(("marriageable_bound", t.n, lower_bound_marriageable(t.n), t.marriageable))
    for t in tallies[:-2]:
        checks.append(("two_step", t.n, t.total + 3 * t.marriageable, tallies[t.n + 2].marriageable))
    rows = [(*check, check[2] <= check[3]) for check in checks]
    violations = sum(not row[4] for row in rows)
    _render(
        output, fmt, ("check", "n", "bound", "value", "holds"), rows,
        line=lambda check, n, bound, value, holds:
            f"{check} n={n}: {bound} <= {value} {'ok' if holds else 'VIOLATED'}",
        summary=f"{len(rows)} checks, {violations} violations",
        document=lambda records: {"all_hold": not violations, "checks": records},
    )
    if violations:
        sys.exit(2)


CONJECTURE_CSV_HEADER = ["n", "ratio_l", "ratio_m", "m_over_l", "m_over_c", "l_over_c", "m_gt_l"]


@cli.command()
@click.option("--max-n", type=click.IntRange(min=0), required=True)
@format_option
@output_option
def conjectures(max_n: int, fmt: str, output: "str | None"):
    """Per-n quantities behind the five conjectured limits.

    Consecutive ratios of both sequences, marriageable over lonely,
    marriageable over total, lonely over total, and whether marriageable
    exceeds lonely.
    """
    _render(
        output, fmt, CONJECTURE_CSV_HEADER,
        [
            (r.n, r.ratio_l, r.ratio_m, r.m_over_l, r.m_over_c,
             two_digits(r.lonely, r.catalan), r.marriageable > r.lonely)
            for r in ratio_report(tally_range(max_n))
        ],
        width=10, document=list,
    )


@cli.command()
@click.option("--n", type=click.IntRange(min=1), required=True)
@format_option
@output_option
def intersection(n: int, fmt: str, output: "str | None"):
    """Stream every maximal lane set with its absoluteness flag.

    It writes C_n rows, the n-th Catalan number. On a 2-vCPU host with
    CPython 3.11, n = 13 (742,900 rows) takes about 2.7 s in text and 3.4 s
    in json, so n = 14 (2.67 M rows) takes about 10 s, n = 16 (35.4 M rows)
    over two minutes and n = 20 (6.56 G rows) hours.
    """
    _render(
        output, fmt, ("lanes", "absolute", "partition"),
        _lane_rows(n),
        line=lambda lanes, absolute, partition:
            f"{lanes} {'absolute' if absolute else 'nonabsolute'}",
    )


@cli.command()
@click.option("--seq", type=click.Choice(["L", "M"]), required=True,
              help="L for the lonely sequence, M for the marriageable one.")
@click.option("--max-n", type=click.IntRange(min=0), required=True)
@output_option
def bfile(seq: str, max_n: int, output: "str | None"):
    """Write the sequence in OEIS b-file form, one "n a(n)" pair per line."""
    _render(
        output, "text", ("n", "value"),
        [(t.n, t.lonely if seq == "L" else t.marriageable) for t in tally_range(max_n)],
        line="{} {}".format,
    )


def main():
    cli()


if __name__ == "__main__":
    main()

"""Command-line interface.

Eight subcommands over the library: count, table, verify, enumerate, bounds,
conjectures, intersection, bfile. Each command hands its rows, tuples in the
order of its column names, to one renderer, :func:`_render`, which writes text
by default and json or csv on request (bfile: text only). Reports pass a list,
enumerate and intersection stream a generator; both are written in chunks.
Arguments are parsed by the standard library's ``argparse``, so the package
needs nothing outside it at run time. Exit codes: 0 success, 1 an output path
could not be written, 2 a verification or bound check found mismatches, 64
usage errors, 65 a resource or data ceiling was exceeded; Ctrl-C: death by SIGINT.
"""
from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import signal
import sys
from json.encoder import encode_basestring_ascii
from operator import itemgetter

from .enumeration import CountJob, _text_rows, tally, tally_range
from .formulas import SequenceRow, lower_bound_lonely, lower_bound_marriageable, ratio_report, two_digits
from .intersection import _lane_rows
from .partitions import CeilingExceededError, Kind, check_size
from .reference import MAX_PUBLISHED_N, published_row

USAGE_EXIT = 64
"""Exit code of a usage error, from :meth:`_Parser.error`; other argparse
parsers in the process keep argparse's own 2."""

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


CHUNK_LINES = 512
"""Most lines :func:`_render` joins into one write call. Larger chunks save
few calls and hold more text at once."""


@contextlib.contextmanager
def _lines(output: "str | None"):
    """A write function for the --output file, or for stdout when none is given.

    Each call reaches the file object as it is: on a write-through stdout
    (``python -u``, ``PYTHONUNBUFFERED=1``) it is one system call, which is
    why :func:`_render` joins its lines into chunks. Stdout is flushed once
    at the end, still inside the command, so that :func:`main` sees a
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
    json: a report (count, table, verify, bounds, conjectures) passes
    ``document`` and gets ``document(records)`` on one line, each record
    ``dict(zip(columns, row))`` with integers past 2^53 - 1 as strings
    (:func:`_jnum`); a stream (enumerate, intersection) gets an object per
    row and line, its cells text or bools. csv and json lines are filled by
    :func:`_filled`, where the cells of :data:`_TEXT_COLUMNS` take no Python call.
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
        converters = [encode_basestring_ascii if c in _TEXT_COLUMNS else _cell for c in columns]
        lines = _filled(template, converters, rows)
    elif width:
        lines = (" ".join(_cell(v, ("no", "yes")).rjust(width) for v in row) + "\n"
                 for row in itertools.chain([columns], rows))
    else:
        lines = itertools.chain((line(*row) + "\n" for row in rows), [summary + "\n"] if summary else [])
    with _lines(output) as put:
        while chunk := list(itertools.islice(lines, CHUNK_LINES)):
            put("".join(chunk))


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit :data:`USAGE_EXIT` in place of argparse's 2.

    It takes no abbreviated option, shows its description as written, and
    has ``--help`` alone for help.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, add_help=False,
                         formatter_class=argparse.RawDescriptionHelpFormatter, **kwargs)
        self.add_argument("--help", action="help", help="Show this message and exit.")

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _size(flag: str, minimum: int = 0):
    """A required option ``flag`` taking a decimal integer of at least ``minimum``."""
    def size(text: str) -> int:
        if (value := int(text)) < minimum:
            raise argparse.ArgumentTypeError(f"{text} is not in the range x>={minimum}")
        return value
    return flag, dict(type=size, required=True, metavar="N", help=f"An integer, at least {minimum}.")


parser = _Parser(prog="crossroads", description=(
    "Count and classify noncrossing partitions into lonely and marriageable\n"
    "singles, and explore the equivalent road-intersection lane model."))
subcommands = parser.add_subparsers(metavar="COMMAND", required=True)

N, MAX_N = _size("--n"), _size("--max-n")
FORMAT = ("--format", dict(dest="fmt", choices=["text", "json", "csv"], default="text",
                           help="Output format (default: %(default)s)."))
# no parse-time check: the open in _lines decides, and exits 1 through main
OUTPUT = ("--output", dict(metavar="PATH", help="Write to a file."))


def _command(*options, name=None):
    """Register the decorated function as subcommand ``name`` (default its own name) taking ``options``.

    Its docstring is the subcommand's --help text, and its first line the
    summary in the root --help.
    """
    def register(func):
        doc = "\n".join(line.strip() for line in func.__doc__.splitlines())
        sub = subcommands.add_parser(name or func.__name__, help=doc.split("\n")[0], description=doc)
        for flag, settings in options:
            sub.add_argument(flag, **settings)
        sub.set_defaults(run=func)
        return func
    return register


@_command(N, FORMAT, OUTPUT)
def count(n: int, fmt: str, output: "str | None"):
    """Tally the partitions of one ground-set size."""
    _render(
        output, fmt, ("n", "lonely", "marriageable", "total"), [tally(CountJob(n))._values()],
        line="n={}: lonely={} marriageable={} total={}".format, document=itemgetter(0),
    )


TABLE_CSV_HEADER = SequenceRow.__slots__


@_command(MAX_N, FORMAT, OUTPUT)
def table(max_n: int, fmt: str, output: "str | None"):
    """Counts and ratio columns for every n up to --max-n."""
    _render(
        output, fmt, TABLE_CSV_HEADER, [r._values() for r in ratio_report(tally_range(max_n))],
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


@_command(MAX_N, FORMAT, OUTPUT)
def verify(max_n: int, fmt: str, output: "str | None"):
    """Recompute tallies and compare against the published reference rows.

    Exits 0 when every row matches and 2 otherwise, listing each mismatch.
    """
    check_size(max_n, ceiling=MAX_PUBLISHED_N, what="the published table")
    rows = []
    for t in tally_range(max_n):
        computed, published = t._values()[1:], published_row(t.n)
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


@_command(N, ("--class", dict(dest="wanted", choices=[k.value for k in Kind], help="Stream only one class.")),
          FORMAT, OUTPUT, name="enumerate")
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


@_command(MAX_N, FORMAT, OUTPUT)
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


@_command(MAX_N, FORMAT, OUTPUT)
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


@_command(_size("--n", 1), FORMAT, OUTPUT)
def intersection(n: int, fmt: str, output: "str | None"):
    """Stream every maximal lane set with its absoluteness flag.

    It writes C_n rows, the n-th Catalan number. On a 2-vCPU host with
    CPython 3.11, n = 13 (742,900 rows) takes about 3.5 s in text and 4.1 s
    in json, so n = 14 (2.67 M rows) takes about 14 s, n = 16 (35.4 M rows)
    over two minutes and n = 20 (6.56 G rows) hours.
    """
    _render(
        output, fmt, ("lanes", "absolute", "partition"),
        _lane_rows(n),
        line=lambda lanes, absolute, partition:
            f"{lanes} {'absolute' if absolute else 'nonabsolute'}",
    )


@_command(("--seq", dict(choices=["L", "M"], required=True,
                         help="L for the lonely sequence, M for the marriageable one.")), MAX_N, OUTPUT)
def bfile(seq: str, max_n: int, output: "str | None"):
    """Write the sequence in OEIS b-file form, one "n a(n)" pair per line."""
    _render(
        output, "text", ("n", "value"),
        [(t.n, t.lonely if seq == "L" else t.marriageable) for t in tally_range(max_n)],
        line="{} {}".format,
    )


def main(argv: "list[str] | None" = None) -> None:
    """Run the subcommand that ``argv`` (default ``sys.argv[1:]``) names; its errors exit as the module docstring says."""
    args = vars(parser.parse_args(argv))
    try:
        args.pop("run")(**args)
    except CeilingExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(65)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(1)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
    except KeyboardInterrupt:  # die by SIGINT, so that a calling shell stops too
        signal.signal(signal.SIGINT, signal.SIG_DFL)
        signal.raise_signal(signal.SIGINT)


if __name__ == "__main__":
    main()

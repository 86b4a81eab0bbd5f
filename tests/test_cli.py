import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import click
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from crossroads import (COUNT_CEILING, ENUMERATE_CEILING, catalan, classified_stream, lower_bound_lonely,
                         published_row)
from crossroads.cli import CHUNK_LINES, USAGE_EXIT, _render, cli


@pytest.fixture
def runner():
    return CliRunner()


class TestCount:
    def test_json_golden(self, runner):
        result = runner.invoke(cli, ["count", "--n", "4", "--format", "json"])
        assert result.exit_code == 0
        assert result.output.strip() == '{"n":4,"lonely":9,"marriageable":5,"total":14}'

    def test_text(self, runner):
        result = runner.invoke(cli, ["count", "--n", "8"])
        assert result.exit_code == 0
        assert result.output.strip() == "n=8: lonely=725 marriageable=705 total=1430"

    def test_csv(self, runner):
        result = runner.invoke(cli, ["count", "--n", "4", "--format", "csv"])
        assert result.output.splitlines() == [
            "n,lonely,marriageable,total",
            "4,9,5,14",
        ]

    def test_json_round_trip(self, runner):
        result = runner.invoke(cli, ["count", "--n", "10", "--format", "json"])
        data = json.loads(result.output)
        assert data == {"n": 10, "lonely": 7415, "marriageable": 9381, "total": 16796}

    def test_deep_count(self, runner):
        result = runner.invoke(cli, ["count", "--n", "1000", "--format", "json"])
        assert result.exit_code == 0
        assert json.loads(result.output)["total"] == str(catalan(1000))

    def test_at_the_ceiling_in_seconds(self, runner):
        started = time.monotonic()
        result = runner.invoke(cli, ["count", "--n", str(COUNT_CEILING), "--format", "json"])
        assert time.monotonic() - started < 5
        assert result.exit_code == 0
        assert json.loads(result.output)["total"] == str(catalan(COUNT_CEILING))

    def test_output_file(self, runner, tmp_path):
        target = tmp_path / "count.json"
        result = runner.invoke(
            cli, ["count", "--n", "4", "--format", "json", "--output", str(target)]
        )
        assert result.exit_code == 0
        assert target.read_text().strip() == '{"n":4,"lonely":9,"marriageable":5,"total":14}'


class TestTable:
    def test_csv_header_and_rows(self, runner):
        result = runner.invoke(cli, ["table", "--max-n", "4", "--format", "csv"])
        lines = result.output.splitlines()
        assert lines[0] == "n,lonely,marriageable,catalan,ratio_l,ratio_m,m_over_l,m_over_c"
        assert lines[1] == "0,1,0,1,,,0.00,0.00"
        assert lines[5] == "4,9,5,14,2.25,5.00,0.56,0.36"

    def test_csv_round_trip(self, runner):
        result = runner.invoke(cli, ["table", "--max-n", "6", "--format", "csv"])
        rows = list(csv.DictReader(io.StringIO(result.output)))
        assert len(rows) == 7
        assert int(rows[6]["lonely"]) == 77
        assert int(rows[6]["marriageable"]) == 55
        assert rows[6]["m_over_c"] == "0.42"
        assert rows[0]["ratio_l"] == ""

    def test_json_values_are_integers(self, runner):
        result = runner.invoke(cli, ["table", "--max-n", "3", "--format", "json"])
        data = json.loads(result.output)
        assert [row["catalan"] for row in data] == [1, 1, 2, 5]
        assert data[3]["ratio_l"] == "4.00"
        assert data[0]["ratio_l"] is None

    def test_text_has_all_rows(self, runner):
        result = runner.invoke(cli, ["table", "--max-n", "5"])
        assert len(result.output.splitlines()) == 7

    def test_csv_to_the_ceiling(self, runner):
        # ratio cells past 48 integer digits, from n = 1584 on, once ended in a traceback
        result = runner.invoke(cli, ["table", "--max-n", "2000", "--format", "csv"])
        assert result.exit_code == 0
        assert len(result.output.splitlines()) == 2002


class TestVerify:
    def test_trivial_row_matches(self, runner):
        result = runner.invoke(cli, ["verify", "--max-n", "0"])
        assert result.exit_code == 0
        assert "0 mismatches" in result.output

    def test_all_rows_match_up_to_9(self, runner):
        result = runner.invoke(cli, ["verify", "--max-n", "9"])
        assert result.exit_code == 0
        assert "10 rows compared, 0 mismatches" in result.output

    def test_divergent_rows_reported(self, runner):
        result = runner.invoke(cli, ["verify", "--max-n", "12"])
        assert result.exit_code == 2
        mismatch_lines = [l for l in result.output.splitlines() if "MISMATCH" in l]
        assert len(mismatch_lines) == 3
        assert any("n=10" in l and "7415" in l and "7401" in l for l in mismatch_lines)

    def test_json_reports_both_value_sets(self, runner):
        result = runner.invoke(cli, ["verify", "--max-n", "10", "--format", "json"])
        assert result.exit_code == 2
        data = json.loads(result.output)
        assert data["all_match"] is False
        row = data["rows"][10]
        assert row["computed"]["lonely"] == 7415
        assert row["published"]["lonely"] == 7401

    def test_beyond_reference_data(self, runner):
        result = runner.invoke(cli, ["verify", "--max-n", "15"])
        assert result.exit_code == 65
        assert result.stdout == ""
        assert result.stderr == "error: the published table is capped at n=14, got 15\n"

    def test_no_published_row_past_the_table(self):
        with pytest.raises(ValueError, match=r"^no published values for n=15$"):
            published_row(15)

    def test_csv_bytes(self, runner):
        result = runner.invoke(cli, ["verify", "--max-n", "3", "--format", "csv"])
        assert result.exit_code == 0
        assert result.stdout_bytes == (
            b"n,match,lonely,marriageable,total,published_lonely,published_marriageable,published_total\n"
            b"0,true,1,0,1,1,0,1\n"
            b"1,true,1,0,1,1,0,1\n"
            b"2,true,1,1,2,1,1,2\n"
            b"3,true,4,1,5,4,1,5\n"
        )

    def test_csv_reports_both_value_sets(self, runner):
        result = runner.invoke(cli, ["verify", "--max-n", "10", "--format", "csv"])
        assert result.exit_code == 2
        rows = list(csv.DictReader(io.StringIO(result.stdout)))
        assert len(rows) == 11
        assert rows[10]["match"] == "false"
        assert rows[10]["lonely"] == "7415"
        assert rows[10]["published_lonely"] == "7401"
        assert rows[9]["match"] == "true"


class TestEnumerate:
    def test_stream_count_is_catalan(self, runner):
        result = runner.invoke(cli, ["enumerate", "--n", "4"])
        assert len(result.output.splitlines()) == 14

    def test_lonely_filter(self, runner):
        result = runner.invoke(cli, ["enumerate", "--n", "4", "--class", "lonely"])
        lines = result.output.splitlines()
        assert len(lines) == 9
        assert "1,2,3,4" in lines

    def test_json_lines(self, runner):
        result = runner.invoke(
            cli, ["enumerate", "--n", "3", "--format", "json", "--class", "marriageable"]
        )
        records = [json.loads(l) for l in result.output.splitlines()]
        assert records == [{"partition": "1/2/3", "class": "marriageable"}]

    def test_csv_stream(self, runner):
        result = runner.invoke(cli, ["enumerate", "--n", "2", "--format", "csv"])
        lines = result.output.splitlines()
        assert lines[0] == "partition,class"
        assert '"1,2",lonely' in lines
        assert '"1/2",marriageable' in lines

    # sha256 of the stdout of `enumerate --n 10`, pinned from the
    # generate-sort-then-classify pipeline the walker replaced
    GOLDEN_N10 = {
        ("text", None): "0e9cd2368ea1aa144de0ddda26d67affd13caae412ba4d3e1c591f7241f397f6",
        ("text", "lonely"): "3b46c38697eb7571cdc7e2615fc745c0e4ea2b4b766f716351e90829bde26baf",
        ("text", "marriageable"): "a921dacdcd633344c1942964aa3a9a1f4d843386dae98790b30a50d0af4cefb3",
        ("json", None): "f30fb4acba50eee454c16c6c5a0259c5e23b2b72fde3342995e7fc084da6ca46",
        ("json", "lonely"): "755dff99e3756daa6f1f72493e06bd29c26602b0299493d71dccbefe26605148",
        ("json", "marriageable"): "b11109365fba69d71e64ca520ddef95b0593c5a615fb27af88c54f1a1b0a3a1b",
        ("csv", None): "ae0fc88dc8a2624fe469c5caa62fb3fd68648d36215f70a279daf1090e2e37c3",
        ("csv", "lonely"): "90288cb13188f321a212b9c357e5e5cc63d896f4d430f0e727395ea9082d172f",
        ("csv", "marriageable"): "a740ccea907b91d2ee3487f7fb7a7b690b4fc39f0ef221cab834581247b7c3b8",
    }

    @pytest.mark.parametrize("fmt, wanted", sorted(GOLDEN_N10, key=str))
    def test_golden_bytes_at_10(self, runner, fmt, wanted):
        argv = ["enumerate", "--n", "10", "--format", fmt]
        if wanted:
            argv += ["--class", wanted]
        result = runner.invoke(cli, argv)
        assert result.exit_code == 0
        assert hashlib.sha256(result.stdout_bytes).hexdigest() == self.GOLDEN_N10[fmt, wanted]

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_past_the_ceiling_exits_65_before_writing(self, runner, tmp_path, fmt):
        argv = ["enumerate", "--n", str(ENUMERATE_CEILING + 1), "--format", fmt]
        result = runner.invoke(cli, argv)
        assert result.exit_code == 65
        assert result.stdout_bytes == b""
        assert result.stderr.startswith("error:")
        target = tmp_path / "out"
        assert runner.invoke(cli, argv + ["--output", str(target)]).exit_code == 65
        assert not target.exists()

    def test_broken_pipe_exits_1_quietly(self):
        paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
        proc = subprocess.Popen(
            [sys.executable, "-m", "crossroads.cli", "enumerate", "--n", "10"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        try:
            assert proc.stdout.readline() == b"1/2/3/4/5/6/7/8/9/10\n"
            proc.stdout.close()
            assert proc.wait(timeout=60) == 1
            assert proc.stderr.read() == b""
        finally:
            proc.kill()
            proc.stderr.close()


class TestBounds:
    def test_bounds_hold(self, runner):
        result = runner.invoke(cli, ["bounds", "--max-n", "10"])
        assert result.exit_code == 0
        assert "0 violations" in result.output
        assert "lonely_bound n=10: 2923 <= 7415 ok" in result.output
        assert "two_step n=8: 3545 <= 9381 ok" in result.output

    def test_300_in_seconds(self, runner):
        started = time.monotonic()
        result = runner.invoke(cli, ["bounds", "--max-n", "300"])
        assert time.monotonic() - started < 20
        assert result.exit_code == 0
        assert result.output.rstrip().endswith(" 0 violations")

    def test_json_structure(self, runner):
        result = runner.invoke(cli, ["bounds", "--max-n", "6", "--format", "json"])
        data = json.loads(result.output)
        assert data["all_hold"] is True
        names = {c["check"] for c in data["checks"]}
        assert names == {"lonely_bound", "marriageable_bound", "two_step"}

    def test_csv_bytes(self, runner):
        result = runner.invoke(cli, ["bounds", "--max-n", "4", "--format", "csv"])
        assert result.exit_code == 0
        assert result.stdout_bytes == (
            b"check,n,bound,value,holds\n"
            b"lonely_bound,2,1,1,true\n"
            b"lonely_bound,3,4,4,true\n"
            b"marriageable_bound,3,0,1,true\n"
            b"lonely_bound,4,7,9,true\n"
            b"marriageable_bound,4,4,5,true\n"
            b"two_step,0,1,1,true\n"
            b"two_step,1,1,1,true\n"
            b"two_step,2,5,5,true\n"
        )


    def test_a_violated_bound_exits_2(self, runner, monkeypatch):
        # the bounds are proved, so one is made to overshoot the lonely count at n = 5
        monkeypatch.setattr("crossroads.cli.lower_bound_lonely", lambda n: lower_bound_lonely(n) + 1000 * (n == 5))
        result = runner.invoke(cli, ["bounds", "--max-n", "6"])
        assert result.exit_code == 2
        assert [l for l in result.output.splitlines() if "VIOLATED" in l] == ["lonely_bound n=5: 1021 <= 26 VIOLATED"]
        assert result.output.endswith(" checks, 1 violations\n")
        result = runner.invoke(cli, ["bounds", "--max-n", "6", "--format", "json"])
        assert result.exit_code == 2
        assert '"all_hold":false' in result.output


class TestConjectures:
    def test_csv_header_and_cells(self, runner):
        result = runner.invoke(cli, ["conjectures", "--max-n", "9", "--format", "csv"])
        lines = result.output.splitlines()
        assert lines[0] == "n,ratio_l,ratio_m,m_over_l,m_over_c,l_over_c,m_gt_l"
        row9 = lines[10].split(",")
        assert row9 == ["9", "3.17", "3.64", "1.11", "0.53", "0.47", "true"]

    def test_m_exceeds_l_from_nine(self, runner):
        result = runner.invoke(cli, ["conjectures", "--max-n", "10", "--format", "json"])
        data = json.loads(result.output)
        assert [row["m_gt_l"] for row in data] == [False] * 9 + [True, True]


class TestIntersectionCommand:
    def test_text_stream(self, runner):
        result = runner.invoke(cli, ["intersection", "--n", "2"])
        assert result.output.splitlines() == [
            "E1>X1,E2>X2 nonabsolute",
            "E1>X2,E2>X1 absolute",
        ]

    def test_json_stream(self, runner):
        result = runner.invoke(cli, ["intersection", "--n", "4", "--format", "json"])
        records = [json.loads(l) for l in result.output.splitlines()]
        assert len(records) == 14
        assert sum(1 for r in records if r["absolute"]) == 9
        partitions = {r["partition"] for r in records}
        assert "1,2,3/4" in partitions

    def test_ceiling(self, runner):
        result = runner.invoke(cli, ["intersection", "--n", str(ENUMERATE_CEILING + 1)])
        assert result.exit_code == 65
        assert result.stderr == "error: enumeration is capped at n=500, got 501\n"

    def test_ceiling_writes_no_csv_header(self, runner, tmp_path):
        argv = ["intersection", "--n", str(ENUMERATE_CEILING + 1), "--format", "csv"]
        result = runner.invoke(cli, argv)
        assert result.exit_code == 65
        assert result.stdout_bytes == b""
        target = tmp_path / "out"
        assert runner.invoke(cli, argv + ["--output", str(target)]).exit_code == 65
        assert not target.exists()

    @pytest.mark.parametrize("n", range(1, 9))
    def test_partition_column_is_the_enumerate_stream(self, runner, n):
        # the lane sets come in the walker's order, so the partitions match enumerate's line for line
        def column(argv, index):
            result = runner.invoke(cli, argv + ["--n", str(n), "--format", "csv"])
            assert result.exit_code == 0
            return [row[index] for row in csv.reader(io.StringIO(result.output))][1:]

        partitions = column(["intersection"], 2)
        assert len(partitions) == catalan(n)
        assert partitions == column(["enumerate"], 0)

    def test_runs_with_networkx_blocked(self):
        # the lane sets come from the partition walker, no graph library: an import of networkx would fail here
        code = (
            "import sys\n"
            "sys.modules['networkx'] = None\n"
            "from crossroads import enumerate_msl\n"
            "from crossroads.cli import main\n"
            "assert len(list(enumerate_msl(7))) == 429\n"
            "sys.argv = ['crossroads', 'intersection', '--n', '7', '--format', 'csv']\n"
            "main()\n"
        )
        paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert _sha256(proc.stdout) == TestGoldenBytes.GOLDEN["intersection --n 7 --format csv"][1]


class TestBfile:
    def test_golden_lines(self, runner):
        result = runner.invoke(cli, ["bfile", "--seq", "L", "--max-n", "3"])
        assert result.output == "0 1\n1 1\n2 1\n3 4\n"

    def test_marriageable_sequence(self, runner):
        result = runner.invoke(cli, ["bfile", "--seq", "M", "--max-n", "5"])
        assert result.output == "0 0\n1 0\n2 1\n3 1\n4 5\n5 16\n"

    def test_output_file(self, runner, tmp_path):
        target = tmp_path / "b363448.txt"
        result = runner.invoke(
            cli, ["bfile", "--seq", "L", "--max-n", "3", "--output", str(target)]
        )
        assert result.exit_code == 0
        assert target.read_text() == "0 1\n1 1\n2 1\n3 4\n"


class TestExitCodes:
    def test_unknown_command(self, runner):
        result = runner.invoke(cli, ["frobnicate"])
        assert result.exit_code == 64

    def test_bad_format_value(self, runner):
        result = runner.invoke(cli, ["count", "--n", "4", "--format", "xml"])
        assert result.exit_code == 64

    def test_missing_required_option(self, runner):
        result = runner.invoke(cli, ["count"])
        assert result.exit_code == 64

    def test_negative_n(self, runner):
        result = runner.invoke(cli, ["count", "--n", "-2"])
        assert result.exit_code == 64

    @pytest.mark.parametrize("argv", [[], ["--bogus"], ["count", "--n", "x"], ["enumerate", "--n", "3", "--class", "x"]])
    def test_group_and_subcommand_usage_errors(self, runner, argv):
        assert runner.invoke(cli, argv).exit_code == USAGE_EXIT == 64

    def test_usage_exit_stays_inside_the_group(self, runner):
        # a click command beside crossroads in the same process keeps click's own exit code 2
        @click.command()
        @click.option("--n", required=True)
        def foreign(n):
            pass

        assert runner.invoke(foreign, []).exit_code == 2
        assert runner.invoke(cli, ["count"]).exit_code == 64
        assert runner.invoke(foreign, ["--bogus"]).exit_code == 2

    def test_ceiling_exit(self, runner):
        result = runner.invoke(cli, ["verify", "--max-n", "20"])
        assert result.exit_code == 65

    def test_count_ceiling_exit(self, runner):
        for argv in (["count", "--n", "2001"], ["table", "--max-n", "2001"]):
            result = runner.invoke(cli, argv)
            assert result.exit_code == 65
            assert "capped at n=2000" in result.output

    def test_unwritable_output_path(self, runner, tmp_path):
        target = tmp_path / "no-such-dir" / "out.json"
        result = runner.invoke(
            cli, ["count", "--n", "4", "--output", str(target)]
        )
        assert result.exit_code == 1
        assert result.output.startswith("error:")
        assert "Traceback" not in result.output

    def test_output_path_is_judged_by_opening_it(self, runner, tmp_path, monkeypatch):
        # a refusing os.access is how a non-root user's read-only or write-only
        # file looks; only the open decides, and here it succeeds
        target = tmp_path / "out.txt"
        target.write_text("old\n")
        monkeypatch.setattr(os, "access", lambda *args, **kwargs: False)
        result = runner.invoke(cli, ["count", "--n", "3", "--output", str(target)])
        assert result.exit_code == 0, result.output
        assert target.read_text() == "n=3: lonely=4 marriageable=1 total=5\n"

    def test_empty_output_path(self, runner):
        # an empty path is a path that cannot be opened, not a request for stdout
        result = runner.invoke(cli, ["count", "--n", "3", "--output", ""])
        assert result.exit_code == 1
        assert result.output.startswith("error:") and result.output.count("\n") == 1
        assert "lonely" not in result.output

    def test_output_path_is_directory(self, runner, tmp_path):
        result = runner.invoke(
            cli, ["enumerate", "--n", "4", "--output", str(tmp_path)]
        )
        assert result.exit_code == 1
        assert result.output.startswith("error:")
        assert "Traceback" not in result.output


SIZES = ["-1", "0", "1", "2", "5", "8", "14", "15", "2000", "2001", "501", "1.0", "0x10", "", "1" * 23]
"""Size arguments: negative, small, at and past the published table (14), at and past
COUNT_CEILING (2000), past ENUMERATE_CEILING (500), a float, hex, empty and 23 digits."""

STREAM_SIZES = [size for size in SIZES if size not in ("14", "15")]
"""The sizes ``enumerate`` and ``intersection`` draw: at most 8 or past their ceiling, so no draw streams for long."""


def _rarely(draw, values):
    """One of ``values`` on about one draw in five, else None, so most argvs get past parsing."""
    return draw(st.sampled_from(values)) if draw(st.integers(0, 4)) == 0 else None


@st.composite
def argvs(draw):
    """An argv over every subcommand, with sizes, choices and options in and out of their sets."""
    command = draw(st.sampled_from(sorted(cli.commands) + ["frobnicate"]))
    argv = [command]
    if command in cli.commands:
        stream = command in ("enumerate", "intersection")
        option = "--n" if stream or command == "count" else "--max-n"
        argv += [option, draw(st.sampled_from(STREAM_SIZES if stream else SIZES))]
    if command == "enumerate":
        wanted = draw(st.sampled_from([None, "lonely", "marriageable", "single"]))
        argv += ["--class", wanted] if wanted else []
    if command == "bfile":
        argv += ["--seq", draw(st.sampled_from(["L", "M", "Q"]))]
    fmt = draw(st.sampled_from([None, "text", "json", "csv", "xml"]))
    argv += ["--format", fmt] if fmt else []
    # paths that cannot be opened for writing, so no draw writes a file
    output = _rarely(draw, ["", os.curdir, os.path.join(os.devnull, "out")])
    argv += ["--output", output] if output is not None else []
    if _rarely(draw, [True]):
        argv.insert(draw(st.integers(0, len(argv))), "--bogus")
    return argv


@settings(derandomize=True, max_examples=300, deadline=None)
@given(argvs())
def test_exit_code_contract(argv):
    """Every argv exits with a documented code, raises nothing but SystemExit, and writes parseable output."""
    result = CliRunner().invoke(cli, argv)
    assert result.exception is None or isinstance(result.exception, SystemExit), argv
    assert result.exit_code in (0, 1, 2, 64, 65), argv
    if result.exit_code in (1, 65):
        assert result.stderr.count("\n") == 1 and result.stderr.endswith("\n"), argv
    if result.exit_code == 0 and "json" in argv:
        assert all(json.loads(line) is not None for line in result.stdout.splitlines())
    if result.exit_code == 0 and "csv" in argv:
        header, *rows = csv.reader(io.StringIO(result.stdout))
        assert all(len(row) == len(header) for row in rows), argv


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestGoldenBytes:
    # exit code and sha256 of stdout for every command in every format it
    # takes, pinned from the per-command formatting the renderer replaced;
    # count, table and conjectures CSV are pinned with "\n" line ends, where
    # they used to end in "\r\n". verify and bounds CSV, which used to print
    # the text report, are spelled out in TestVerify and TestBounds.
    GOLDEN = {
        "count --n 10 --format text": (0, "99d502769191f5fe766d65fe69227742445c5a62ec6733de8e33e172b2cc3f76"),
        "count --n 10 --format json": (0, "2821e4554895f6ef4ceef00afe200bce333a5993782d0bce8e624d3acf309d0c"),
        "count --n 10 --format csv": (0, "fbd4669f9126e967d6f6af6cc409946dea48e6fdb4594552173a2805ff885c54"),
        "count --n 0 --format csv": (0, "182fd3122d507a2e605b98e6e7da9599f9aae3b7cc5167fbf5d924b47a8b71f7"),
        "table --max-n 12 --format text": (0, "16e2fdd879ec07731ea4ee049eaecc104a2e59d486c65cf1b838e3dd2586ea54"),
        "table --max-n 12 --format json": (0, "84c460141236022d5af27f421efac5822839092cea94083c6f03f71fbe4b683f"),
        "table --max-n 12 --format csv": (0, "2faccf08cc9b018086c0979a4b417f9c0b8b175d74b12193e0b303596ea279e2"),
        "verify --max-n 9": (0, "5783b3055faae2b057f3887575012348d35ce4bc30a456ce2c8127d946158f11"),
        "verify --max-n 12 --format text": (2, "7365c08a52ada413d9aee51f904bee07e938906dc0cf84e7932c51d5a7cabd95"),
        "verify --max-n 12 --format json": (2, "05ac2ee63398b14522bded96ff1dc5a37241bf0636ce048d875ab09b8b9488ba"),
        "bounds --max-n 12 --format text": (0, "1fd729086806c3bc3020c718a8dfbe196dd82d4478336aec14ca2efb4b340ddb"),
        "bounds --max-n 12 --format json": (0, "9fd91e9c0eb2204dca80304c0cb49e8de2b29d5fa65ab71daa1d19785ffcdb09"),
        # at the ceiling: 6,800,655 and 7,040,122 bytes, pinned from the Riordan convolution
        "bounds --max-n 2000 --format text": (0, "fe3fabde295c02b711a7e8c0e13fbfaa5ce6ca172fd626d315b81df8cfbbd901"),
        "bounds --max-n 2000 --format json": (0, "14892ad88f7ea2eeffb2676dcf8b3474a6bb7fbb383db4ceb2674eb4165d2d0f"),
        "conjectures --max-n 12 --format text": (0, "aac114fd8bf32143493499e8653cc488f6ab8133b32dda61d089e64602a45b77"),
        "conjectures --max-n 12 --format json": (0, "cdd5a2ba59c1edf72517fe2c3770f8a47b25f6466fd86acb063b0ca6993fca1e"),
        "conjectures --max-n 12 --format csv": (0, "29e7af06bfd9a020134f8c0ad13ba0aa90a99c2b99da9d248543b55d1091d4d4"),
        "enumerate --n 5 --format text": (0, "10e6ac1d8d2729200adf67235db3a1fc61b091f1db05b688ee60e4f6d48077d7"),
        "enumerate --n 5 --format json": (0, "49d0e95c3a2d9864bec065939a09356e5c078e822cc3205525754eae06f1d0a1"),
        "enumerate --n 5 --format csv": (0, "31ca1f52683d4d08f53432da709d990ae5a9d937b396bb0d211546e55375a2e9"),
        "enumerate --n 0 --format text": (0, "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b"),
        "enumerate --n 0 --format text --class lonely": (0, "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b"),
        "enumerate --n 0 --format text --class marriageable": (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        "enumerate --n 0 --format json": (0, "be7ec93b59252eb088dace4462efa4f4ea5d89b2d18e7204e5f1701dc1cf5776"),
        "enumerate --n 0 --format json --class lonely": (0, "be7ec93b59252eb088dace4462efa4f4ea5d89b2d18e7204e5f1701dc1cf5776"),
        "enumerate --n 0 --format json --class marriageable": (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        "enumerate --n 0 --format csv": (0, "105433f65a397a5fa2c35ba37ecc118e78dc09f55a069b2069d6b9e55bd019fa"),
        "enumerate --n 0 --format csv --class lonely": (0, "105433f65a397a5fa2c35ba37ecc118e78dc09f55a069b2069d6b9e55bd019fa"),
        "enumerate --n 0 --format csv --class marriageable": (0, "f9dcfc727b4021873255852059ceb7e36bc20160fb6eb48548017aa2f423bad5"),
        # intersection rows come in the walker's order, enumerate's partitions line for line
        "intersection --n 4 --format text": (0, "4a230b6e2ba2eb3b2c9e62a82aa0680d841c8b370a22c450f3b68263dce7a578"),
        "intersection --n 4 --format json": (0, "c93bc0aedd359b41a855d246d2fc279ebe63b234d78f4e51d930539772bae167"),
        "intersection --n 4 --format csv": (0, "7fba78ac809cd78bff1d13efae5fd65ad126fec715fbab8bc1928fe49180e59b"),
        "intersection --n 1 --format text": (0, "4469c55bb960d51e690801a82e504aa293b2249c76d8d4fd38a39f0fa538a38a"),
        "intersection --n 1 --format json": (0, "bc12be48a942a6d3c1d65f23560b7e1447565483781aa9a53033cad9c83ef96a"),
        "intersection --n 1 --format csv": (0, "10a2ebe73cc21f8f07c7b745a9528720b3ee93c189b45bab150eeb549c4e21c3"),
        "intersection --n 5 --format text": (0, "f127c4583b4fb7aa52696dcc91c8a856a188e3d4a7cfa75aaa931edd911101c9"),
        "intersection --n 5 --format json": (0, "fab11bb02bad6b3f17280337cb7a9e0dcd5938ff40dd67a052ac7598bf8e8e52"),
        "intersection --n 5 --format csv": (0, "a20b95f74b5da424af9740dbdcf2f096ae8ba97983553bd2648f32a6858494fd"),
        "intersection --n 6 --format text": (0, "83ad107b3c3bbabb2e4254aa2ff0cf94c2ce16d390591c7fa9e2af8053d7c4b0"),
        "intersection --n 6 --format json": (0, "e7ff3eb178edffeb21286dbe007314c0a227771b2dad0dd003e1f54f323ed3f2"),
        "intersection --n 6 --format csv": (0, "598dd3320f00b1dd3e545d6f1906b0483644e6a39db248755a7eb74f9091d1c4"),
        "intersection --n 7 --format text": (0, "4a90f70a3e0f7aece307af2ac8aa6feff27bebd6ff32cc9fb43a508a02d1ab54"),
        "intersection --n 7 --format json": (0, "d3de0b69ef2c4e388f53e7d6fa56f28a9de0299fb7d4effd1317186875578273"),
        "intersection --n 7 --format csv": (0, "ea5beb47ca506da2f1acbeb40a380211d57cc51c7df70d2f150e476faeaad9d6"),
        "bfile --seq L --max-n 20": (0, "dab5a6e13cfef02a12168eab734a42182b178c894733a342311cc4b06fd572cd"),
        "bfile --seq M --max-n 20": (0, "1347e296218558183c41308c71b92af358e30593fbdd1cebfef405ab45e45a7f"),
    }
    EVERY = sorted(GOLDEN) + ["verify --max-n 12 --format csv", "bounds --max-n 12 --format csv"]

    @pytest.mark.parametrize("line", sorted(GOLDEN))
    def test_stdout_and_exit_code(self, runner, line):
        result = runner.invoke(cli, line.split())
        assert (result.exit_code, _sha256(result.stdout_bytes)) == self.GOLDEN[line]
        assert result.stderr_bytes == b""

    @pytest.mark.parametrize("line", EVERY)
    def test_output_file_gets_the_stdout_bytes(self, runner, tmp_path, line):
        target = tmp_path / "out"
        shown = runner.invoke(cli, line.split())
        written = runner.invoke(cli, line.split() + ["--output", str(target)])
        assert written.exit_code == shown.exit_code
        assert written.stdout_bytes == b""
        assert target.read_bytes() == shown.stdout_bytes

    @pytest.mark.parametrize("line", EVERY)
    def test_no_carriage_returns(self, runner, line):
        assert b"\r" not in runner.invoke(cli, line.split()).stdout_bytes


class TestRenderCells:
    COLUMNS = ("n", "match", "partition", "class")
    ROWS = [(None, True, "1,2/3", "lonely"), (12, False, "", "marriageable"), (0, 1, "1", "lonely"),
            (2**53, False, "1/2", "lonely")]

    @pytest.mark.parametrize("fmt, expected", [
        ("csv", 'n,match,partition,class\n,true,"1,2/3",lonely\n12,false,"",marriageable\n0,1,"1",lonely\n'
                '9007199254740992,false,"1/2",lonely\n'),
        ("json", '{"n":null,"match":true,"partition":"1,2/3","class":"lonely"}\n'
                 '{"n":12,"match":false,"partition":"","class":"marriageable"}\n'
                 '{"n":0,"match":1,"partition":"1","class":"lonely"}\n'
                 '{"n":"9007199254740992","match":false,"partition":"1/2","class":"lonely"}\n'),
    ])
    def test_none_bool_and_str_cells(self, capsys, fmt, expected):
        # the text columns skip the per-cell conversion, the others keep it;
        # the ints 0 and 1 stay ints, not bools; json lines, like the json
        # documents, write an int past 2^53 - 1 as a string, csv writes it bare
        _render(None, fmt, self.COLUMNS, iter(self.ROWS))
        assert capsys.readouterr().out == expected


class TestChunkedWrites:
    class _CountingStdout:
        """A stdout that keeps each write call's text."""

        def __init__(self):
            self.writes = []

        def write(self, text):
            self.writes.append(text)
            return len(text)

        def flush(self):
            pass

    def test_a_stream_takes_one_write_per_chunk(self, monkeypatch):
        stdout = self._CountingStdout()
        monkeypatch.setattr(sys, "stdout", stdout)
        rows = ((p.to_text(), "lonely" if w is None else "marriageable") for p, w in classified_stream(10))
        _render(None, "csv", ("partition", "class"), rows)
        assert len(stdout.writes) <= math.ceil(catalan(10) / CHUNK_LINES) + 1
        assert max(text.count("\n") for text in stdout.writes) <= CHUNK_LINES
        written = "".join(stdout.writes).encode()
        assert _sha256(written) == TestEnumerate.GOLDEN_N10["csv", None]

    @pytest.mark.parametrize("argv, golden", [
        ("enumerate --n 10 --format csv", TestEnumerate.GOLDEN_N10["csv", None]),
        ("intersection --n 7 --format csv", TestGoldenBytes.GOLDEN["intersection --n 7 --format csv"][1]),
    ])
    def test_write_through_stdout_gets_the_same_bytes(self, argv, golden):
        # with PYTHONUNBUFFERED=1 each write call reaches the pipe as it is
        paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)), PYTHONUNBUFFERED="1")
        proc = subprocess.run([sys.executable, "-m", "crossroads.cli", *argv.split()],
                              env=env, capture_output=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert _sha256(proc.stdout) == golden

"""Command-line surface: formats, exit codes, determinism, diagnostics."""

import json
import os
import subprocess
import sys

import jsonschema
import pytest

from numsem import cli, oracle
from numsem.cli import (
    EXIT_CAPACITY,
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_USAGE,
    RECORD_KEYS,
    RECORD_SCHEMA,
    build_parser,
    format_text,
    frobenius_display,
    run,
    semigroup_record,
    solution_record,
)
from numsem.core import FULL_SEMIGROUP, NumericalSemigroup
from numsem.frontier import solve
from numsem.maxavoid import maximal_avoiding

sg = NumericalSemigroup.from_generators


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestIrreducibles:
    def test_text_golden(self, capsys):
        code, out, err = invoke(capsys, "irreducibles", "-A", "4", "-F", "11")
        assert code == EXIT_OK
        assert out.splitlines() == [
            "<4,6,9> | F=11 g=6 gaps={1,2,3,5,7,11}",
            "<4,5> | F=11 g=6 gaps={1,2,3,6,7,11}",
            "<2,13> | F=11 g=6 gaps={1,3,5,7,9,11}",
        ]
        assert err == ""

    def test_json_golden(self, capsys):
        code, out, _ = invoke(
            capsys, "irreducibles", "-A", "4", "-F", "11", "--format", "json"
        )
        assert code == EXIT_OK
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 3
        for record in records:
            jsonschema.validate(record, RECORD_SCHEMA)
            assert tuple(record) == RECORD_KEYS
            assert record["kind"] == "semigroup"
            assert record["elements"] is None
            assert len(record["gaps"]) == record["genus"]
            assert max(record["gaps"]) == record["frobenius"]
        assert [r["msg"] for r in records] == [[4, 6, 9], [4, 5], [2, 13]]

    def test_infeasible_names_witness(self, capsys):
        code, out, err = invoke(capsys, "irreducibles", "-A", "4", "-F", "8")
        assert code == EXIT_INFEASIBLE
        assert out == ""
        assert "8 = 2·4" in err


class TestSemigroups:
    def test_count_and_order(self, capsys):
        code, out, _ = invoke(capsys, "semigroups", "-A", "4", "-F", "11")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert len(lines) == 8
        assert lines[0] == "<4,13,14,15> | F=11 g=9 gaps={1,2,3,5,6,7,9,10,11}"
        assert lines[-1] == "<2,13> | F=11 g=6 gaps={1,3,5,7,9,11}"

    def test_empty_required_flag(self, capsys):
        code, out, _ = invoke(capsys, "semigroups", "-A", "", "-F", "3")
        assert code == EXIT_OK
        assert len(out.splitlines()) == 2


class TestMaximalAndSolve:
    def test_maximal(self, capsys):
        code, out, _ = invoke(capsys, "maximal", "-A", "4,9", "-B", "11,14")
        assert code == EXIT_OK
        assert out.splitlines() == ["<4,9,15> | F=14 g=9 gaps={1,2,3,5,6,7,10,11,14}"]

    def test_solve_json(self, capsys):
        code, out, _ = invoke(
            capsys, "solve", "-A", "4,9", "-B", "11,14", "--format", "json"
        )
        assert code == EXIT_OK
        (record,) = [json.loads(line) for line in out.splitlines()]
        jsonschema.validate(record, RECORD_SCHEMA)
        assert record["kind"] == "solution-set"
        assert record["elements"] == [1, 2, 3, 5, 6, 7, 10, 11, 14]
        assert record["gaps"] == record["elements"]
        assert record["msg"] == [4, 9, 15]

    def test_solve_asserts_distinct_solutions(self, monkeypatch):
        s = sg([4, 9, 15])
        monkeypatch.setattr(cli, "maximal_avoiding", lambda required, forbidden: [s, s])
        with pytest.raises(AssertionError):
            run(["solve", "-A", "4,9", "-B", "11,14"])

    def test_solve_infeasible(self, capsys):
        code, out, err = invoke(capsys, "solve", "-A", "4,9", "-B", "13")
        assert code == EXIT_INFEASIBLE
        assert "13 = 4 + 9" in err

    def test_forbidden_zero_normalizes_away(self, capsys):
        code, out, _ = invoke(capsys, "solve", "-A", "", "-B", "0,4")
        assert code == EXIT_OK
        assert len(out.splitlines()) == 1


class TestOracleSubcommands:
    def test_partitions_text(self, capsys):
        code, out, _ = invoke(capsys, "oracle", "partitions", "5")
        assert code == EXIT_OK
        assert out.splitlines() == [
            "5",
            "4+1",
            "3+2",
            "3+1+1",
            "2+2+1",
            "2+1+1+1",
            "1+1+1+1+1",
        ]

    def test_partitions_json(self, capsys):
        code, out, _ = invoke(capsys, "oracle", "partitions", "3", "--format", "json")
        assert code == EXIT_OK
        records = [json.loads(line) for line in out.splitlines()]
        for record in records:
            jsonschema.validate(record, RECORD_SCHEMA)
        assert [r["elements"] for r in records] == [[3], [2, 1], [1, 1, 1]]

    def test_irreducibles_match_main_pipeline(self, capsys):
        code, brute, _ = invoke(capsys, "oracle", "irreducibles", "-A", "4", "-F", "11")
        assert code == EXIT_OK
        code, fast, _ = invoke(capsys, "irreducibles", "-A", "4", "-F", "11")
        assert code == EXIT_OK
        assert sorted(brute.splitlines()) == sorted(fast.splitlines())

    def test_hitting_sets(self, capsys):
        code, out, _ = invoke(capsys, "oracle", "hitting-sets", "-A", "4,9", "-B", "11,14")
        assert code == EXIT_OK
        assert out.splitlines() == ["<4,9,15> | F=14 g=9 gaps={1,2,3,5,6,7,10,11,14}"]

    def test_oracle_capacity(self, capsys):
        code, _, err = invoke(capsys, "oracle", "semigroups", "-A", "", "-F", "17")
        assert code == EXIT_CAPACITY
        assert "capacity" in err


class TestLimitsAndCaps:
    def test_limit_truncates_with_note(self, capsys):
        code, out, err = invoke(capsys, "irreducibles", "-A", "4", "-F", "11", "--limit", "1")
        assert code == EXIT_OK
        assert len(out.splitlines()) == 1
        assert "truncated to 1 of 3" in err

    def test_limit_larger_than_output(self, capsys):
        code, out, err = invoke(capsys, "irreducibles", "-A", "4", "-F", "11", "--limit", "9")
        assert code == EXIT_OK
        assert len(out.splitlines()) == 3
        assert err == ""

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("limit", [0, 1, 2, 3, 9])
    def test_limit_bounds_rendering(self, capsys, monkeypatch, fmt, limit):
        rendered = []
        line = cli._RENDER[fmt]["semigroup"]
        monkeypatch.setitem(
            cli._RENDER[fmt], "semigroup", lambda s: rendered.append(s) or line(s)
        )
        code, out, err = invoke(
            capsys, "irreducibles", "-A", "4", "-F", "11", "--format", fmt,
            "--limit", str(limit),
        )
        assert code == EXIT_OK
        assert len(rendered) == len(out.splitlines()) == min(limit, 3)
        if limit < 3:
            assert err == f"output truncated to {limit} of 3 records\n"
        else:
            assert err == ""

    def test_limit_renders_solutions_lazily(self, capsys, monkeypatch):
        calls = []
        line = cli._RENDER["text"]["solve"]
        monkeypatch.setitem(cli._RENDER["text"], "solve", lambda s: calls.append(s) or line(s))
        code, out, err = invoke(capsys, "solve", "-B", "21,25", "--limit", "2")
        assert code == EXIT_OK
        assert len(calls) == len(out.splitlines()) == 2
        assert err.startswith("output truncated to 2 of ")

    def test_frobenius_cap(self, capsys):
        code, _, err = invoke(capsys, "irreducibles", "-A", "", "-F", "201")
        assert code == EXIT_CAPACITY
        assert "capped at 200" in err

    def test_forbidden_cap(self, capsys):
        for command in ("maximal", "solve"):
            code, _, err = invoke(capsys, command, "-A", "", "-B", "500")
            assert code == EXIT_CAPACITY, command

    def test_semigroups_past_the_class_cap(self, capsys):
        # Classes here have more removable elements than classes.MAX_REMOVABLE.
        for required, frob, count in (("3", "185", 32), ("4", "123", 437)):
            code, out, err = invoke(capsys, "semigroups", "-A", required, "-F", frob)
            assert (code, err) == (EXIT_OK, ""), (required, frob)
            assert len(out.splitlines()) == count

    def test_input_width_cap(self, capsys):
        code, _, err = invoke(capsys, "solve", "-A", str(2**31), "-B", "4")
        assert code == EXIT_CAPACITY
        assert "2^31" in err


class TestUsageErrors:
    def test_missing_subcommand(self, capsys):
        assert invoke(capsys, )[0] == EXIT_USAGE

    def test_unknown_subcommand(self, capsys):
        assert invoke(capsys, "frobenius")[0] == EXIT_USAGE

    def test_missing_frobenius_flag(self, capsys):
        assert invoke(capsys, "irreducibles", "-A", "4")[0] == EXIT_USAGE

    def test_bad_integer(self, capsys):
        code, _, err = invoke(capsys, "irreducibles", "-A", "4;9", "-F", "11")
        assert code == EXIT_USAGE
        assert "comma-separated" in err

    def test_negative_entry(self, capsys):
        assert invoke(capsys, "irreducibles", "-A", "-4", "-F", "11")[0] == EXIT_USAGE

    def test_zero_frobenius(self, capsys):
        assert invoke(capsys, "irreducibles", "-A", "4", "-F", "0")[0] == EXIT_USAGE

    def test_bad_parallel(self, capsys):
        assert invoke(capsys, "irreducibles", "-A", "4", "-F", "11", "--parallel", "0")[0] == EXIT_USAGE

    def test_help_exits_zero(self, capsys):
        assert invoke(capsys, "--help")[0] == EXIT_OK


class TestDeterminism:
    def test_reruns_are_byte_identical(self, capsys):
        first = invoke(capsys, "semigroups", "-A", "4", "-F", "11", "--format", "json")
        second = invoke(capsys, "semigroups", "-A", "4", "-F", "11", "--format", "json")
        assert first == second

    def test_parallel_matches_serial(self, capsys):
        serial = invoke(capsys, "semigroups", "-A", "", "-F", "12", "--format", "json")
        parallel = invoke(
            capsys, "semigroups", "-A", "", "-F", "12", "--format", "json",
            "--parallel", "4",
        )
        assert serial == parallel

    def test_entry_point_subprocess(self):
        result = subprocess.run(
            [sys.executable, "-m", "numsem.cli", "solve", "-A", "4,9", "-B", "11,14"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert result.stdout.splitlines() == [
            "<4,9,15> | F=14 g=9 gaps={1,2,3,5,6,7,10,11,14}"
        ]


class TestRecordBuilders:
    def test_full_semigroup_reports_minus_one(self):
        record = semigroup_record(FULL_SEMIGROUP)
        assert record["frobenius"] == -1
        assert record["msg"] == [1]
        assert record["gaps"] == []
        assert frobenius_display(sg([4, 6, 9])) == 11

    def test_solution_record_empty(self):
        record = solution_record(())
        assert record["frobenius"] == -1
        assert record["elements"] == []

    def test_text_render_of_full_semigroup(self):
        assert format_text(semigroup_record(FULL_SEMIGROUP)) == "<1> | F=-1 g=0 gaps={}"


class TestTextRenderer:
    """Text lines read off the bitmap equal format_text of the record dicts."""

    def test_semigroup_lines_match_the_records(self):
        pool = [FULL_SEMIGROUP]
        for frobenius in range(1, 15):
            pool += oracle.all_semigroups_with_frobenius(frobenius)
        assert len(pool) == 380
        for s in pool:
            assert cli._semigroup_line(s) == format_text(semigroup_record(s)), s
        assert cli._semigroup_line(FULL_SEMIGROUP) == "<1> | F=-1 g=0 gaps={}"

    def test_solution_lines_match_the_records(self):
        render = cli._RENDER["text"]["solution"]
        cases = [(), *solve([], [6, 9]), *solve([4, 9], [11, 14]), *solve([3], [7, 11])]
        for c in cases:
            assert render(c) == format_text(solution_record(c)), c

    def test_json_lines_dump_the_records(self):
        s = sg([4, 6, 9])
        assert cli._RENDER["json"]["semigroup"](s) == json.dumps(semigroup_record(s))
        c = s.gaps()
        assert cli._RENDER["json"]["solution"](c) == json.dumps(solution_record(c))

    def test_json_semigroup_lines_match_the_dumps(self):
        render = cli._RENDER["json"]["semigroup"]
        pool = [FULL_SEMIGROUP]
        for frobenius in range(1, 15):
            pool += oracle.all_semigroups_with_frobenius(frobenius)
        assert len(pool) == 380
        for s in pool:
            assert render(s) == json.dumps(semigroup_record(s)), s
        full = render(FULL_SEMIGROUP)
        assert '"frobenius": -1' in full and '"gaps": []' in full

    @pytest.mark.parametrize(
        "required, forbidden", [([], [6, 9]), ([4, 9], [11, 14]), ([3], [7, 11]), ([], [21, 25])]
    )
    def test_solve_lines_match_the_solution_records(self, required, forbidden):
        avoiders = maximal_avoiding(required, forbidden)
        assert [s.gaps() for s in avoiders] == solve(required, forbidden)
        for s in avoiders:
            record = solution_record(s.gaps())
            assert cli._RENDER["text"]["solve"](s) == format_text(record), s
            assert cli._RENDER["json"]["solve"](s) == json.dumps(record), s


class TestParserReuse:
    # Usage errors, help texts and queries, interleaved in one process.
    ARGV = [
        ["irreducibles", "-A", "4;9", "-F", "11"],
        ["--help"],
        ["irreducibles", "-A", "4", "-F", "11"],
        ["frobenius"],
        ["solve", "-A", "4,9", "-B", "11,14", "--format", "json"],
        ["irreducibles", "--help"],
        ["semigroups", "-F", "7", "--limit", "2"],
        ["irreducibles", "-A", "4"],
        ["oracle", "hitting-sets", "-A", "4,9", "-B", "11,14"],
        ["irreducibles", "-A", "4", "-F", "8"],
        ["maximal", "-B", "11,13", "--parallel", "0"],
        ["oracle", "partitions", "4", "--format", "json"],
        ["irreducibles", "-F", "201"],
        ["irreducibles", "-A", "4", "-F", "11", "--format", "json"],
    ]

    def test_reused_parser_matches_fresh_processes(self, capsys, monkeypatch):
        # Help text wraps at the terminal width, which COLUMNS fixes.
        monkeypatch.setenv("COLUMNS", "80")
        in_process = [invoke(capsys, *argv) for argv in self.ARGV]
        assert cli._parser() is cli._parser()
        assert build_parser() is not build_parser()
        for argv, got in zip(self.ARGV, in_process):
            fresh = subprocess.run(
                [sys.executable, "-m", "numsem.cli", *argv],
                capture_output=True,
                text=True,
                env=dict(os.environ, COLUMNS="80"),
            )
            assert got == (fresh.returncode, fresh.stdout, fresh.stderr), argv

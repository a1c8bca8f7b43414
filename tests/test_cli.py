"""Command-line surface: formats, exit codes, determinism, diagnostics."""

import itertools
import json
import os
import random
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
from numsem.core import (
    CHUNK,
    FULL_SEMIGROUP,
    NumericalSemigroup,
    _add_generator,
    _check_leaves,
    _leaf_chunks,
    _pack,
)
from numsem.frontier import solve
from numsem.maxavoid import maximal_avoiding

sg = NumericalSemigroup.from_generators


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def chunk_lines(semigroups, fmt="text", kind="semigroup"):
    """The lines the chunk renderer writes for semigroups with one Frobenius number."""
    masks = [s.member_mask() for s in semigroups]
    chunks = _leaf_chunks(semigroups[0].frobenius, masks)
    return "".join(cli._render(leaves, len(leaves), fmt, kind) for leaves in chunks).splitlines()


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
        mask = sg([4, 9, 15]).member_mask()
        monkeypatch.setattr(
            cli, "_avoider_chunks", lambda required, forbidden: _leaf_chunks(14, [mask, mask])
        )
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

    # The oracle subcommands print through the record builders and the main
    # commands through the table pass, so these grids compare the two
    # renderers: stdout, stderr and the exit code, infeasible input included.
    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("kind", ["semigroups", "irreducibles"])
    @pytest.mark.parametrize("required", ["", "3", "4", "5,7"])
    def test_frobenius_queries_print_what_the_main_command_prints(self, capsys, required, kind, fmt):
        for frobenius in range(1, 13):
            query = (kind, "-A", required, "-F", str(frobenius), "--format", fmt)
            expected = invoke(capsys, *query)
            assert expected[0] in (EXIT_OK, EXIT_INFEASIBLE)
            assert invoke(capsys, "oracle", *query) == expected

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_hitting_sets_print_what_solve_prints(self, capsys, fmt):
        for pair in itertools.combinations(range(3, 13), 2):
            forbidden = ",".join(map(str, pair))
            expected = invoke(capsys, "solve", "-B", forbidden, "--format", fmt)
            assert expected[0] == EXIT_OK
            assert invoke(capsys, "oracle", "hitting-sets", "-B", forbidden, "--format", fmt) == expected

    def test_hitting_sets(self, capsys):
        code, out, _ = invoke(capsys, "oracle", "hitting-sets", "-A", "4,9", "-B", "11,14")
        assert code == EXIT_OK
        assert out.splitlines() == ["<4,9,15> | F=14 g=9 gaps={1,2,3,5,6,7,10,11,14}"]

    def test_oracle_capacity(self, capsys):
        code, _, err = invoke(capsys, "oracle", "semigroups", "-A", "", "-F", "17")
        assert code == EXIT_CAPACITY
        assert "capacity" in err

    @pytest.mark.parametrize(
        "query, main",
        [
            (("semigroups", "-A", "4", "-F", "8"), ("semigroups", "-A", "4", "-F", "8")),
            (("irreducibles", "-A", "4", "-F", "8"), ("irreducibles", "-A", "4", "-F", "8")),
            (("hitting-sets", "-A", "4,9", "-B", "11,13"), ("solve", "-A", "4,9", "-B", "11,13")),
        ],
    )
    def test_infeasible_names_the_main_witness(self, capsys, query, main):
        code, out, err = invoke(capsys, "oracle", *query)
        assert (code, out) == (EXIT_INFEASIBLE, "")
        assert err.startswith("infeasible: ") and "∈ ⟨A⟩" in err
        assert invoke(capsys, *main) == (code, out, err)

    @pytest.mark.parametrize(
        "query, main",
        [
            (("hitting-sets", "-B", "0"), ("solve", "-B", "0")),
            (("hitting-sets", "-A", "4", "-B", ""), ("maximal", "-A", "4", "-B", "")),
            (("hitting-sets", "-B", "5,300"), ("solve", "-B", "5,300")),
            (("semigroups", "-F", "0"), ("semigroups", "-F", "0")),
            (("irreducibles", "-A", "4", "-F", "0"), ("irreducibles", "-A", "4", "-F", "0")),
            (("semigroups", "-F", "201"), ("semigroups", "-F", "201")),
        ],
    )
    def test_usage_and_caps_match_the_main_command(self, capsys, query, main):
        code, out, err = invoke(capsys, "oracle", *query)
        assert out == "" and code in (EXIT_USAGE, EXIT_CAPACITY)
        assert invoke(capsys, *main) == (code, out, err)

    def test_capacity_comes_before_the_witness(self, capsys):
        code, out, err = invoke(capsys, "oracle", "semigroups", "-A", "4", "-F", "20")
        assert (code, out) == (EXIT_CAPACITY, "")
        assert err.startswith("capacity: ")


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
        render = cli._render
        monkeypatch.setattr(
            cli, "_render",
            lambda leaves, count, *rest: rendered.append(count) or render(leaves, count, *rest),
        )
        code, out, err = invoke(
            capsys, "irreducibles", "-A", "4", "-F", "11", "--format", fmt,
            "--limit", str(limit),
        )
        assert code == EXIT_OK
        assert sum(rendered) == len(out.splitlines()) == min(limit, 3)
        if limit < 3:
            assert err == f"output truncated to {limit} of 3 records\n"
        else:
            assert err == ""

    def test_limit_renders_solutions_lazily(self, capsys, monkeypatch):
        calls = []
        render = cli._render
        monkeypatch.setattr(
            cli, "_render",
            lambda leaves, count, *rest: calls.append(count) or render(leaves, count, *rest),
        )
        code, out, err = invoke(capsys, "solve", "-B", "21,25", "--limit", "2")
        assert code == EXIT_OK
        assert sum(calls) == len(out.splitlines()) == 2
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

    @pytest.mark.parametrize("command", ["irreducibles", "semigroups"])
    def test_frobenius_width_cap(self, capsys, command):
        assert invoke(capsys, command, "-F", str(2**31)) == (
            EXIT_CAPACITY, "", "capacity: -F must stay below 2^31, got 2147483648\n")

    def test_negative_limit(self, capsys):
        assert invoke(capsys, "irreducibles", "-A", "4", "-F", "11", "--limit", "-1") == (
            EXIT_USAGE, "", "usage error: --limit expects a non-negative count\n")


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

    def test_closed_pipe_ends_quietly(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "numsem.cli", "solve", "-B", "5,7,71"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        assert proc.stdout.readline().startswith("<")
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert err == ""

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

    def test_import_leaves_the_oracle_out(self):
        # Only the oracle subcommands and frontier.check_solution import it,
        # and only the oracle subcommands import json.  The record types are
        # named tuples, so nothing loads dataclasses and its inspect chain.
        code = (
            "import sys, numsem.cli; print('numsem.oracle' in sys.modules,"
            " 'json' in sys.modules, 'dataclasses' in sys.modules)"
        )
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert (result.stdout, result.stderr) == ("False False False\n", "")


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
    """Lines read off a chunk's packed bitmaps equal format_text or json.dumps of the record dicts.

    No CLI path renders the full semigroup: -F and max(B) are positive.
    """

    @staticmethod
    def pool():
        pool = [FULL_SEMIGROUP]
        for frobenius in range(1, 15):
            pool += oracle.all_semigroups_with_frobenius(frobenius)
        assert len(pool) == 380
        return pool

    def test_semigroup_lines_match_the_records(self):
        pool = self.pool()
        for frobenius in range(1, 15):
            family = [s for s in pool if s.frobenius == frobenius]
            assert chunk_lines(family) == [format_text(semigroup_record(s)) for s in family]
        assert format_text(semigroup_record(FULL_SEMIGROUP)) == "<1> | F=-1 g=0 gaps={}"

    def test_solution_lines_match_the_records(self):
        cases = [*solve([], [6, 9]), *solve([4, 9], [11, 14]), *solve([3], [7, 11])]
        for c in cases:
            (line,) = chunk_lines([cli._complement(c)], "text", "solution-set")
            assert line == format_text(solution_record(c)), c
        assert format_text(solution_record(())) == "<1> | F=-1 g=0 gaps={}"

    def test_json_lines_dump_the_records(self):
        s = sg([4, 6, 9])
        assert chunk_lines([s], "json") == [json.dumps(semigroup_record(s))]
        c = s.gaps()
        assert chunk_lines([cli._complement(c)], "json", "solution-set") == [
            json.dumps(solution_record(c))
        ]

    def test_json_semigroup_lines_match_the_dumps(self):
        pool = self.pool()
        for frobenius in range(1, 15):
            family = [s for s in pool if s.frobenius == frobenius]
            assert chunk_lines(family, "json") == [json.dumps(semigroup_record(s)) for s in family]
        full = json.dumps(semigroup_record(FULL_SEMIGROUP))
        assert '"frobenius": -1' in full and '"gaps": []' in full

    @pytest.mark.parametrize(
        "required, forbidden", [([], [6, 9]), ([4, 9], [11, 14]), ([3], [7, 11]), ([], [21, 25])]
    )
    def test_solve_lines_match_the_solution_records(self, required, forbidden):
        avoiders = maximal_avoiding(required, forbidden)
        assert [s.gaps() for s in avoiders] == solve(required, forbidden)
        records = [solution_record(s.gaps()) for s in avoiders]
        assert chunk_lines(avoiders, "text", "solution-set") == [format_text(r) for r in records]
        assert chunk_lines(avoiders, "json", "solution-set") == [json.dumps(r) for r in records]

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_limit_cuts_inside_and_across_chunks(self, capsys, fmt):
        argv = ("semigroups", "-A", "7", "-F", "33", "--format", fmt)
        code, full, err = invoke(capsys, *argv)
        lines = full.splitlines(keepends=True)
        assert (code, err) == (EXIT_OK, "") and len(lines) > 2 * CHUNK
        for limit in (1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3):
            code, out, err = invoke(capsys, *argv, "--limit", str(limit))
            assert out == "".join(lines[:limit])
            assert err == f"output truncated to {limit} of {len(lines)} records\n"


class TestFullWidthRenderer:
    """Lines as wide as the CLI allows: gaps up to 200, generators up to 401, 51 bytes."""

    KINDS = [(fmt, kind) for fmt in ("text", "json") for kind in ("semigroup", "solution-set")]

    @staticmethod
    def pool(frob, rng):
        """The ordinary semigroup {0} and [F + 1, oo), then three seeded random closed bitmaps."""
        pool = [1]
        for _ in range(3):
            mask = 1
            for g in rng.sample(range(1, frob), min(frob - 1, rng.randint(1, 6))):
                closed = _add_generator(mask, g, frob)
                if not closed >> frob & 1:
                    mask = closed
            pool.append(mask)
        return pool

    @staticmethod
    def expected(frob, masks, fmt, kind):
        line = format_text if fmt == "text" else json.dumps
        records = []
        for mask in masks:
            s = NumericalSemigroup.from_mask(frob, mask)
            records.append(semigroup_record(s) if kind == "semigroup" else solution_record(s.gaps()))
        return [line(r) for r in records]

    @staticmethod
    def rendered(frob, masks, count, fmt, kind):
        leaves = _check_leaves(_pack(frob, masks))
        return cli._render(leaves, count, fmt, kind).splitlines()

    def test_every_frobenius_number(self):
        rng = random.Random(1)
        for frob in range(1, 201):
            masks = self.pool(frob, rng)
            assert NumericalSemigroup(frob, 1).minimal_generators() == tuple(
                range(frob + 1, 2 * frob + 2))
            for fmt, kind in self.KINDS:
                expected = self.expected(frob, masks, fmt, kind)
                assert self.rendered(frob, masks, len(masks), fmt, kind) == expected, (frob, fmt)

    @pytest.mark.parametrize("frob", [1, 7, 8, 9, 63, 64, 127, 128, 199, 200])
    def test_chunk_sizes_and_counts(self, frob):
        pool = self.pool(frob, random.Random(frob))
        for fmt, kind in self.KINDS:
            lines = self.expected(frob, pool, fmt, kind)
            for size in (1, CHUNK - 1, CHUNK, CHUNK + 1):
                masks = [pool[i % len(pool)] for i in range(size)]
                expected = [lines[i % len(pool)] for i in range(size)]
                # 31 and 32 lie on both sides of _render's switch from one copy to slices.
                for count in {count for count in (1, 31, 32, size - 1, size) if 0 < count <= size}:
                    assert self.rendered(frob, masks, count, fmt, kind) == expected[:count]

    def test_render_asserts_f_below_255(self):
        # {0} and [256, oo) has F = 255 and multiplicity 256, a count that needs a ninth bit.
        (leaves,) = _leaf_chunks(255, [1])
        with pytest.raises(AssertionError, match="^255$"):
            cli._render(leaves, 1, "text", "semigroup")

    def test_byte_tables(self):
        # Every entry of both separators' tables, as _tables gives them to _render at the widest F,
        # for generators in every byte of [0, 2F + 1], then the gap tables of the bytes of [0, F].
        frob = cli.MAX_FROBENIUS_INPUT
        msg, used = range((2 * frob + 1) // 8 + 1), frob // 8 + 1
        for fmt, sep in (("text", ","), ("json", ", ")):
            for kind in ("semigroup", "solution-set"):
                _, twice, tables = cli._tables(fmt, kind, frob, msg)
                assert len(msg) == (2 * frob + 2 + 7) // 8  # the bytes of [0, 2F + 1]
                assert len(tables) == 1 + len(msg) + 1 + used * (2 if twice else 1)
                first = tables[len(msg) + 2]
                gaps = tables[len(msg) + 3:len(msg) + 2 + used]
                for j, table in [*zip(msg, tables[1:]), *enumerate(gaps, 1)]:
                    assert table is cli._byte_table(j, sep)
                    assert len(table) == 256
                    for b, entry in enumerate(table):
                        bits = [8 * j + i for i in range(8) if b >> i & 1]
                        assert entry == "".join(f"{sep}{i}" for i in bits), (sep, j, b)
                # Byte 0 of a gap set holds bit 1 and not bit 0: the token of 1 has no separator.
                heads = [("", first)]
                if fmt == "json" and kind == "solution-set":
                    assert twice
                    heads.append(('], "elements": [', tables[len(msg) + 2 + used]))
                    assert tables[len(msg) + 3 + used:] == gaps
                else:
                    assert not twice
                for head, table in heads:
                    assert len(table) == 256
                    for b in range(2, 256, 4):
                        bits = [i for i in range(8) if b >> i & 1]
                        assert table[b] == head + "1" + "".join(f"{sep}{i}" for i in bits[1:]), (sep, head, b)


class TestRenderTables:
    """A query builds the byte tables of the bytes its lines render, and one genus table per F."""

    def test_one_genus_table_per_format_and_f(self, capsys, monkeypatch):
        # Both queries write the 498 irreducibles with F = 45, as two kinds, from chunks that differ in
        # their range of generator bytes; each format keeps one genus table for them all.
        for cache in (cli._byte_table, cli._line_tables, cli._tables, cli._genus_table):
            cache.cache_clear()
        tables, keys = cli._tables, set()
        monkeypatch.setattr(cli, "_tables", lambda *key: keys.add(key) or tables(*key))
        for fmt in ("text", "json"):
            for argv in (["irreducibles", "-F", "45"], ["solve", "-B", "45"]):
                assert invoke(capsys, *argv, "--format", fmt)[0] == EXIT_OK
        assert tables.cache_info().currsize == len(keys)
        assert cli._genus_table.cache_info().currsize == 2
        for fmt in ("text", "json"):
            middle = cli._line_tables(fmt, "semigroup")[3]
            genus = cli._genus_table(middle, 45)
            # No semigroup with F = 45 has genus below 23, and every irreducible one has genus 23.
            assert [g for g, entry in enumerate(genus) if entry is None] == list(range(23))
            assert genus[23:] == tuple(middle.format(45, g) for g in range(23, 46))
            mine = [key for key in keys if key[0] == fmt]
            assert {kind for _, kind, _, _ in mine} == {"semigroup", "solution-set"}
            assert len({msg for *_, msg in mine}) > 1
            for key in mine:
                assert tables(*key)[2][1 + len(key[3])] is genus
        assert cli._genus_table.cache_info().currsize == 2

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_render_refuses_a_genus_no_semigroup_has(self, fmt):
        # <3, 5> has gaps {1, 2, 4, 7}; with 4 also set the chunk holds 3 + 4 = F, and genus 3 < 4.
        mask = sum(1 << x for x in (0, 3, 5, 6))
        (leaves,) = _leaf_chunks(7, [mask])
        line = format_text if fmt == "text" else json.dumps
        record = semigroup_record(NumericalSemigroup.from_mask(7, mask))
        assert cli._render(leaves, 1, fmt, "semigroup") == line(record) + "\n"
        leaves.members |= 1 << 4
        with pytest.raises(TypeError, match="NoneType"):
            cli._render(leaves, 1, fmt, "semigroup")

    @pytest.mark.parametrize("argv, frob, count", [
        (["irreducibles", "-A", "9", "-F", "60"], 60, 8),
        (["semigroups", "-A", "5", "-F", "36"], 36, 6),
        (["maximal", "-B", "11,13", "--format", "json"], 13, 3),
    ])
    def test_tables_follow_the_chunk(self, capsys, argv, frob, count):
        for cache in (cli._byte_table, cli._line_tables, cli._tables):
            cache.cache_clear()
        code, out, _ = invoke(capsys, *argv)
        assert code == 0
        if "json" in argv:
            sep, gens = ", ", [json.loads(line)["msg"] for line in out.splitlines()]
        else:
            sep, gens = ",", [line[1:line.index(">")].split(",") for line in out.splitlines()]
        # The gaps fill the bytes of [0, F]; the least generator is written as a count.
        used = set(range(frob // 8 + 1)) | {int(g) // 8 for msg in gens for g in msg[1:]}
        assert len(used) == count
        assert cli._byte_table.cache_info().currsize == count
        for j in used:
            cli._byte_table(j, sep)
        assert cli._byte_table.cache_info().currsize == count


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


class TestSubcommandParse:
    # Every subcommand, help at both levels, abbreviations, repeated options,
    # "--", and usage errors at both levels.
    ARGV = [
        [],
        ["-h"],
        ["--help"],
        ["--he"],
        ["frobenius"],
        ["--bogus"],
        ["--format", "json", "irreducibles", "-F", "11"],
        ["irreducibles", "-A", "4", "-F", "11"],
        ["semigroups", "-A", "", "-F", "3"],
        ["maximal", "-A", "4,9", "-B", "11,14"],
        ["solve", "-B", "11,14", "-A", "4,9"],
        ["oracle", "semigroups", "-F", "5"],
        ["oracle", "irreducibles", "-A", "3", "-F", "7"],
        ["oracle", "partitions", "5"],
        ["oracle", "hitting-sets", "-A", "4,9", "-B", "11,14"],
        ["oracle"],
        ["oracle", "bogus"],
        ["irreducibles", "-h"],
        ["solve", "-B", "5", "--help"],
        ["semigroups", "-F", "5", "--he"],
        ["oracle", "-h"],
        ["oracle", "partitions", "-h"],
        ["maximal", "-B", "11,13", "--format=json"],
        ["maximal", "-B", "11,13", "--form", "json"],
        ["semigroups", "-F", "7", "--lim", "3"],
        ["irreducibles", "-F", "5", "-F", "7"],
        ["solve", "-B", "5", "--format", "text", "--format", "json", "-A", "2", "-A", "3"],
        ["irreducibles", "--", "-F", "5"],
        ["irreducibles", "-F", "5", "--"],
        ["oracle", "partitions", "--", "5"],
        ["irreducibles", "-F", "5", "--bogus"],
        ["maximal", "-X", "1", "-B", "5"],
        ["oracle", "partitions", "5", "6"],
        ["irreducibles", "-A", "4"],
        ["maximal", "-A", "3"],
        ["oracle", "hitting-sets", "-A", "3"],
        ["irreducibles", "-F", "x"],
        ["irreducibles", "-F", "-5"],
        ["semigroups", "-F", "5", "--limit", "q"],
        ["oracle", "partitions", "five"],
        ["solve", "-B", "5", "--format", "yaml"],
        ["maximal", "-B"],
    ]

    @staticmethod
    def outcome(parse, argv, capsys):
        try:
            result = ("args", vars(parse(argv)))
        except cli._UsageError as exc:
            result = ("usage error", str(exc))
        except SystemExit as exc:
            result = ("exit", exc.code)
        captured = capsys.readouterr()
        return result, captured.out, captured.err

    @pytest.mark.parametrize("argv", ARGV, ids=" ".join)
    def test_matches_the_top_level_parser(self, argv, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        expected = self.outcome(cli._parser().parse_args, list(argv), capsys)
        assert self.outcome(cli._parse, list(argv), capsys) == expected

    @pytest.mark.parametrize("command", ["irreducibles", "semigroups", "maximal", "solve"])
    def test_generated_argvs_match_the_top_level_parser(self, command, capsys):
        """Up to two (option, value) pairs: plain ones, and every kind that argparse must parse."""
        options = ["-A", "-F", "-B", "--format", "--parallel", "--limit", "--form", "--format=json", "-X", "--"]
        values = ["", "4,9", "5", " 5", "-5", "x", "json", "yaml", "0", "2"]
        pairs = [[option, value] for option in options for value in values]
        argvs = [[command]] + [[command, *p] for p in pairs]
        argvs += [[command, *p, *q] for p in pairs for q in pairs]
        for argv in argvs:
            expected = self.outcome(cli._parser().parse_args, list(argv), capsys)
            assert self.outcome(cli._parse, list(argv), capsys) == expected, argv

    def test_a_subcommand_skips_the_top_level_parser(self, monkeypatch):
        top = cli._parser()
        monkeypatch.setattr(top, "parse_args", lambda argv: pytest.fail("top-level parse"))
        assert cli._parse(["irreducibles", "-F", "5"]).command == "irreducibles"
        assert cli._parse(["oracle", "partitions", "5"]).oracle_command == "partitions"

    @pytest.mark.parametrize("command", ["irreducibles", "semigroups", "maximal", "solve"])
    def test_the_canonical_forms_skip_the_subparser_loop(self, command, monkeypatch):
        """-A, -F or -B, --format, --parallel and --limit, each with its value, in any order."""
        bound = "-F" if command in ("irreducibles", "semigroups") else "-B"
        pairs = [["-A", "4,9"], [bound, "14"], ["--format", "json"], ["--parallel", "2"], ["--limit", "3"]]
        argvs = [[command, *sum(order, [])] for order in itertools.permutations(pairs)]
        argvs += [[command, bound, "14"], [command, "-A", "", bound, "7"], [command, bound, "14", "--format", "text"]]
        expected = [vars(cli._parser().parse_args(argv)) for argv in argvs]
        sub = cli._parser().commands[command]
        monkeypatch.setattr(sub, "parse_args", lambda argv: pytest.fail(f"parse_args({argv})"))
        assert [vars(cli._parse(argv)) for argv in argvs] == expected

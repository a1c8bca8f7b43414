"""Command-line front end.

Subcommands cover every pipeline stage:

  irreducibles  -A <ints> -F <int>   maximal avoiders of the single value F
  semigroups    -A <ints> -F <int>   every semigroup with Frobenius number F
  maximal       -A <ints> -B <ints>  maximal avoiders of the forbidden set
  solve         -A <ints> -B <ints>  minimal partition hitting sets
  oracle <sub>                       brute-force cross-checks

Results go to stdout, one record per line; diagnostics go to stderr.
Text records look like ``<4,6,9> | F=11 g=6 gaps={1,2,3,5,7,11}``; JSON
mode emits newline-delimited objects with keys in the fixed order
(kind, msg, frobenius, genus, gaps, elements), null where a field does
not apply.  Output is byte-identical across runs for identical inputs.
``--parallel N`` is a worker-budget hint: N must be a positive integer,
and every run is single-threaded whatever its value.

The argument parser is built once per process, on the first :func:`run`
call, and reused by every later call.  Each result is rendered as it is
written, text and JSON alike, straight off the semigroup's member bitmap
and its minimal generators, which ``from_mask`` caches as it validates
a result: a text line equals ``format_text`` of the record dict, and a JSON
line equals ``json.dumps`` of it.  ``solve`` renders the maximal
avoiders themselves as solution-set records, since each solution is the
gap set of one avoider, and the oracle's solution sets as the complement
of each gap tuple; the record builders below stay as the reference for
the library and the tests.  ``--limit K`` renders and writes
only K records, but the enumeration still runs to the end, since the
stderr note reports the total.

Exit codes: 0 success, 1 usage error, 2 infeasible input (the diagnostic
names a witness combination), 3 capacity error.

The full semigroup reports the conventional Frobenius number -1 here;
internally it is encoded as 0 with no gaps.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from itertools import compress

from . import errors, oracle
from .classes import enumerate_with_frobenius
from .core import NumericalSemigroup
from .frontier import solve  # noqa: F401  bench/tracer.py wraps it in this namespace
from .irreducible import enumerate_irreducibles
from .maxavoid import maximal_avoiding

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_CAPACITY = 3

MAX_INPUT = 2**31 - 1
MAX_FROBENIUS_INPUT = 200
MAX_FORBIDDEN_INPUT = 200

RECORD_KEYS = ("kind", "msg", "frobenius", "genus", "gaps", "elements")

RECORD_SCHEMA = {
    "type": "object",
    "properties": {
        "kind": {"enum": ["semigroup", "solution-set", "partition"]},
        "msg": {"type": ["array", "null"], "items": {"type": "integer"}},
        "frobenius": {"type": ["integer", "null"]},
        "genus": {"type": ["integer", "null"]},
        "gaps": {"type": ["array", "null"], "items": {"type": "integer"}},
        "elements": {"type": ["array", "null"], "items": {"type": "integer"}},
    },
    "required": list(RECORD_KEYS),
    "additionalProperties": False,
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems as exceptions, not exits."""

    def error(self, message):
        raise _UsageError(message)


def _parse_intlist(text: str, flag: str) -> list[int]:
    if text.strip() == "":
        return []
    out = []
    for piece in text.split(","):
        try:
            value = int(piece)
        except ValueError:
            raise _UsageError(f"{flag} expects comma-separated integers, got {piece!r}")
        if value < 0:
            raise _UsageError(f"{flag} expects non-negative integers, got {value}")
        if value > MAX_INPUT:
            raise errors.CapacityExceeded(f"{flag} values must stay below 2^31, got {value}")
        out.append(value)
    return out


def _check_caps(frobenius: int | None, forbidden: list[int] | None):
    if frobenius is not None:
        if frobenius > MAX_INPUT:
            raise errors.CapacityExceeded(f"-F must stay below 2^31, got {frobenius}")
        if frobenius > MAX_FROBENIUS_INPUT:
            raise errors.CapacityExceeded(
                f"-F is capped at {MAX_FROBENIUS_INPUT}, got {frobenius}"
            )
        if frobenius < 1:
            raise _UsageError("-F expects a positive integer")
    if forbidden and max(forbidden) > MAX_FORBIDDEN_INPUT:
        raise errors.CapacityExceeded(
            f"-B values are capped at {MAX_FORBIDDEN_INPUT}, got {max(forbidden)}"
        )


def frobenius_display(s: NumericalSemigroup) -> int:
    """Presentation value: -1 for the full semigroup, F otherwise."""
    return -1 if s.is_full else s.frobenius


def semigroup_record(s: NumericalSemigroup, kind: str = "semigroup") -> dict:
    return {
        "kind": kind,
        "msg": list(s.minimal_generators()),
        "frobenius": frobenius_display(s),
        "genus": s.genus,
        "gaps": list(s.gaps()),
        "elements": None,
    }


def _complement(elements: tuple[int, ...]) -> NumericalSemigroup:
    """The numerical semigroup whose gap set is ``elements``, validated by from_mask."""
    if not elements:
        return NumericalSemigroup(0, 1)
    frob = max(elements)
    mask = (1 << (frob + 1)) - 1
    for g in elements:
        mask &= ~(1 << g)
    return NumericalSemigroup.from_mask(frob, mask)


def solution_record(elements: tuple[int, ...]) -> dict:
    """A solution set, annotated with its complement semigroup.

    The complement of a solution set is always a numerical semigroup, so
    msg/frobenius/genus/gaps describe it and gaps equals elements.
    """
    record = semigroup_record(_complement(elements), kind="solution-set")
    record["elements"] = list(elements)
    return record


def partition_record(p: tuple[int, ...]) -> dict:
    return {
        "kind": "partition",
        "msg": None,
        "frobenius": None,
        "genus": None,
        "gaps": None,
        "elements": list(p),
    }


def format_text(record: dict) -> str:
    if record["kind"] == "partition":
        return "+".join(str(x) for x in record["elements"])
    msg = ",".join(str(g) for g in record["msg"])
    gaps = ",".join(str(g) for g in record["gaps"])
    return f"<{msg}> | F={record['frobenius']} g={record['genus']} gaps={{{gaps}}}"


# str(i) for every number a semigroup line can hold: gaps are at most F,
# and minimal generators at most F + m <= 2F + 1.
_NUMERALS = [str(i) for i in range(2 * max(MAX_FROBENIUS_INPUT, MAX_FORBIDDEN_INPUT) + 2)]
# Turns the binary digits of a member bitmap into 1 at a gap and 0 at a member.
_GAP_FLAGS = bytes.maketrans(b"01", b"\1\0")


def _numerals(s: NumericalSemigroup, sep: str) -> tuple[str, str]:
    """The minimal generators and the gaps of s, each joined by sep, read off the bitmap."""
    frob = s.frobenius
    assert 2 * frob + 1 < len(_NUMERALS), frob
    # Character i of the reversed binary string is bit i of the mask.
    flags = f"{s.member_mask():0{frob + 1}b}"[::-1].encode().translate(_GAP_FLAGS)
    msg = sep.join(map(_NUMERALS.__getitem__, s.minimal_generators()))
    return msg, sep.join(compress(_NUMERALS, flags))


def _semigroup_line(s: NumericalSemigroup) -> str:
    """``format_text(semigroup_record(s))``, read off the member bitmap."""
    msg, gaps = _numerals(s, ",")
    return f"<{msg}> | F={frobenius_display(s)} g={s.genus} gaps={{{gaps}}}"


def _json_line(s: NumericalSemigroup, kind: str) -> str:
    """``json.dumps`` of the record of s, read off the member bitmap.

    A solution-set record is the one of its complement s, with elements
    equal to gaps: ``json.dumps(solution_record(s.gaps()))``.
    """
    msg, gaps = _numerals(s, ", ")
    elements = f"[{gaps}]" if kind == "solution-set" else "null"
    return (f'{{"kind": "{kind}", "msg": [{msg}], "frobenius": {frobenius_display(s)}, '
            f'"genus": {s.genus}, "gaps": [{gaps}], "elements": {elements}}}')


# The line of one result, by output format and result kind: a semigroup,
# a solution set as a gap tuple, a maximal avoider as a solve result, or
# a partition.  Only partitions go through a record dict, looked up at
# call time, so wrappers installed on it apply.
_RENDER = {
    "text": {
        "semigroup": _semigroup_line,
        "solution": lambda c: _semigroup_line(_complement(c)),
        "solve": _semigroup_line,
        "partition": lambda p: format_text(partition_record(p)),
    },
    "json": {
        "semigroup": lambda s: _json_line(s, "semigroup"),
        "solution": lambda c: _json_line(_complement(c), "solution-set"),
        "solve": lambda s: _json_line(s, "solution-set"),
        "partition": lambda p: json.dumps(partition_record(p)),
    },
}

# The required option of each query subcommand besides -A, with its settings.
_BOUNDS = {"-F": {"type": int}, "-B": {"metavar": "INTS"}}


def _add_query(sub, name: str, bound: str, common, **kwargs) -> None:
    """Subcommand ``name`` taking -A and the required option ``bound``."""
    p = sub.add_parser(name, parents=[common], **kwargs)
    p.add_argument("-A", default="", metavar="INTS")
    p.add_argument(bound, required=True, **_BOUNDS[bound])


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser of the numsem command line."""
    parser = _Parser(prog="numsem", description="numerical semigroup enumeration")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--parallel", type=int, default=1, metavar="N")
    common.add_argument("--limit", type=int, default=None, metavar="K")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    _add_query(sub, "irreducibles", "-F", common,
               help="irreducible semigroups with Frobenius number F containing A")
    _add_query(sub, "semigroups", "-F", common,
               help="all semigroups with Frobenius number F containing A")
    _add_query(sub, "maximal", "-B", common,
               help="maximal semigroups containing A and avoiding B")
    _add_query(sub, "solve", "-B", common,
               help="minimal partition hitting sets for (A, B)")

    p_oracle = sub.add_parser("oracle", parents=[common],
                              help="brute-force references for manual cross-checks")
    osub = p_oracle.add_subparsers(dest="oracle_command", required=True, parser_class=_Parser)
    _add_query(osub, "semigroups", "-F", common)
    _add_query(osub, "irreducibles", "-F", common)
    o_parts = osub.add_parser("partitions", parents=[common])
    o_parts.add_argument("target", type=int)
    _add_query(osub, "hitting-sets", "-B", common)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`run`: built on the first call, shared by every later one."""
    return build_parser()


def _dispatch(args):
    """The results of the query, and the function that renders one result as a line."""
    required = _parse_intlist(getattr(args, "A", ""), "-A")
    render = _RENDER[args.format]

    if args.command == "irreducibles":
        _check_caps(args.F, None)
        return enumerate_irreducibles(required, args.F), render["semigroup"]

    if args.command == "semigroups":
        _check_caps(args.F, None)
        return enumerate_with_frobenius(required, args.F), render["semigroup"]

    if args.command == "maximal":
        forbidden = _parse_intlist(args.B, "-B")
        _check_caps(None, forbidden)
        return maximal_avoiding(required, forbidden), render["semigroup"]

    if args.command == "solve":
        forbidden = _parse_intlist(args.B, "-B")
        _check_caps(None, forbidden)
        # The solutions are the gap sets of the maximal avoiders.
        avoiders = maximal_avoiding(required, forbidden)
        assert len({s.member_mask() for s in avoiders}) == len(avoiders)
        return avoiders, render["solve"]

    if args.command == "oracle":
        if args.oracle_command == "semigroups":
            return oracle.all_semigroups_with_frobenius(args.F, required), render["semigroup"]
        if args.oracle_command == "irreducibles":
            return oracle.irreducibles_bruteforce(args.F, required), render["semigroup"]
        if args.oracle_command == "partitions":
            return oracle.partitions(args.target), render["partition"]
        if args.oracle_command == "hitting-sets":
            forbidden = _parse_intlist(args.B, "-B")
            return oracle.minimal_hitting_sets(required, forbidden), render["solution"]

    raise _UsageError(f"unknown command {args.command!r}")


def run(argv=None) -> int:
    """Parse, execute, write records; returns the process exit code."""
    try:
        args = _parser().parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:
        # argparse exits 0 for --help; anything else is a usage problem.
        return EXIT_OK if exc.code == 0 else EXIT_USAGE

    try:
        if args.parallel < 1:
            raise _UsageError("--parallel expects a positive worker count")
        if args.limit is not None and args.limit < 0:
            raise _UsageError("--limit expects a non-negative count")
        results, render = _dispatch(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except errors.Infeasible as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except errors.CapacityExceeded as exc:
        print(f"capacity: {exc}", file=sys.stderr)
        return EXIT_CAPACITY

    emitted = results
    if args.limit is not None and len(results) > args.limit:
        emitted = results[: args.limit]
        print(
            f"output truncated to {args.limit} of {len(results)} records",
            file=sys.stderr,
        )
    write = sys.stdout.write
    for item in emitted:
        write(render(item) + "\n")
    return EXIT_OK


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

"""Command-line front end.

Subcommands cover every pipeline stage:

  irreducibles  -A <ints> -F <int>   maximal avoiders of the single value F
  semigroups    -A <ints> -F <int>   every semigroup with Frobenius number F
  maximal       -A <ints> -B <ints>  maximal avoiders of the forbidden set
  solve         -A <ints> -B <ints>  minimal partition hitting sets
  oracle <sub>                       brute-force cross-checks

Results stream to stdout, one record per line; diagnostics go to stderr.
Text records look like ``<4,6,9> | F=11 g=6 gaps={1,2,3,5,7,11}``; JSON
mode emits newline-delimited objects with keys in the fixed order
(kind, msg, frobenius, genus, gaps, elements), null where a field does
not apply.  Output is byte-identical across runs for identical inputs,
including with ``--parallel``.

Exit codes: 0 success, 1 usage error, 2 infeasible input (the diagnostic
names a witness combination), 3 capacity error.

The full semigroup reports the conventional Frobenius number -1 here;
internally it is encoded as 0 with no gaps.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import errors, oracle
from .classes import enumerate_with_frobenius
from .core import AperyVector, NumericalSemigroup
from .frontier import solve
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
        "kind": {"enum": ["semigroup", "solution-set", "apery-vector", "partition"]},
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


def solution_record(elements: tuple[int, ...]) -> dict:
    """A solution set, annotated with its complement semigroup.

    The complement of a solution set is always a numerical semigroup, so
    msg/frobenius/genus/gaps describe it and gaps equals elements.
    """
    if elements:
        frob = max(elements)
        gaps = set(elements)
        members = [x for x in range(frob + 1) if x not in gaps]
        comp = NumericalSemigroup.from_small_elements(members, frob)
    else:
        comp = NumericalSemigroup(0, 1)
    record = semigroup_record(comp, kind="solution-set")
    record["elements"] = list(elements)
    return record


def apery_record(v: AperyVector) -> dict:
    return {
        "kind": "apery-vector",
        "msg": None,
        "frobenius": None,
        "genus": None,
        "gaps": None,
        "elements": list(v.coords),
    }


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
    if record["kind"] == "apery-vector":
        coords = ",".join(str(c) for c in record["elements"])
        return f"({coords}) | n={len(record['elements']) + 1}"
    if record["kind"] == "partition":
        return "+".join(str(x) for x in record["elements"])
    msg = ",".join(str(g) for g in record["msg"])
    gaps = ",".join(str(g) for g in record["gaps"])
    return f"<{msg}> | F={record['frobenius']} g={record['genus']} gaps={{{gaps}}}"


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="numsem", description="numerical semigroup enumeration")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--parallel", type=int, default=1, metavar="N")
    common.add_argument("--limit", type=int, default=None, metavar="K")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_irr = sub.add_parser("irreducibles", parents=[common],
                           help="irreducible semigroups with Frobenius number F containing A")
    p_irr.add_argument("-A", default="", metavar="INTS")
    p_irr.add_argument("-F", required=True, type=int)

    p_all = sub.add_parser("semigroups", parents=[common],
                           help="all semigroups with Frobenius number F containing A")
    p_all.add_argument("-A", default="", metavar="INTS")
    p_all.add_argument("-F", required=True, type=int)

    p_max = sub.add_parser("maximal", parents=[common],
                           help="maximal semigroups containing A and avoiding B")
    p_max.add_argument("-A", default="", metavar="INTS")
    p_max.add_argument("-B", required=True, metavar="INTS")

    p_solve = sub.add_parser("solve", parents=[common],
                             help="minimal partition hitting sets for (A, B)")
    p_solve.add_argument("-A", default="", metavar="INTS")
    p_solve.add_argument("-B", required=True, metavar="INTS")

    p_oracle = sub.add_parser("oracle", parents=[common],
                              help="brute-force references for manual cross-checks")
    osub = p_oracle.add_subparsers(dest="oracle_command", required=True, parser_class=_Parser)
    o_all = osub.add_parser("semigroups", parents=[common])
    o_all.add_argument("-A", default="", metavar="INTS")
    o_all.add_argument("-F", required=True, type=int)
    o_irr = osub.add_parser("irreducibles", parents=[common])
    o_irr.add_argument("-A", default="", metavar="INTS")
    o_irr.add_argument("-F", required=True, type=int)
    o_parts = osub.add_parser("partitions", parents=[common])
    o_parts.add_argument("target", type=int)
    o_hit = osub.add_parser("hitting-sets", parents=[common])
    o_hit.add_argument("-A", default="", metavar="INTS")
    o_hit.add_argument("-B", required=True, metavar="INTS")

    return parser


def _dispatch(args) -> list[dict]:
    required = _parse_intlist(getattr(args, "A", ""), "-A")
    workers = args.parallel

    if args.command == "irreducibles":
        _check_caps(args.F, None)
        semis = enumerate_irreducibles(required, args.F, workers=workers)
        return [semigroup_record(s) for s in semis]

    if args.command == "semigroups":
        _check_caps(args.F, None)
        semis = enumerate_with_frobenius(required, args.F, workers=workers)
        return [semigroup_record(s) for s in semis]

    if args.command == "maximal":
        forbidden = _parse_intlist(args.B, "-B")
        _check_caps(None, forbidden)
        semis = maximal_avoiding(required, forbidden, workers=workers)
        return [semigroup_record(s) for s in semis]

    if args.command == "solve":
        forbidden = _parse_intlist(args.B, "-B")
        _check_caps(None, forbidden)
        return [solution_record(c) for c in solve(required, forbidden, workers=workers)]

    if args.command == "oracle":
        if args.oracle_command == "semigroups":
            return [semigroup_record(s)
                    for s in oracle.all_semigroups_with_frobenius(args.F, required)]
        if args.oracle_command == "irreducibles":
            return [semigroup_record(s)
                    for s in oracle.irreducibles_bruteforce(args.F, required)]
        if args.oracle_command == "partitions":
            return [partition_record(p) for p in oracle.partitions(args.target)]
        if args.oracle_command == "hitting-sets":
            forbidden = _parse_intlist(args.B, "-B")
            return [solution_record(tuple(k))
                    for k in oracle.minimal_hitting_sets(required, forbidden)]

    raise _UsageError(f"unknown command {args.command!r}")


def run(argv=None) -> int:
    """Parse, execute, stream records; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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
        records = _dispatch(args)
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

    emitted = records
    if args.limit is not None and len(records) > args.limit:
        emitted = records[: args.limit]
        print(
            f"output truncated to {args.limit} of {len(records)} records",
            file=sys.stderr,
        )
    for record in emitted:
        if args.format == "json":
            print(json.dumps(record))
        else:
            print(format_text(record))
    return EXIT_OK


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

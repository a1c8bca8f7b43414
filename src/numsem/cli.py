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
call, and reused by every later call.  When the arguments start with a
subcommand, its own subparser alone reads the rest: the top-level
parser would only hand it the same strings after one more scan.  Plain
arguments, pairs of an exact option string that takes one value and a
value not starting with "-", are read straight off the subparser's
actions, with their defaults, types, choices and required options, and
skip argparse's parse loop; anything else (help, abbreviations,
``--opt=value``, ``--``, values starting with "-", the oracle
subcommands, every usage error) goes through the subparser's parse.  So
the namespace, the usage messages, the help output and the exit codes
are the same, and the grammar is declared once, in :func:`build_parser`.

Results stream to stdout a chunk at a time: each query yields the
search leaves in chunks of ``core.CHUNK`` member bitmaps, packed one
block per leaf into one int, and ``core._check_leaves`` validates a
whole chunk at once (bit 0 set, bit F clear, nothing above F, and
additive closure on the sums of the minimal-generator scan), one bigint
operation per column over every leaf.  ``core`` packs the chunks: a
chunk carries its block width (``core._Leaves.stride``, sized by the
query's bound on the multiplicity) and its bit-0 mask
(``core._Leaves.ones``), and ``core._split`` gives the bytes of each
block.  Two readers use the block width directly: :func:`_render`
slices a chunk's bytes by it, and ``maxavoid._witness`` shifts the
mirrored chunk by ``stride - 1 - b``.  A chunk's lines are written in
one table pass (see :func:`_render`): each record is laid out as byte
columns, and each byte is looked up in the table of its column, from
one cached list of tables per format, kind, F and range of generator
bytes (see :func:`_tables`), so one ``join`` of lookups writes every
line, with no format call per record, and a byte table is built only
for a byte that some chunk renders.  The genus column's table is one
per format and F, shared by both kinds and every range of generator
bytes (see :func:`_genus_table`).  It holds the text of the genera
ceil((F + 1) / 2) to F, and None below: a semigroup with Frobenius
number F never holds both x and F - x, so no record has a lower genus,
and a chunk that carried one would make the ``join`` raise rather than
write its line.  A text line equals
``format_text`` of the record dict, and a JSON line equals
``json.dumps`` of it.  ``irreducibles``,
``maximal`` and ``solve`` share one generator of checked chunks, since
the irreducibles with Frobenius number F are the maximal avoiders of the
single value F.  ``solve`` renders the maximal avoiders themselves as
solution-set records, since each solution is the gap set of one avoider,
and streams them: that no solution comes twice is asserted chunk by
chunk, as the bitmaps strictly increase in gap order.  The oracle
subcommands print through the record builders below, which are the
reference for the table pass: each brute-force semigroup is rebuilt by
``NumericalSemigroup.from_mask`` and each hitting set by
``solution_record``, so every line is closure-checked, and a line is
``format_text`` or ``json.dumps`` of its record.  So the CI digests that
pin an oracle subcommand to its main command compare two renderers.
``--limit K`` renders and writes only K records, but every leaf is
still checked and counted, since the stderr note reports the total.
The oracle subcommands take the same usage and capacity checks as the
main commands.

Exit codes: 0 success, 1 usage error, 2 infeasible input (the diagnostic
names a witness combination; the oracle subcommands that find nothing
report the same one), 3 capacity error.

The record builders report the conventional Frobenius number -1 for
the full semigroup, internally encoded as 0 with no gaps; no subcommand
prints it, since -F and max(B) are positive.
"""

from __future__ import annotations

import argparse
import functools
import sys
from itertools import cycle, repeat
from operator import getitem, lt

from . import errors
from .classes import _semigroup_chunks
from .classes import enumerate_with_frobenius  # noqa: F401  bench/tracer.py wraps it here
from .core import _BIT_REVERSE, NumericalSemigroup, _coin_table, _fold, _Leaves, _split
from .frontier import solve  # noqa: F401  bench/tracer.py wraps it in this namespace
from .maxavoid import _avoider_chunks, _forbidden

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


# The number of set bits of each byte value.
_POPCOUNT = bytes(b.bit_count() for b in range(256))


@functools.cache
def _byte_table(j: int, sep: str) -> tuple[str, ...]:
    """For each byte value, the tokens of its set bits as byte j of a bitmap, joined.

    Bit i stands for the token sep + str(8j + i), with the separator of
    the format: "," in text, ", " in JSON.  Built by doubling: the
    entries with bit i set are those below 2^i, each followed by the
    token of bit i.
    """
    table = [""]
    for i in range(8 * j, 8 * j + 8):
        table += [f"{entry}{sep}{i}" for entry in table]
    return tuple(table)


@functools.cache
def _line_tables(fmt: str, kind: str) -> tuple[str, str, tuple[str, ...], str, tuple[str, ...], tuple]:
    """The fixed text of a record line of the format and kind, for _tables.

    The only place that holds it: the separator of the format; the text
    that ends a line; the table of m, which ends a line and starts the
    next up to m; the template of the text between the generators and
    the gaps; the table of byte 0 of the gaps, and for a JSON solution
    set, that of byte 0 of its elements.  Byte 0 of a gap set holds bit 1
    and not bit 0 (1 is a gap of every semigroup but N), so its entries
    are those of _byte_table(0, sep) without the leading separator, after
    the text that opens the list.  JSON pieces are written as json.dumps
    writes them.
    """
    if fmt == "text":
        sep, end, start, middle, head = ",", "}\n", "<", "> | F={} g={} gaps={{", ""
    else:
        sep, end = ", ", '], "elements": null}\n' if kind == "semigroup" else "]}\n"
        start = f'{{"kind": "{kind}", "msg": ['
        middle = '], "frobenius": {}, "genus": {}, "gaps": ['
        head = '], "elements": [' if kind == "solution-set" else ""
    first = tuple(entry[len(sep):] for entry in _byte_table(0, sep))
    elements = tuple(head + entry for entry in first) if head else ()
    return sep, end, tuple(f"{end}{start}{m}" for m in range(256)), middle, first, elements


@functools.cache
def _genus_table(middle: str, frobenius: int) -> tuple[str | None, ...]:
    """The text between the generators and the gaps of each genus g <= F, for _tables.

    middle is the template of that text in _line_tables, so the formats
    differ and the kinds of one format share the table.  A numerical
    semigroup with Frobenius number F never holds both x and F - x, so
    its genus is at least ceil((F + 1) / 2); the entries below are None,
    and a join that met one would raise rather than write a line.
    """
    low = (frobenius + 2) // 2
    return (None,) * low + tuple(middle.format(frobenius, g) for g in range(low, frobenius + 1))


@functools.cache
def _tables(fmt: str, kind: str, frobenius: int, msg: range) -> tuple[str, bool, tuple]:
    """The line end, and the table of each column that _render lays out, for chunks of this key.

    The key is the format, the kind, F, and msg, the range of bytes that
    the generators but the least of the chunk's records fill (see
    _render).  Returns the text that ends a line; whether the gaps are
    listed twice, as a JSON solution set's elements; and the tables in
    column order: m, the bytes of msg, the genus g <= F with the text
    between the generators and the gaps, and the bytes of [0, F], twice
    when the gaps are.  So no byte table is built for a byte that no
    chunk renders.  The byte tables are the cached _byte_table(j, sep),
    shared across F; the genus table is the cached _genus_table of the
    format and F, shared by both kinds and every msg, with None below
    ceil((F + 1) / 2), a genus no semigroup with Frobenius number F has;
    the other pieces come from _line_tables.
    """
    sep, end, multiplicities, middle, first, elements = _line_tables(fmt, kind)
    gaps = [first, *[_byte_table(j, sep) for j in range(1, frobenius // 8 + 1)]]
    genus = _genus_table(middle, frobenius)
    tables = [multiplicities, *[_byte_table(j, sep) for j in msg], genus, *gaps]
    return end, bool(elements), tuple(tables + [elements, *gaps[1:]] if elements else tables)


def _render(leaves: _Leaves, count: int, fmt: str, kind: str) -> str:
    """The lines of the first count leaves of a chunk, as records of the kind, newline included.

    One table pass writes the whole chunk.  Each leaf is laid out as byte
    columns: its multiplicity m, the bytes of its other minimal
    generators, its genus g and the bytes of its gaps, the positions of
    [1, F] outside its members, which a JSON solution set lists twice.
    Column j of a packed bitmap holds byte j of each block.  m counts the
    bits below the least generator of each block, and g its gaps: each
    byte is turned into its popcount, and the columns are added as ints.
    F < 255 keeps each total in its own byte, so no carry crosses blocks.
    The OR of the blocks (core._fold) bounds the generator columns that
    can be nonzero.  The columns are interleaved a record at a time, by
    one slice per column, or for a few records by one transposing copy.
    Each byte is looked up in the table of its column, and one cached
    call of _tables, keyed by the range of generator bytes that the fold
    gives, hands over the list of every column's table: m's table ends
    the previous line and starts this one, g's holds the text between
    the generators and the gaps, and the others list the numbers of
    their set bits, with the separator of the format.  So one join
    writes every line in its final text, but for the end of the last,
    and the text before the first is cut off.
    """
    frob, stride, size = leaves.frobenius, leaves.stride, leaves.stride // 8
    assert frob < 255, frob
    ones, generators, members = leaves.ones, leaves.generators, leaves.members
    if count < len(leaves):
        low = (1 << count * stride) - 1
        ones, generators = ones & low, generators & low  # the gaps take the cut of ones
    rest = generators & (generators - ones)  # all but the least generator of each block
    gaps = ones * ((2 << frob) - 1) & ~members
    used, length = frob // 8 + 1, count * size  # the bytes of [0, F], and of the chunk
    top = _fold(rest, count, stride)
    msg = range(max(((top & -top).bit_length() - 1) // 8, 0), (top.bit_length() + 7) // 8)
    raw, gap = rest.to_bytes(length, "little"), gaps.to_bytes(length, "little")
    # The popcounts of the bytes of [0, m) in each block, then of its gaps:
    # column j of both at once, so the sum holds m, then g, of each block.
    pops = (((generators ^ rest) - ones).to_bytes(length, "little") + gap).translate(_POPCOUNT)
    counts = sum(int.from_bytes(pops[j::size], "little") for j in range(used))
    counts = counts.to_bytes(2 * count, "little")
    layout = [counts[:count], *[raw[j::size] for j in msg],
              counts[count:], *[gap[j::size] for j in range(used)]]
    end, twice, tables = _tables(fmt, kind, frob, msg)
    if twice:
        layout += layout[-used:]
    record = len(layout)
    if count < 32:  # one C loop over the bytes costs less than a slice per column
        columns = memoryview(b"".join(layout)).cast("B", (record, count)).tobytes("F")
    else:
        columns = bytearray(count * record)
        for i, column in enumerate(layout):
            columns[i::record] = column
    return "".join(map(getitem, cycle(tables), columns))[len(end):] + end


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

    parser.commands = sub.choices  # the subparser of each subcommand, for _parse
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`run`: built on the first call, shared by every later one."""
    return build_parser()


def _plain(sub: argparse.ArgumentParser, argv) -> argparse.Namespace | None:
    """The namespace that sub.parse_args(argv) gives, when argv is plain; else None.

    argv is plain when it pairs up as (an option string of sub that takes
    one value, a value not starting with "-"), every value converts by its
    action's type and meets its choices, and no required option is
    missing.  The namespace starts from the defaults of sub's actions, but
    those argparse suppresses, and each action stores its value.
    """
    if len(argv) % 2:
        return None
    options = sub._option_string_actions
    args = argparse.Namespace(**{action.dest: action.default for action in sub._actions
                                 if action.default is not argparse.SUPPRESS})
    seen = set()
    for flag, text in zip(argv[::2], argv[1::2]):
        action = options.get(flag)
        if action is None or action.nargs is not None or text.startswith("-"):
            return None
        try:
            value = action.type(text) if action.type else text
        except (TypeError, ValueError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        action(sub, args, value, flag)
        seen.add(action)
    if any(action.required and action not in seen for action in sub._actions):
        return None
    return args


def _parse(argv) -> argparse.Namespace:
    """The arguments as ``_parser().parse_args(argv)`` gives them, errors and help included.

    When argv starts with a subcommand, only its subparser reads the
    rest: off its actions when the rest is plain (see :func:`_plain`),
    else by its parse_args.  The command is set as the top-level parser
    would set it.  Anything else goes through the top-level parser.
    """
    if argv is None:
        argv = sys.argv[1:]
    sub = _parser().commands.get(argv[0]) if argv else None
    if sub is None:
        return _parser().parse_args(argv)
    args = _plain(sub, argv[1:])
    if args is None:
        args = sub.parse_args(argv[1:])
    args.command = argv[0]
    return args


def _dispatch(args):
    """The results of the query in batches, and the function that renders a batch's first records.

    Every usage, capacity and feasibility check runs here, before the
    first batch, so a failing query writes nothing to stdout.  The main
    commands give checked chunks, which :func:`_render` writes.  An oracle
    subcommand gives one batch of record dicts, each built from a
    from_mask-validated semigroup and written by :func:`format_text` or
    ``json.dumps``; when it finds nothing, A generates F or some b, and
    the main command's witness is raised.
    """
    command = args.oracle_command if args.command == "oracle" else args.command
    if command != "partitions":
        required = _parse_intlist(args.A, "-A")
        if command in ("irreducibles", "semigroups"):
            if args.F > MAX_INPUT:
                raise errors.CapacityExceeded(f"-F must stay below 2^31, got {args.F}")
            if args.F > MAX_FROBENIUS_INPUT:
                raise errors.CapacityExceeded(
                    f"-F is capped at {MAX_FROBENIUS_INPUT}, got {args.F}"
                )
            if args.F < 1:
                raise _UsageError("-F expects a positive integer")
            targets = (args.F,)
        else:
            targets = _parse_intlist(args.B, "-B")
            if targets and max(targets) > MAX_FORBIDDEN_INPUT:
                raise errors.CapacityExceeded(
                    f"-B values are capped at {MAX_FORBIDDEN_INPUT}, got {max(targets)}"
                )
    if args.command != "oracle":
        kind = "solution-set" if command == "solve" else "semigroup"

        def render(leaves, count):
            return _render(leaves, count, args.format, kind)

        if command == "semigroups":
            return _semigroup_chunks(required, args.F), render
        # irreducibles are the maximal avoiders of the single value F.
        chunks = _avoider_chunks(required, targets)
        if command == "solve":
            # The solutions are the gap sets of the maximal avoiders.
            chunks = _increasing(chunks)
        return chunks, render

    import json

    from . import oracle

    if command == "partitions":
        records = [partition_record(p) for p in oracle.partitions(args.target)]
    elif command == "hitting-sets":
        targets = _forbidden(targets)
        records = [solution_record(c) for c in oracle.minimal_hitting_sets(required, targets)]
    else:
        find = oracle.all_semigroups_with_frobenius if command == "semigroups" else oracle.irreducibles_bruteforce
        records = [semigroup_record(NumericalSemigroup.from_mask(args.F, s.member_mask()))
                   for s in find(args.F, required)]
    if not records:
        _coin_table(required, targets)
    line = format_text if args.format == "text" else json.dumps
    return [records], lambda records, count: "".join(line(r) + "\n" for r in records[:count])


def _increasing(chunks):
    """The chunks, asserting as they pass that their bitmaps strictly increase in gap order.

    So no bitmap comes twice.  For one F, gap order is the order of the
    bitmaps read with bit 0 as the most significant bit: the bytes of
    each block, bits reversed, compared as strings.
    """
    last = b""
    for leaves in chunks:
        blocks = _split(leaves.members, leaves.count, leaves.stride)
        keys = (last, *map(bytes.translate, blocks, repeat(_BIT_REVERSE)))
        assert all(map(lt, keys, keys[1:])), "the solutions must be distinct"
        last = keys[-1]
        yield leaves


def run(argv=None) -> int:
    """Parse, execute, write records; returns the process exit code."""
    try:
        args = _parse(argv)
        if args.parallel < 1:
            raise _UsageError("--parallel expects a positive worker count")
        if args.limit is not None and args.limit < 0:
            raise _UsageError("--limit expects a non-negative count")
        batches, render = _dispatch(args)
    except SystemExit as exc:
        # argparse exits 0 for --help; anything else is a usage problem.
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    except (_UsageError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except errors.Infeasible as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except errors.CapacityExceeded as exc:
        print(f"capacity: {exc}", file=sys.stderr)
        return EXIT_CAPACITY

    write = sys.stdout.write
    total = 0
    for batch in batches:
        count = len(batch)
        if args.limit is not None:
            count = max(0, min(count, args.limit - total))
        if count:
            write(render(batch, count))
        total += len(batch)
    if args.limit is not None and total > args.limit:
        print(f"output truncated to {args.limit} of {total} records", file=sys.stderr)
    return EXIT_OK


def main() -> None:
    import signal

    # End quietly, as other filters do, when the reader of stdout goes away.
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(run())


if __name__ == "__main__":
    main()

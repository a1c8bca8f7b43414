"""Output certificates for benchmark queries, all polynomial in the input size.

The checks parse the CLI's stdout and re-derive every claim from the
printed gap list alone, without calling into ``numsem``:

* every record is a numerical semigroup: its members on [0, F] are closed
  under addition, F is the largest gap and the genus is the gap count;
* the printed minimal generators are exactly the members that are not a
  sum of two nonzero members;
* it contains A;
* ``irreducibles``: F is the query's F and the genus is ceil((F + 1) / 2);
* ``semigroups``: F is the query's F;
* ``maximal`` and ``solve``: it avoids B, and adding any single gap brings
  some b in B into the generated monoid, so no larger semigroup avoids B;
* ``solve`` (JSON): the solution set equals the gap set;
* records are strictly increasing by gap list, so sorted with no duplicates;
* the exit code is 2 with empty stdout exactly when the target (F, or some
  b in B) lies in the monoid generated by A, and 0 with output otherwise.

Completeness (that no semigroup is missing) has no cheap certificate; the
golden digests cover it for the default seed.
"""

from __future__ import annotations

import json
import re

from workloads import Query, generated_mask

RECORD_KEYS = ["kind", "msg", "frobenius", "genus", "gaps", "elements"]
TEXT_RECORD = re.compile(r"<([\d,]*)> \| F=(-?\d+) g=(\d+) gaps=\{([\d,]*)\}")


def _ints(text: str) -> list[int]:
    return [int(x) for x in text.split(",")] if text else []


def _parse(line: str, fmt: str, command: str) -> tuple[list[int], int, int, list[int]]:
    """(msg, F, genus, gaps) of one record; raises ValueError when malformed."""
    if fmt == "text":
        m = TEXT_RECORD.fullmatch(line)
        if not m:
            raise ValueError(f"malformed text record {line!r}")
        return _ints(m[1]), int(m[2]), int(m[3]), _ints(m[4])
    record = json.loads(line)
    if list(record) != RECORD_KEYS:
        raise ValueError(f"record keys {list(record)} are not {RECORD_KEYS}")
    if command == "solve":
        if record["kind"] != "solution-set" or record["elements"] != record["gaps"]:
            raise ValueError("a solution record must list its gap set as elements")
    elif record["kind"] != "semigroup" or record["elements"] is not None:
        raise ValueError(f"unexpected {record['kind']} record with elements {record['elements']}")
    return record["msg"], record["frobenius"], record["genus"], record["gaps"]


def _semigroup_problems(msg, frob, genus, gaps) -> list[str]:
    """Closure, Frobenius number, genus and minimal generators of one record."""
    if any(b <= a for a, b in zip(gaps, gaps[1:])) or (gaps and gaps[0] < 1):
        return [f"gaps {gaps} are not positive and strictly increasing"]
    if frob != (gaps[-1] if gaps else -1):
        return [f"F={frob} but the largest gap is {gaps[-1] if gaps else None}"]
    if genus != len(gaps):
        return [f"genus {genus} but {len(gaps)} gaps"]
    top = max(frob, 0)
    window = 2 * top + 2
    full = (1 << (window + 1)) - 1
    members = full
    for g in gaps:
        members &= ~(1 << g)
    for x in range(1, top + 1):
        if members >> x & 1 and (members << x) & full & ~members:
            return [f"not additively closed: {x} plus some member lands on a gap"]
    sums = 0
    for x in range(1, window + 1):
        if members >> x & 1:
            sums |= (members & ~1) << x
    expected = [x for x in range(1, window + 1) if members >> x & 1 and not sums >> x & 1]
    if msg != expected:
        return [f"minimal generators {msg}, expected {expected}"]
    return []


def _is_maximal_avoider(gaps: list[int], forbidden: tuple[int, ...]) -> bool:
    """Adding any single gap g to the semigroup generates some b in B."""
    bound = forbidden[-1]
    limit = (1 << (bound + 1)) - 1
    members = limit
    for x in gaps:
        members &= ~(1 << x)
    target = 0
    for b in forbidden:
        target |= 1 << b
    for g in gaps:
        if g > bound:
            return False  # such a gap could be filled without touching B
        grown = members | 1 << g
        while True:
            nxt = (grown | grown << g) & limit
            if nxt == grown:
                break
            grown = nxt
        if not grown & target:
            return False
    return True


def check_query(query: Query, code: int, stdout: str) -> list[str]:
    """Every certificate violation in one query's result; empty when correct."""
    target = query.frobenius if query.frobenius is not None else max(query.forbidden)
    witness_mask = generated_mask(query.required, target)
    if query.frobenius is not None:
        infeasible = bool(witness_mask >> query.frobenius & 1)
    else:
        infeasible = any(witness_mask >> b & 1 for b in query.forbidden)
    if infeasible:
        if code != 2 or stdout:
            return [f"infeasible input gave exit {code} with {len(stdout)} bytes of output"]
        return []
    if code != 0:
        return [f"feasible input gave exit {code}"]
    lines = stdout.splitlines()
    if not lines:
        return ["no records"]
    problems = []
    previous = None
    for line in lines:
        try:
            msg, frob, genus, gaps = _parse(line, query.fmt, query.command)
        except (ValueError, KeyError, TypeError) as exc:
            return [str(exc)]
        problems += _semigroup_problems(msg, frob, genus, gaps)
        gap_set = set(gaps)
        if any(a in gap_set for a in query.required):
            problems.append(f"{line}: misses a required element")
        if query.frobenius is not None and frob != query.frobenius:
            problems.append(f"{line}: F is not {query.frobenius}")
        if query.command == "irreducibles" and genus != (frob + 2) // 2:
            problems.append(f"{line}: genus is not ceil((F+1)/2)")
        if query.forbidden:
            if not all(b in gap_set for b in query.forbidden):
                problems.append(f"{line}: contains a forbidden element")
            elif not _is_maximal_avoider(gaps, query.forbidden):
                problems.append(f"{line}: a larger semigroup also avoids B")
        if previous is not None and not previous < gaps:
            problems.append(f"{line}: out of gap order or duplicated")
        previous = gaps
        if problems:
            return problems
    return problems

"""A standing mutation gate: one-line mutations of the package that named tests must catch.

Each entry of MUTANTS is one mutation: the file, the text it replaces
(found exactly once in that file), the new text, what the mutation
breaks, and the ids of the tests that must fail once it is applied.
:func:`run` copies src/ and tests/ to a temporary directory, once per
worker, applies each entry alone to a free copy, runs only the tests it
names there, with pytest's -x, and restores the file.  Python runs
without -O and PYTHONOPTIMIZE is cleared, since several entries delete
an assertion, and -O deletes them all.

A mutant is killed when its tests fail, and survives when they pass.
Any other outcome (old text not in the file, a test id not found, an
error at collection) means the entry is out of date, and fails the gate
as a survivor does.

Run from anywhere, with `python3 tests/mutants.py`.  It prints one line
per entry and exits 1 if any mutant survives or any entry is out of
date.  tests/test_mutants.py runs it as one tier-1 test.
"""

from __future__ import annotations

import os
import pathlib
import queue
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKERS = 2  # copies, each running one pytest process at a time


class Mutant(NamedTuple):
    path: str  # relative to the checkout
    old: str
    new: str
    breaks: str
    tests: tuple[str, ...]


IRR, MAX, CORE, CLI = (f"src/numsem/{name}.py" for name in ("irreducible", "maxavoid", "core", "cli"))
ACCEPT, T_CLI, T_CORE, T_MAX, T_IRR = (
    f"tests/test_{name}.py" for name in ("acceptance", "cli", "core", "maxavoid", "irreducible"))
SEARCH = "_batches(_search(monoid.member_mask(), t, (t - 1) // 2, avoid))"
PUSH = "\n                    stack.append((member, k + 1))"  # _decide_all's push, not _free_tails'
# The lower subsets of a tail, after the comment that tells the two loops apart.
LOWS = "\n                    lows = product(*[(0, 1 << p) for p in _bit_positions(free)])\n                    next(lows)"
FULL_LOWS, TAIL_LOWS = (f"# the lower positions, {note}{LOWS}"
                        for note in ("lowest first, each without it before with it", "as in _full_search"))
TAILS = f"{T_IRR}::TestSearchOrder::test_the_half_range_tails"
PICK = f"{T_IRR}::TestSearchOrder::test_the_half_range_pick"

MUTANTS = (
    Mutant(IRR, f"if not member & stop:{PUSH}", f"if not member & stop and k != 2:{PUSH}",
           "_decide_all refuses every member branch at position 2",
           (f"{ACCEPT}::test_criterion_1_irreducibles_golden",)),
    Mutant(IRR, FULL_LOWS, f"{FULL_LOWS}, next(lows)",
           "_full_search skips the first lower subset of a long free tail",
           (f"{ACCEPT}::TestGenusTree::test_frobenius_slices_match_the_enumerations",)),
    Mutant(IRR, "yield mask\n                    yield mask | free", "yield mask",
           "_full_search drops the second leaf of a one-position tail",
           (f"{ACCEPT}::test_criterion_2_semigroups_golden",)),
    Mutant(MAX, "return candidates.without(failed) if failed else candidates", "return candidates",
           "_witness keeps the candidates that fail the witness test",
           (f"{ACCEPT}::test_criterion_7_differential_solver",)),
    Mutant(CLI, 'table += [f"{entry}{sep}{i}"', 'table += [f"{entry}{sep}{i + (i == 100)}"',
           "_byte_table writes the token of bit 100 as 101",
           (f"{T_CLI}::TestFullWidthRenderer::test_byte_tables",)),
    Mutant(MAX, f"for bottoms in {SEARCH}:",
           f"for bottoms in [b for i, b in enumerate({SEARCH}) if i != 2]:",
           "maxavoid._chunks skips its third chunk of bottoms",
           (f"{T_IRR}::TestEnumerate::test_count_at_scale",)),
    Mutant(CORE, "for batch in _batches(masks):",
           "for batch in [b for i, b in enumerate(_batches(masks)) if i != 2]:",
           "core._leaf_chunks skips its third chunk",
           (f"{ACCEPT}::TestGenusTree::test_frobenius_slices_match_the_enumerations",)),
    Mutant(CORE, "if sums & span & ~members:", "if False:",
           "_check_leaves passes a chunk that is not closed",
           (f"{T_CORE}::TestLeafChunks",)),
    Mutant(CORE, "if members & ones != ones or members & (ones << frobenius | ~span):", "if False:",
           "_check_leaves passes a chunk without bit 0, with bit F or a bit above F",
           (f"{T_CORE}::TestLeafChunks",)),
    Mutant(CLI, "if action.choices is not None and value not in action.choices:", "if False:",
           "_plain reads a value outside an option's choices",
           (f"{T_CLI}::TestSubcommandParse",)),
    Mutant(CLI, 'assert all(map(lt, keys, keys[1:])), "the solutions must be distinct"', "pass",
           "_increasing lets a solution through twice",
           (f"{T_CLI}::TestMaximalAndSolve::test_solve_asserts_distinct_solutions",)),
    Mutant(MAX, "assert not tops.members & tops.ones * below, tops.members", "pass",
           "maxavoid._chunks lets a top through that meets the forbidden set",
           (f"{T_MAX}::TestMaximalAvoiding::test_asserts_catch_a_result_that_meets_the_forbidden_set",)),
    Mutant(MAX, "stride = max(_stride(t, least), (2 * t + 8) // 8 * 8 if below else 0)",
           "stride = _stride(t, least)",
           "maxavoid._chunks packs a chunk for the witness test below stride 2t + 1",
           (f"{T_MAX}::TestStrideFloor",)),
    Mutant(MAX, "assert tops.members & needed == needed, tops.members", "pass",
           "maxavoid._chunks lets a top through that misses the required set",
           (f"{T_MAX}::TestMaximalAvoiding::"
            "test_asserts_catch_a_result_that_misses_the_required_set_at_its_stride",)),
    Mutant(CORE, 'assert top + columns.bit_length() <= stride, f"the sums pass the stride {stride}"',
           "pass",
           "core._scan lets its sums pass into the next block",
           (f"{T_CORE}::TestMultiplicityStride::"
            "test_the_scan_asserts_a_stride_too_small_for_the_multiplicity",)),
    Mutant(CLI, "assert frob < 255, frob", "pass",
           "_render adds counts that carry out of their byte",
           (f"{T_CLI}::TestFullWidthRenderer::test_render_asserts_f_below_255",)),
    Mutant(IRR, TAIL_LOWS, f"{TAIL_LOWS}, next(lows)",
           "_free_tails skips the first nonempty lower subset of a tail past eight positions",
           (f"{TAILS}[required0-71]",)),
    Mutant(IRR, "below // 2, ", "",
           "_tail_floor drops b2 // 2, so a tail streams a position q with 2q = b2",
           (f"{TAILS}_below_a_second_forbidden_value[forbidden0]",)),
    Mutant(IRR, "limit if limit >= raised else min(raised, last)", "limit",
           "_free_tails keeps L when it pushes a member below m",
           (f"{TAILS}[required0-71]",)),
    Mutant(IRR, "not mask & 0x3FE", "not mask & 0x33FE",
           "_search's cheap test also rules the tail loop out when the least member is 12 or 13",
           (f"{PICK}[required11-forbidden11-6]",)),
    Mutant(IRR, "not mask & 0x3FE", "not mask & 0xFFE",
           "_search's cheap test also rules the tail loop out when the least member is 10 or 11",
           (f"{PICK}[required12-forbidden12-5]",)),
    Mutant(IRR, "for b in stops:", "for b in stops[:-1]:",
           "_free_tails leaves F out of a tail's refusals, so a tail streams q with F - q in M",
           (f"{TAILS}[required0-71]",)),
    Mutant(IRR, ">> (8 - width)", ">> (7 - width)",
           "_free_tails reverses a narrow tail's refusals one position off",
           (f"{TAILS}[required0-71]",)),
    Mutant(IRR, '{width}b}"[::-1], 2)', '{width}b}", 2)',
           "_free_tails leaves a tail's refusals unreversed past eight positions",
           (f"{TAILS}[required0-71]",)),
    Mutant(CLI, "low = (frobenius + 2) // 2", "low = 0",
           "_genus_table holds text for a genus no semigroup with that F has",
           (f"{T_CLI}::TestRenderTables::test_render_refuses_a_genus_no_semigroup_has",)),
)


def _outcome(copy: pathlib.Path, mutant: Mutant) -> str:
    """Apply the mutant to the copy, run its tests there without -O, and restore the file."""
    target = copy / mutant.path
    text = target.read_text()
    if text.count(mutant.old) != 1:
        return "stale: the old text is not in the file exactly once"
    target.write_text(text.replace(mutant.old, mutant.new))
    env = {key: value for key, value in os.environ.items() if key != "PYTHONOPTIMIZE"}
    env.update(PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant.tests]
    try:
        code = subprocess.run(argv, cwd=copy, env=env, capture_output=True, timeout=600).returncode
    finally:
        target.write_text(text)
    return {0: "survived", 1: "killed"}.get(code, f"stale: pytest exited {code}")


def run() -> list[str]:
    """Run every mutant, each on a free copy of src/ and tests/; the survivors and stale entries."""
    with tempfile.TemporaryDirectory() as tmp:
        copies = queue.SimpleQueue()
        for n in range(WORKERS):
            copy = pathlib.Path(tmp, str(n))
            for part in ("src", "tests"):
                shutil.copytree(ROOT / part, copy / part, ignore=shutil.ignore_patterns("__pycache__"))
            copies.put(copy)

        def outcome(mutant):
            copy = copies.get()
            try:
                return _outcome(copy, mutant)
            finally:
                copies.put(copy)

        with ThreadPoolExecutor(WORKERS) as pool:
            outcomes = list(pool.map(outcome, MUTANTS))
    bad = []
    for mutant, outcome in zip(MUTANTS, outcomes):
        print(f"{outcome}: {mutant.path}: {mutant.breaks}")
        if outcome != "killed":
            bad.append(f"{mutant.path}: {mutant.breaks} ({outcome})")
    return bad


if __name__ == "__main__":
    sys.exit(1 if run() else 0)

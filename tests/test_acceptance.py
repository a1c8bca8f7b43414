"""Acceptance suite.

One test per criterion; each prints a single PASS/FAIL line (run with
``pytest tests/test_acceptance.py -v -s`` to see them live).  Criteria 1-4
pin the worked golden examples, 5-7 run exhaustive differential grids
against the brute-force oracle, 8 re-checks the structural laws on every
semigroup the other suites produce, and 9 anchors the partition counter.
TestGenusTree reaches past the oracle's caps with an independent walk of
the tree of numerical semigroups, and TestClassCount past every
enumeration with a count of each class.
"""

import random
import time
from itertools import combinations

import pytest

from numsem import errors
from numsem.classes import class_minimum, enumerate_with_frobenius, frobenius_class, trace_family
from numsem.core import (
    NumericalSemigroup,
    Submonoid,
    apery_vector,
    intersect,
    semigroup_from_apery_vector,
)
from numsem.frontier import check_solution, is_minimal_solution, solve
from numsem.irreducible import (
    children,
    enumerate_irreducibles,
    irreducible_closure,
    is_irreducible,
    make_context,
    parent,
)
from numsem.maxavoid import maximal_avoiding
from numsem.oracle import (
    all_semigroups_with_frobenius,
    irreducibles_bruteforce,
    minimal_hitting_sets,
    partitions,
)

sg = NumericalSemigroup.from_generators

GRID_UNIVERSE = (0, 2, 3, 4, 5, 6, 7)
GRID_MAX_FROBENIUS = 14


def report(number: int, name: str, ok: bool, elapsed: float, budget: float):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {number} [{name}]: {status} ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert ok, f"criterion {number} ({name}) value check failed"
    assert elapsed < budget, f"criterion {number} ({name}) took {elapsed:.2f}s"


def required_grid():
    yield ()
    for size in (1, 2):
        yield from combinations(GRID_UNIVERSE, size)


def feasible(required, frobenius):
    return frobenius not in Submonoid(required, frobenius)


def forbidden_grid():
    values = range(3, 13)
    for b in values:
        yield (b,)
    for pair in combinations(values, 2):
        yield pair


SOLVE_REQUIRED = ((), (4,), (5,), (4, 9))


def test_criterion_1_irreducibles_golden():
    start = time.perf_counter()
    result = enumerate_irreducibles([4], 11)
    ok = set(result) == {sg([4, 6, 9]), sg([4, 5]), sg([2, 13])}
    report(1, "irreducibles A={4} F=11", ok, time.perf_counter() - start, 1.0)


def test_criterion_2_semigroups_golden():
    start = time.perf_counter()
    result = enumerate_with_frobenius([4], 11)
    expected = {
        sg([2, 13]),
        sg([4, 5]),
        sg([4, 6, 9]),
        sg([4, 6, 13, 15]),
        sg([4, 9, 10, 15]),
        sg([4, 9, 14, 15]),
        sg([4, 10, 13, 15]),
        sg([4, 13, 14, 15]),
    }
    ok = set(result) == expected and len(result) == 8

    cls = frobenius_class(sg([4, 6, 9]), make_context([4], 11))
    ok = ok and set(cls.members) == {
        sg([4, 6, 9]),
        sg([4, 6, 13, 15]),
        sg([4, 9, 10, 15]),
        sg([4, 9, 14, 15]),
        sg([4, 10, 13, 15]),
        sg([4, 13, 14, 15]),
    }
    ok = ok and trace_family(cls) == frozenset(
        frozenset(x) for x in [set(), {9}, {10}, {6, 10}, {9, 10}, {6, 9, 10}]
    )
    report(2, "semigroups A={4} F=11 and class expansion", ok, time.perf_counter() - start, 1.0)


def test_criterion_3_apery_vectors_golden():
    start = time.perf_counter()
    a11 = apery_vector(sg([4, 6, 9]), 15)
    a12 = apery_vector(sg([4, 5]), 15)
    a2 = apery_vector(sg([4, 9, 11]), 15)
    ok = a11.coords == (16, 17, 18, 4, 20, 6, 22, 8, 9, 10, 26, 12, 13, 14)
    ok = ok and a12.coords == (16, 17, 18, 4, 5, 21, 22, 8, 9, 10, 26, 12, 13, 14)
    ok = ok and a2.coords == (16, 17, 18, 4, 20, 21, 22, 8, 9, 25, 11, 12, 13, 29)

    joined = {a11.join(a2), a12.join(a2)}
    ok = ok and joined == {
        apery_vector(sg([4, 9, 15]), 15)
    } and next(iter(joined)).coords == (16, 17, 18, 4, 20, 21, 22, 8, 9, 25, 26, 12, 13, 29)

    ok = ok and maximal_avoiding([4, 9], [11, 14]) == [sg([4, 9, 15])]

    intermediate = enumerate_irreducibles([4, 9], 11)
    ok = ok and set(intermediate) == {sg([4, 6, 9]), sg([4, 5])}
    ok = ok and intermediate == irreducibles_bruteforce(11, [4, 9])
    report(3, "apery vectors, join, maximal A={4,9} B={11,14}", ok, time.perf_counter() - start, 1.0)


def test_criterion_4_solve_golden():
    start = time.perf_counter()
    solution = (1, 2, 3, 5, 6, 7, 10, 11, 14)
    ok = solve([4, 9], [11, 14]) == [solution]
    ok = ok and check_solution(solution, [4, 9], [11, 14])
    ok = ok and is_minimal_solution(solution, [4, 9], [11, 14])
    report(4, "solve A={4,9} B={11,14}", ok, time.perf_counter() - start, 1.0)


def test_criterion_5_differential_irreducibles():
    start = time.perf_counter()
    ok = True
    cases = 0
    for required in required_grid():
        for frobenius in range(1, GRID_MAX_FROBENIUS + 1):
            if not feasible(required, frobenius):
                continue
            cases += 1
            ok = ok and enumerate_irreducibles(required, frobenius) == irreducibles_bruteforce(
                frobenius, required
            )
    assert cases > 200
    report(5, f"differential irreducibles ({cases} cases)", ok, time.perf_counter() - start, 60.0)


def test_criterion_6_differential_semigroups():
    start = time.perf_counter()
    ok = True
    cases = 0
    for required in required_grid():
        for frobenius in range(1, GRID_MAX_FROBENIUS + 1):
            if not feasible(required, frobenius):
                continue
            cases += 1
            ok = ok and enumerate_with_frobenius(required, frobenius) == all_semigroups_with_frobenius(
                frobenius, required
            )
    report(6, f"differential semigroups ({cases} cases)", ok, time.perf_counter() - start, 120.0)


def test_criterion_7_differential_solver():
    start = time.perf_counter()
    ok = True
    cases = 0
    for forbidden in forbidden_grid():
        for required in SOLVE_REQUIRED:
            monoid = Submonoid(required, max(forbidden))
            if any(b in monoid for b in forbidden):
                continue
            cases += 1
            ok = ok and solve(required, forbidden) == minimal_hitting_sets(required, forbidden)
    assert cases > 100
    report(7, f"differential solver ({cases} cases)", ok, time.perf_counter() - start, 300.0)


def _suite_pool():
    """Every semigroup the differential grids produce, keyed by Frobenius number."""
    pool: dict[int, set] = {}
    contexts = []
    for required in required_grid():
        for frobenius in range(1, GRID_MAX_FROBENIUS + 1):
            if not feasible(required, frobenius):
                continue
            contexts.append(make_context(required, frobenius))
            for s in enumerate_with_frobenius(required, frobenius):
                pool.setdefault(frobenius, set()).add(s)
    for forbidden in forbidden_grid():
        for required in SOLVE_REQUIRED:
            monoid = Submonoid(required, max(forbidden))
            if any(b in monoid for b in forbidden):
                continue
            for s in maximal_avoiding(required, forbidden):
                pool.setdefault(s.frobenius, set()).add(s)
    return pool, contexts


def test_criterion_8_property_suite():
    start = time.perf_counter()
    pool, contexts = _suite_pool()
    violations = 0

    for frobenius, members in pool.items():
        for s in members:
            # irreducible-closure idempotence
            closed = irreducible_closure(s)
            if irreducible_closure(closed) != closed:
                violations += 1
            # genus criterion vs the mirrored-gap witness characterization
            witnesses = [
                x for x in s.gaps() if (frobenius - x) not in s and 2 * x != frobenius
            ]
            if is_irreducible(s) != (not witnesses):
                violations += 1
            # round trip through the Apery vector at every usable member
            for n in [x for x in s.small_elements() if x >= 2] + [frobenius + 1]:
                if semigroup_from_apery_vector(apery_vector(s, n)) != s:
                    violations += 1

    rng = random.Random(0)
    flat = sorted(pool.items())
    for frobenius, members in flat:
        ordered = sorted(members, key=lambda s: s.gaps())
        n = frobenius + 1
        pairs = [
            (rng.choice(ordered), rng.choice(ordered)) for _ in range(50)
        ]
        for s, t in pairs:
            vs, vt = apery_vector(s, n), apery_vector(t, n)
            # inclusion reverses the componentwise order
            if s.issubset(t) != vt.leq(vs):
                violations += 1
            # the vector of the intersection is the componentwise max
            if apery_vector(intersect(s, t), n) != vs.join(vt):
                violations += 1

    # intersections across different Frobenius numbers
    for _ in range(200):
        fa, fb = rng.choice(flat), rng.choice(flat)
        s = rng.choice(sorted(fa[1], key=lambda x: x.gaps()))
        t = rng.choice(sorted(fb[1], key=lambda x: x.gaps()))
        if intersect(s, t).frobenius != max(s.frobenius, t.frobenius):
            violations += 1

    # every tree edge inverts
    edges = 0
    for ctx in contexts:
        stack = [ctx.root]
        while stack:
            node = stack.pop()
            for child in children(node, ctx):
                edges += 1
                if parent(child, ctx) != node:
                    violations += 1
                stack.append(child)

    ok = violations == 0 and edges > 0
    report(
        8,
        f"property suite ({sum(len(m) for m in pool.values())} semigroups, {edges} edges)",
        ok,
        time.perf_counter() - start,
        300.0,
    )


def test_criterion_9_partition_count_anchor():
    start = time.perf_counter()
    ok = len(partitions(5)) == 7
    report(9, "partitions(5) has exactly 7 tuples", ok, time.perf_counter() - start, 1.0)


def genus_tree(frobenius_max: int, required=()):
    """(F, members on [0, F_max]) of every numerical semigroup with F <= F_max containing required.

    The tree of numerical semigroups (Fromentin and Hivert, Math. Comp. 85,
    2016; Bras-Amoros, Semigroup Forum 76, 2008): the root is N, with F =
    -1, and the children of S are S minus g for each minimal generator
    g > F(S) that is not required.  Each semigroup appears once, at depth
    its genus, and F(child) = g, so the nodes with F <= F_max form a
    subtree.  Plain int bit operations, with nothing from numsem: g is a
    minimal generator when no two nonzero members sum to it.
    """
    half = (2 << frobenius_max // 2) - 1
    stack = [(-1, (2 << frobenius_max) - 1)]
    while stack:
        frobenius, members = stack.pop()
        yield frobenius, members
        nonzero, sums = members & ~1, 0
        low = nonzero & half
        while low:
            sums |= nonzero << (low & -low).bit_length() - 1
            low &= low - 1
        for g in range(max(frobenius, 0) + 1, frobenius_max + 1):
            if not sums >> g & 1 and g not in required:
                stack.append((g, members ^ 1 << g))


class TestGenusTree:
    def test_genus_counts(self):
        counts = [0] * 11
        for _, members in genus_tree(19):  # genus g <= 10 implies F <= 2g - 1 <= 19
            genus = 20 - members.bit_count()
            if genus <= 10:
                counts[genus] += 1
        assert counts == [1, 1, 2, 4, 7, 12, 23, 39, 67, 118, 204]

    @pytest.mark.parametrize("required, frobenius_max", [((), 30), ((5,), 60), ((7,), 50)])
    def test_frobenius_slices_match_the_enumerations(self, required, frobenius_max):
        nodes: dict[int, list[int]] = {}
        for frobenius, members in genus_tree(frobenius_max, required):
            if frobenius >= 15:
                nodes.setdefault(frobenius, []).append(members & (2 << frobenius) - 1)
        for frobenius in range(15, frobenius_max + 1):
            tree = sorted(nodes.get(frobenius, []))
            assert bool(tree) == feasible(required, frobenius)
            if not tree:
                continue
            found = enumerate_with_frobenius(required, frobenius)
            assert tree == sorted(s.member_mask() for s in found)
            genus = (frobenius + 2) // 2
            irreducible = [m for m in tree if frobenius + 1 - m.bit_count() == genus]
            assert irreducible == sorted(s.member_mask() for s in enumerate_irreducibles(required, frobenius))

    @pytest.mark.parametrize("required, frobenius_max", [((), 24), ((5,), 26)])
    def test_maximal_avoiders_are_the_maximal_nodes(self, required, frobenius_max):
        # Every maximal avoider of B = {b1 < b2} has F = b2, so it is a node
        # with F = b2 that avoids b1, below no other such node.  Below another
        # means below one with a single member more: add the largest member
        # the other has and this one lacks, which is below b2.
        nodes: dict[int, set[int]] = {}
        for frobenius, members in genus_tree(frobenius_max, required):
            if frobenius >= 15:
                nodes.setdefault(frobenius, set()).add(members & (2 << frobenius) - 1)
        for b2 in range(15, frobenius_max + 1):
            for b1 in range(9, b2):
                avoiders = {m for m in nodes.get(b2, ()) if not m >> b1 & 1}
                tops = sorted(m for m in avoiders
                              if not any(m | 1 << x in avoiders for x in range(1, b2) if not m >> x & 1))
                assert bool(tops) == (feasible(required, b1) and feasible(required, b2)), (b1, b2)
                if not tops:
                    for find in (maximal_avoiding, solve):
                        with pytest.raises(errors.Infeasible):
                            find(required, (b1, b2))
                    continue
                found = maximal_avoiding(required, (b1, b2))
                assert sorted(s.member_mask() for s in found) == tops, (b1, b2)
                gaps = sorted(tuple(x for x in range(b2 + 1) if not m >> x & 1) for m in tops)
                assert solve(required, (b1, b2)) == gaps, (b1, b2)


def class_count(required, frobenius: int) -> int:
    """The number of semigroups with Frobenius number F containing A, summed over the classes.

    The classes partition them (see numsem.classes), and a class is
    bottom | T for the up-sets T of D = top \\ bottom, under d <= e iff
    e - d is in bottom, so e >= d.  With x the least element of U, an
    up-set of U either misses x, and is one of U \\ {x}, or holds
    up(x) = {e in U : e - x in bottom}, and the rest is one of U \\ up(x).
    So count(U) = count(U \\ {x}) + count(U \\ up(x)), memoized per class.
    """
    ctx = make_context(required, frobenius)
    total = 0
    for top in enumerate_irreducibles(required, frobenius):
        bottom = class_minimum(top, ctx).member_mask()
        memo = {0: 1}

        def count(rest):
            if rest not in memo:
                x = (rest & -rest).bit_length() - 1
                memo[rest] = count(rest & (rest - 1)) + count(rest & ~(bottom << x))
            return memo[rest]

        total += count(top.member_mask() & ~bottom)
    return total


class TestClassCount:
    @pytest.mark.parametrize("required, frobenius_max", [((), 26), ((4,), 26), ((5, 7), 23)])
    def test_equals_the_enumeration(self, required, frobenius_max):
        for frobenius in range(1, frobenius_max + 1):
            if feasible(required, frobenius):
                found = enumerate_with_frobenius(required, frobenius)
                assert class_count(required, frobenius) == len(found), frobenius

    def test_equals_the_enumeration_with_free_tails(self):
        """A = {} at F = 35: the half-range search streams free tails, 292,081 semigroups."""
        assert class_count((), 35) == len(enumerate_with_frobenius((), 35)) == 292_081

    @pytest.mark.parametrize("required, frobenius, total", [((), 60, 1_269_765_591),
                                                            ((11,), 120, 45_853_063)])
    def test_past_the_enumeration(self, required, frobenius, total):
        assert class_count(required, frobenius) == total

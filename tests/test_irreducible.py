"""Tree enumeration of irreducible semigroups with fixed Frobenius number."""

import math
import tracemalloc
from itertools import combinations, islice

import pytest

from numsem import errors
from numsem.core import (
    FULL_SEMIGROUP,
    NumericalSemigroup,
    Submonoid,
    _add_generator,
    _halves,
    contains_genset,
    gap_key,
)
from numsem.irreducible import (
    _decide_all,
    _free_tails,
    _full_search,
    _search,
    _tail_floor,
    children,
    enumerate_irreducibles,
    irreducible_closure,
    is_irreducible,
    make_context,
    min_free_generator,
    parent,
    root_irreducible,
)
from numsem.oracle import irreducibles_bruteforce

sg = NumericalSemigroup.from_generators


def tree_walk(ctx):
    """Reference: every node reached by children from the root, sorted by gap_key."""
    nodes, stack = [], [ctx.root]
    while stack:
        s = stack.pop()
        nodes.append(s)
        stack.extend(children(s, ctx))
    assert len(set(nodes)) == len(nodes), "the tree reached a node twice"
    return sorted(nodes, key=gap_key)


def two_push_search(mask, frobenius, last, avoid=0):
    """Reference: the prefix search that pushes both branches of every node, gap on top."""
    stop = 1 << frobenius | avoid
    stack = [(mask, 1)]
    while stack:
        mask, k = stack.pop()
        free = ~mask >> k
        k += (free & -free).bit_length() - 1
        if k > last:
            yield mask
            continue
        member = _add_generator(mask, k, frobenius)
        if not member & stop:
            stack.append((member, k + 1))
        stack.append((mask, k + 1))


def assert_half_range_leaves(leaves, args):
    """The leaves of the tail loop against the two-push search, leaf by leaf in order.

    A leaf of _free_tails is M with a subset of its tail, unclosed above
    F/2: it equals the reference leaf on [0, last], lies inside it, and
    gives the same mirror fill.  A block's fill does not depend on the
    stride, which is above F at every query, so the default one is used.
    """
    frob, last = args[1], args[2]
    reference = list(two_push_search(*args))
    low = (2 << last) - 1
    assert [leaf & low for leaf in leaves] == [leaf & low for leaf in reference], args
    assert all(leaf & ~closed == 0 for leaf, closed in zip(leaves, reference)), args
    assert _halves(frob, leaves)[2].members == _halves(frob, reference)[2].members, args


def assert_search_leaves(args):
    """_search against the two-push search: the tail loop's leaves as above, the others equal."""
    leaves = _search(*args)
    if leaves.__name__ == _free_tails.__name__:
        assert_half_range_leaves(list(leaves), args)
    else:
        assert list(leaves) == list(two_push_search(*args)), args


class TestSearchOrder:
    @pytest.mark.parametrize("required", [(), (5,), (7, 9)])
    def test_same_leaves_in_the_same_order(self, required):
        checked = 0
        for frob in range(1, 31):
            monoid = Submonoid(required, frob)
            if frob in monoid:
                continue
            avoids = [0]
            if frob > 3:
                avoids += [1 << (frob - 3), 3 << (frob - 2)]
            for last in {(frob - 1) // 2, frob - 1}:
                for avoid in avoids:
                    args = (monoid.member_mask(), frob, last, avoid)
                    assert_search_leaves(args)
                    if last == frob - 1 and not avoid:
                        reference = list(two_push_search(*args))
                        assert list(_full_search(monoid.member_mask(), frob)) == reference, args
                    checked += 1
        assert checked > 100

    @pytest.mark.parametrize("required", [(), (2,), (5,), (7, 9)])
    def test_every_range_that_reaches_half(self, required):
        """last from F/2 to F - 1: the plain loop decides every position, past F/2 too."""
        checked = 0
        for frob in range(1, 25):
            monoid = Submonoid(required, frob)
            if frob in monoid:
                continue
            for last in range((frob + 1) // 2, frob):
                for avoid in (0, 1 << (frob - 1) // 2 + 1, 1 << last):
                    args = (monoid.member_mask(), frob, last, avoid)
                    assert list(_search(*args)) == list(two_push_search(*args)), args
                    checked += 1
        assert checked > 150

    @pytest.mark.parametrize("required, top", [((), 71), ((5,), 51), ((11,), 81), ((19,), 91),
                                                ((13, 17), 91)])
    def test_the_half_range_tails(self, required, top):
        """_free_tails against the two-push search, whatever the size of its root's tails.

        For A = {} the first tail holds at least nine positions from F = 57
        on, so its lower subsets come lazily, each with its list rebuilt.
        """
        checked = 0
        for frob in range(1, top):
            monoid = Submonoid(required, frob)
            if frob in monoid:
                continue
            mask = monoid.member_mask()
            avoids = [0]
            if frob > 3:
                avoids += [1 << (frob - 3), 3 << (frob - 2)]
            for last in {(frob - 1) // 2, (frob - 1) // 2 - 2}:
                for avoid in avoids:
                    if mask & avoid or last < 0:
                        continue
                    args = (mask, frob, last, avoid)
                    assert_half_range_leaves(list(_free_tails(*args)), args)
                    checked += 1
        assert checked > 70

    @pytest.mark.parametrize("forbidden", [(50, 71), (40, 57), (44, 45, 61), (5, 7, 71)])
    def test_the_half_range_tails_below_a_second_forbidden_value(self, forbidden):
        """b2 // 2 sets the tail floor past F // 3 where b2, the second highest of B, passes 2F/3."""
        t, avoid = forbidden[-1], sum(1 << b for b in forbidden)
        if forbidden[-2] > 2 * t // 3:
            assert _tail_floor(1, t, avoid) == forbidden[-2] // 2 > t // 3
        args = (1, t, (t - 1) // 2, avoid)
        assert_half_range_leaves(list(_free_tails(*args)), args)

    @pytest.mark.parametrize("required, forbidden, positions", [
        ((), (23,), 4), ((), (29,), 5), ((), (35,), 6), ((), (45,), 7), ((), (81,), 13),
        ((), (61, 67), 3), ((), (50, 71), 10), ((), (5, 7, 71), 12), ((19,), (150,), 9),
        ((5,), (150,), 2), ((12,), (100,), 5), ((13,), (100,), 6), ((10,), (101,), 5),
        ((9,), (101,), 4), ((11,), (100,), 5), ((10,), (100,), 4)])
    def test_the_half_range_pick(self, required, forbidden, positions):
        """_search takes the tail loop when (L, last] at the root holds at least five positions.

        A least member of 10 or more passes the cheap test, and 9 or less
        leaves at most four positions.
        """
        t, avoid = forbidden[-1], sum(1 << b for b in forbidden)
        mask, last = Submonoid(required, t).member_mask(), (t - 1) // 2
        assert last - _tail_floor(mask, t, avoid) == positions
        loop = _free_tails if positions >= 5 else _decide_all
        assert _search(mask, t, last, avoid).__name__ == loop.__name__
        assert _search(mask, t, t - 1, avoid).__name__ == _decide_all.__name__

    def test_the_tails_of_a_large_full_range(self):
        """A = {} at F = 31: most leaves lie in the free tails past F/2.

        The first tail has 15 free positions, so its lower seven come as
        lazy subsets joined with the list of the top eight.
        """
        leaves = list(_full_search(1, 31))
        assert len(leaves) == 70_854
        assert leaves == list(two_push_search(1, 31, 30))

    def test_the_free_tails_stream(self):
        """A = {} at F = 60: the first 256 leaves come before the tail is built.

        The first tail has 29 free positions; held whole, even 1/256 of it
        would take tens of MiB.
        """
        reference = list(islice(two_push_search(1, 60, 59), 256))
        tracemalloc.start()
        try:
            leaves = list(islice(_full_search(1, 60), 256))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert leaves == reference
        assert peak < 1 << 20, peak


class TestIsIrreducible:
    def test_examples(self):
        assert is_irreducible(sg([4, 6, 9]))
        assert not is_irreducible(sg([4, 13, 14, 15]))
        assert is_irreducible(sg([2, 3]))

    def test_full_semigroup_rejected(self):
        with pytest.raises(errors.FullSemigroup):
            is_irreducible(FULL_SEMIGROUP)


class TestIrreducibleClosure:
    def test_fills_mirrored_gaps(self):
        base = NumericalSemigroup.from_small_elements({0, 4, 8}, 11)
        assert irreducible_closure(base) == sg([4, 6, 9])

    def test_idempotent(self):
        for s in [sg([4, 6, 9]), sg([4, 5]), sg([2, 13]), sg([3, 5, 7])]:
            assert irreducible_closure(s) == s

    def test_three_generator_base(self):
        base = NumericalSemigroup.from_small_elements({0, 4, 8, 9, 12, 13}, 14)
        assert irreducible_closure(base) == sg([4, 9, 11])

    def test_result_is_irreducible_with_same_frobenius(self):
        base = NumericalSemigroup.from_small_elements({0, 5}, 9)
        closed = irreducible_closure(base)
        assert closed.frobenius == 9
        assert is_irreducible(closed)
        assert base.issubset(closed)

    def test_full_semigroup_rejected(self):
        with pytest.raises(errors.FullSemigroup):
            irreducible_closure(FULL_SEMIGROUP)


class TestRoot:
    def test_single_required_generator(self):
        assert root_irreducible([4], 11) == sg([4, 6, 9])

    def test_two_required_generators(self):
        assert root_irreducible([4, 9], 14) == sg([4, 9, 11])

    def test_infeasible(self):
        with pytest.raises(errors.Infeasible) as info:
            root_irreducible([4], 8)
        assert info.value.value == 8
        assert "2·4" in str(info.value)

    def test_root_generators_below_half_lie_in_required_set(self):
        for required, frob in [((4,), 11), ((4, 9), 14), ((), 9), ((3,), 10)]:
            root = root_irreducible(required, frob)
            for m in root.minimal_generators():
                if 2 * m < frob:
                    assert m in required


class TestFreeGenerator:
    def test_values(self):
        ctx = make_context([4], 11)
        assert min_free_generator(sg([4, 5]), ctx) == 5
        assert min_free_generator(sg([2, 13]), ctx) == 2
        assert min_free_generator(ctx.root, ctx) == math.inf


class TestParent:
    def test_edges(self):
        ctx = make_context([4], 11)
        assert parent(sg([4, 5]), ctx) == sg([4, 6, 9])
        assert parent(sg([2, 13]), ctx) == sg([4, 6, 9])

    def test_root_has_none(self):
        ctx = make_context([4], 11)
        with pytest.raises(errors.AtRoot):
            parent(ctx.root, ctx)


class TestChildren:
    def test_root_children_ascending_by_exchange_site(self):
        ctx = make_context([4], 11)
        assert children(ctx.root, ctx) == [sg([4, 5]), sg([2, 13])]

    def test_leaves(self):
        ctx = make_context([4], 11)
        assert children(sg([4, 5]), ctx) == []
        assert children(sg([2, 13]), ctx) == []

    def test_blocked_by_member_condition(self):
        ctx = make_context([4, 9], 14)
        assert children(sg([4, 9, 11]), ctx) == []


class TestEnumerate:
    def test_required_four(self):
        result = enumerate_irreducibles([4], 11)
        assert result == [sg([4, 6, 9]), sg([4, 5]), sg([2, 13])]
        assert result == sorted(result, key=gap_key)

    def test_required_four_nine(self):
        assert enumerate_irreducibles([4, 9], 14) == [sg([4, 9, 11])]

    def test_zero_normalizes_away(self):
        assert enumerate_irreducibles([0], 4) == [sg([3, 5, 7])]

    def test_infeasible(self):
        with pytest.raises(errors.Infeasible):
            enumerate_irreducibles([4], 8)

    def test_outputs_satisfy_constraints(self):
        for required, frob in [((4,), 11), ((), 9), ((3,), 13), ((2, 5), 3)]:
            for s in enumerate_irreducibles(required, frob):
                assert contains_genset(s, required)
                assert s.frobenius == frob
                assert is_irreducible(s)

    def test_exactly_one_root(self):
        ctx = make_context([], 13)
        outputs = enumerate_irreducibles([], 13)
        roots = [s for s in outputs if math.isinf(min_free_generator(s, ctx))]
        assert roots == [ctx.root]

    def test_parent_of_child_is_self(self):
        ctx = make_context([], 12)
        stack = [ctx.root]
        edges = 0
        while stack:
            s = stack.pop()
            for child in children(s, ctx):
                assert parent(child, ctx) == s
                edges += 1
                stack.append(child)
        assert edges == len(enumerate_irreducibles([], 12)) - 1

    def test_parent_chain_reaches_root(self):
        ctx = make_context([4], 11)
        for s in enumerate_irreducibles([4], 11):
            steps = 0
            while not math.isinf(min_free_generator(s, ctx)):
                s = parent(s, ctx)
                steps += 1
                assert steps <= s.genus
            assert s == ctx.root

    def test_restriction_to_larger_required_set(self):
        wide = enumerate_irreducibles([4], 11)
        narrow = enumerate_irreducibles([4, 9], 11)
        assert narrow == [s for s in wide if 9 in s]

    def test_count_at_scale(self):
        result = enumerate_irreducibles([], 61)
        assert len(result) == 5602
        assert all(a.gaps() < b.gaps() for a, b in zip(result, result[1:]))

    def test_matches_bruteforce_on_sample(self):
        samples = [((), 6), ((), 11), ((3,), 7), ((4,), 11), ((2, 7), 5), ((5,), 12)]
        for required, frob in samples:
            assert enumerate_irreducibles(required, frob) == irreducibles_bruteforce(
                frob, required
            )

    def test_matches_bruteforce_on_grid(self):
        # The full grid runs in the acceptance suite; keep a fast slice here.
        universe = (0, 2, 3, 4, 5, 6, 7)
        for frob in range(1, 9):
            for size in range(3):
                for required in combinations(universe, size):
                    if frob in Submonoid(required, frob):
                        continue
                    assert enumerate_irreducibles(
                        required, frob
                    ) == irreducibles_bruteforce(frob, required)

    @pytest.mark.parametrize("required", [(), (3,), (4,), (5, 7), (6, 9), (7,), (9, 11)])
    def test_matches_tree_walk(self, required):
        """List and order equal the Blanco-Rosales tree walk, past the oracle's F <= 16."""
        checked = 0
        for frob in range(1, 51 if not required else 61):
            try:
                ctx = make_context(required, frob)
            except errors.Infeasible:
                continue
            assert enumerate_irreducibles(required, frob) == tree_walk(ctx), (required, frob)
            checked += 1
        assert checked >= 10

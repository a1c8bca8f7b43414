"""Core value types: membership tables, canonical semigroups, Apery machinery."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from numsem import errors
from numsem.core import (
    CHUNK,
    AperyVector,
    FULL_SEMIGROUP,
    NumericalSemigroup,
    Submonoid,
    _bit_positions,
    _from_table,
    _halves,
    _leaf_chunks,
    _ones,
    _stride,
    _unpack,
    apery,
    apery_vector,
    avoids_genset,
    contains_genset,
    gap_key,
    intersect,
    minimal_generating_set,
    normalize_genset,
    semigroup_from_apery_vector,
)
from numsem.classes import _semigroup_chunks, frobenius_class
from numsem.irreducible import enumerate_irreducibles, make_context
from numsem.maxavoid import _avoider_chunks, make_problem
from numsem.oracle import all_semigroups_with_frobenius

sg = NumericalSemigroup.from_generators


def combination_members(gens, bound):
    """Independent oracle: explicit coefficient enumeration, no forward table."""
    members = set()

    def rec(i, total):
        if i == len(gens):
            members.add(total)
            return
        value = total
        while value <= bound:
            rec(i + 1, value)
            value += gens[i]

    rec(0, 0)
    return members


def full_window_minimal_generators(s):
    """Reference: nonzero members of [1, 2F + 2] that are no sum of two nonzero members."""
    window = 2 * s.frobenius + 2
    mask = s.member_mask(window)
    sums = 0
    for x in range(1, window + 1):
        if mask >> x & 1:
            sums |= (mask & ~1) << x
    return tuple(x for x in range(1, window + 1) if mask >> x & 1 and not sums >> x & 1)


def low_bit_positions(mask):
    """Reference: set bits of a non-negative bitmap, peeled off one lowest bit at a time."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def two_scan_from_mask(frob, mask):
    """Reference: the closure scan over [1, F/2], then a separate generator scan.

    Returns ("violation", (x, y)) for the first violating pair, else
    ("generators", minimal generators).
    """
    full = (1 << (frob + 1)) - 1
    for x in range(1, frob // 2 + 1):
        if mask >> x & 1:
            bad = (mask << x) & full & ~mask
            if bad:
                y = (bad & -bad).bit_length() - 1 - x
                return "violation", (min(x, y), max(x, y))
    s = NumericalSemigroup(frob, mask)
    nonzero = s.member_mask(frob + 1) & ~1
    window = frob + (nonzero & -nonzero).bit_length() - 1
    members = s.member_mask(window) & ~1
    sums = 0
    for x in low_bit_positions(members & ((2 << (window // 2)) - 1)):
        sums |= members << x
    return "generators", tuple(low_bit_positions(members & ~sums))


def fused_from_mask(frob, mask):
    """from_mask, in the form two_scan_from_mask returns."""
    try:
        s = NumericalSemigroup.from_mask(frob, mask)
    except errors.ClosureViolation as exc:
        return "violation", (exc.x, exc.y)
    return "generators", s.minimal_generators()


def uncached(s):
    """The same semigroup with nothing cached."""
    return NumericalSemigroup(s.frobenius, s.member_mask())


def chunked(frob, masks, stride=None):
    """The chunk check of the masks: the chunk sizes and the semigroups, or the first violation."""
    try:
        chunks = list(_leaf_chunks(frob, masks, stride))
    except errors.ClosureViolation as exc:
        return "violation", (exc.x, exc.y)
    assert all(c.ones == _ones(len(c), c.stride) for c in chunks)
    return [len(c) for c in chunks], [s for c in chunks for s in c.semigroups()]


def one_at_a_time(frob, masks):
    """chunked, computed by from_mask one mask at a time."""
    try:
        semigroups = [NumericalSemigroup.from_mask(frob, m) for m in masks]
    except errors.ClosureViolation as exc:
        return "violation", (exc.x, exc.y)
    sizes = [min(CHUNK, len(masks) - i) for i in range(0, len(masks), CHUNK)]
    return sizes, semigroups


def multiplicity(frob, mask):
    """The least nonzero member of the semigroup whose bitmap on [0, F] is mask."""
    nonzero = mask & ~1
    return (nonzero & -nonzero).bit_length() - 1 if nonzero else frob + 1


def every_bitmap(frob):
    """Every bitmap on [0, F] with bit 0 set and bit F clear, split into the closed and the rest."""
    closed, open_ = [], []
    for mask in range(1, 1 << frob, 2):
        (closed if two_scan_from_mask(frob, mask)[0] == "generators" else open_).append(mask)
    return closed, open_


def list_dp_decompose(table, x):
    """Reference: the list dynamic program that Submonoid.decompose used before the prefix walk.

    via[v] is the first generator, in ascending order, that makes v
    reachable; the witness follows via down from x.
    """
    if x == 0:
        return []
    if x < 0 or x > table.bound or x not in table:
        return None
    via = [0] * (x + 1)
    reach = [False] * (x + 1)
    reach[0] = True
    for g in table.generators:
        if g > x:
            break
        for v in range(g, x + 1):
            if not reach[v] and reach[v - g]:
                reach[v] = True
                via[v] = g
    counts = {}
    v = x
    while v:
        g = via[v]
        counts[g] = counts.get(g, 0) + 1
        v -= g
    return [(counts[g], g) for g in sorted(counts)]


def per_generator_minimal_generating_set(generators):
    """Reference: a fresh table of the kept generators on [0, m] for each generator m."""
    kept = []
    for m in normalize_genset(generators):
        if m not in Submonoid(kept, m):
            kept.append(m)
    return tuple(kept)


def doubling_from_generators(generators):
    """Reference: tables on [0, 2^j * 2 max] until one ends in a run of min(generators) members."""
    gens = normalize_genset(generators)
    step = gens[0]
    bound = 2 * gens[-1]
    while True:
        table = Submonoid(gens, bound)
        run = (1 << step) - 1 << (bound - step + 1)
        if table.member_mask() & run == run:
            return _from_table(table)
        bound *= 2


def small_sets(top, size):
    """Every non-empty subset of [1, top] with at most size elements."""
    for k in range(1, size + 1):
        yield from itertools.combinations(range(1, top + 1), k)


class TestRetiredTableBuilders:
    """The one-table builders against the algorithms they replaced, on full grids."""

    def test_decompose_matches_the_list_dp(self):
        cases = 0
        for gens in small_sets(16, 3):
            table = Submonoid(gens, 40)
            for x in range(41):
                assert table.decompose(x) == list_dp_decompose(table, x), (gens, x)
                cases += 1
        assert cases == 28_536

    def test_minimal_generating_set_matches_the_per_generator_tables(self):
        cases = 0
        for gens in small_sets(20, 4):
            assert minimal_generating_set(gens) == per_generator_minimal_generating_set(gens), gens
            cases += 1
        assert cases == 6_195

    def test_from_generators_matches_the_doubling_search(self):
        cases = 0
        for gens in small_sets(24, 3):
            if math.gcd(*gens) == 1:
                assert NumericalSemigroup.from_generators(gens) == doubling_from_generators(gens), gens
                cases += 1
        assert cases == 1_927

    def test_from_generators_with_many_generators_matches_the_doubling_search(self):
        """Seeded sets of 4 to 30 generators from [2, 120], redundant ones included."""
        rng = random.Random(22)
        cases = smaller = 0
        while cases < 500:
            gens = sorted(rng.sample(range(2, 121), rng.randint(4, 30)))
            if math.gcd(*gens) != 1:
                continue
            assert NumericalSemigroup.from_generators(gens) == doubling_from_generators(gens), gens
            cases += 1
            # The Erdos-Graham bound is the one that sizes the table.
            erdos_graham = 2 * gens[-2] * (gens[-1] // len(gens)) - gens[-1]
            smaller += erdos_graham < (gens[0] - 1) * (gens[-1] - 1)
        assert 50 < smaller < cases
        assert NumericalSemigroup.from_generators(range(50, 100)).frobenius == 49


class TestMultiplicityStride:
    """Chunks packed at the stride of a multiplicity bound m, with leaves of multiplicity m."""

    def test_the_default_bound_is_f_plus_one(self):
        for frob in range(1, 201):
            assert _stride(frob) == _stride(frob, frob + 1) == (3 * frob + 9) // 8 * 8
            # {0} and [F + 1, oo), the one semigroup with multiplicity F + 1.
            (leaves,) = _leaf_chunks(frob, [1], _stride(frob, frob + 1))
            (s,) = leaves.semigroups()
            assert s.minimal_generators() == tuple(range(frob + 1, 2 * frob + 2))

    def test_every_bound_on_every_bitmap(self):
        """Every closed bitmap with F <= 14 whose multiplicity is at most m, at the stride of m."""
        at_bound = 0
        for frob in range(1, 15):
            closed, _ = every_bitmap(frob)
            for bound in range(2, frob + 2):
                masks = [m for m in closed if multiplicity(frob, m) <= bound]
                stride = _stride(frob, bound)
                chunks = list(_leaf_chunks(frob, masks, stride))
                assert all(c.stride == stride for c in chunks)
                assert chunked(frob, masks, stride) == one_at_a_time(frob, masks), (frob, bound)
                at_bound += sum(multiplicity(frob, m) == bound and m >> (frob + bound) // 2 & 1
                                for m in masks)
        assert at_bound > 0

    @pytest.mark.parametrize("least", [2, 3, 5, 8])
    def test_a_required_multiplicity(self, least):
        """semigroups -A m: every leaf holds m, so the stride of the bound m."""
        at_bound = 0
        for frob in range(least + 1, 40 - 2 * least):
            if frob % least == 0:
                continue
            chunks = list(_semigroup_chunks((least,), frob))
            assert all(c.stride == _stride(frob, least) for c in chunks)
            for s in (s for c in chunks for s in c.semigroups()):
                assert s.minimal_generators() == uncached(s).minimal_generators(), s
                at_bound += s.minimal_generators()[0] == least and (frob + least) // 2 in s
        assert at_bound > 0

    def test_irreducibles_at_half_plus_one(self):
        """irreducibles -F t: the multiplicity is at most t/2 + 1 for t > 2, and t + 1 below."""
        at_bound = 0
        for t in range(1, 50):
            bound = t // 2 + 1 if t > 2 else t + 1
            chunks = list(_avoider_chunks((), (t,)))
            assert all(c.stride == _stride(t, bound) for c in chunks)
            for s in (s for c in chunks for s in c.semigroups()):
                assert s.minimal_generators() == uncached(s).minimal_generators(), s
                assert s.minimal_generators()[0] <= bound
                at_bound += s.minimal_generators()[0] == bound and (t + bound) // 2 in s
        assert at_bound > 0

    def test_the_scan_asserts_a_stride_too_small_for_the_multiplicity(self):
        # {0, 4, 5, 6} with F = 7 has multiplicity 4: its window is [1, 11] and its
        # columns reach 5, so its sums reach bit 16, past a stride of 16 bits.
        mask = 1 | 1 << 4 | 1 << 5 | 1 << 6
        assert _stride(7, 4) == 24
        (leaves,) = _leaf_chunks(7, [mask], _stride(7, 4))
        assert leaves.semigroups()[0].minimal_generators() == (4, 5, 6)
        with pytest.raises(AssertionError, match="the sums pass the stride 16"):
            list(_leaf_chunks(7, [mask], 16))


class TestLeafChunks:
    """The chunk check of search leaves against from_mask and two_scan_from_mask, one by one."""

    def test_closed_bitmaps_match_one_at_a_time(self):
        total = 0
        for frob in range(1, 15):
            closed, _ = every_bitmap(frob)
            sizes, got = chunked(frob, closed)
            assert (sizes, got) == one_at_a_time(frob, closed)
            for s in got:
                expected = two_scan_from_mask(frob, s.member_mask())
                assert ("generators", s.minimal_generators()) == expected
            total += len(closed)
        assert total == 379

    def test_a_non_closed_bitmap_raises_its_own_violation_anywhere(self):
        rng = random.Random(12)
        total = 0
        for frob in range(1, 15):
            closed, open_ = every_bitmap(frob)
            total += len(open_)
            for i, mask in enumerate(open_):
                pad = [closed[(i + j) % len(closed)] for j in range(5)]
                masks = pad[:i % 6] + [mask] + pad[i % 6:]
                assert chunked(frob, masks) == two_scan_from_mask(frob, mask), (frob, mask)
            # Mid-chunk, at a chunk's ends and in the second chunk.
            pad = [closed[j % len(closed)] for j in range(2 * CHUNK)]
            for mask in rng.sample(open_, min(60, len(open_))):
                at = rng.choice([0, 1, CHUNK // 2, CHUNK - 1, CHUNK, CHUNK + 7])
                masks = pad[:at] + [mask] + pad[at:]
                expected = two_scan_from_mask(frob, mask)
                assert chunked(frob, masks) == one_at_a_time(frob, masks) == expected, (mask, at)
        assert total == 16004

    @pytest.mark.parametrize("count", [1, CHUNK - 1, CHUNK, CHUNK + 1])
    def test_leaf_counts_around_the_chunk_size(self, count):
        for frob in (14, 59):
            family = enumerate_irreducibles([], frob)
            masks = [family[i % len(family)].member_mask() for i in range(count)]
            sizes, got = chunked(frob, masks)
            assert (sizes, got) == one_at_a_time(frob, masks)
            assert [s.minimal_generators() for s in got] == [
                full_window_minimal_generators(s) for s in got
            ]

    @pytest.mark.parametrize("at", [0, 3, CHUNK - 1, CHUNK])
    def test_raw_failures_raise_what_the_constructor_raises(self, at):
        for frob in (5, 14, 40):
            pad = [s.member_mask() for s in enumerate_irreducibles([], frob)]
            pad = [pad[j % len(pad)] for j in range(CHUNK + 4)]
            for bad in (
                pad[0] | 1 << frob,  # bit F set
                pad[0] | 1 << (frob + 1),  # a bit above F
                pad[0] | 1 << (3 * frob + 4),  # a bit above F, past the sums
                pad[0] | 1 << 4000,  # a bit past the block
                pad[0] & ~1,  # bit 0 clear
                -1,
            ):
                with pytest.raises((ValueError, errors.FrobeniusPresent)) as expected:
                    NumericalSemigroup(frob, bad)
                with pytest.raises(type(expected.value)) as info:
                    list(_leaf_chunks(frob, pad[:at] + [bad] + pad[at:]))
                assert str(info.value) == str(expected.value), (frob, bad)

    def test_mirror_fill_adds_each_upper_x_whose_mirror_is_missing(self):
        rng = random.Random(5)
        for frob in range(1, 70):
            halves = [rng.getrandbits((frob + 1) // 2) | 1 for _ in range(CHUNK + 3)]
            upper = range(frob // 2 + 1, frob)
            expected = [h | sum(1 << x for x in upper if not h >> (frob - x) & 1) for h in halves]
            tops = _halves(frob, halves)[2]
            assert _unpack(tops.members, len(halves), _stride(frob)) == expected
            assert tops.ones == _ones(len(halves), _stride(frob))


class TestNormalize:
    def test_dedupe_and_zero_removal(self):
        assert normalize_genset([4, 9, 4, 0]) == (4, 9)

    def test_zero_only_normalizes_to_empty(self):
        assert normalize_genset([0]) == ()

    def test_sorting(self):
        assert normalize_genset([9, 4]) == (4, 9)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            normalize_genset([4, -1])


class TestSubmonoid:
    def test_two_generators(self):
        table = Submonoid([4, 9], 14)
        expected = {0, 4, 8, 9, 12, 13}
        assert set(table.elements()) == expected
        assert expected == combination_members((4, 9), 14)

    def test_empty_generators(self):
        assert Submonoid([], 10).elements() == (0,)

    def test_unit_generator(self):
        assert Submonoid([1], 5).elements() == (0, 1, 2, 3, 4, 5)

    def test_membership_out_of_range(self):
        table = Submonoid([4], 10)
        assert -3 not in table
        with pytest.raises(ValueError):
            11 in table

    @settings(max_examples=80, deadline=None)
    @given(
        gens=st.lists(st.integers(min_value=1, max_value=30), min_size=0, max_size=4),
        bound=st.integers(min_value=1, max_value=60),
    )
    def test_table_matches_exhaustive_combinations(self, gens, bound):
        table = Submonoid(gens, bound)
        expected = combination_members(normalize_genset(gens), bound)
        assert set(table.elements()) == expected

    def test_decompose(self):
        table = Submonoid([4, 9], 14)
        assert table.decompose(8) == [(2, 4)]
        assert table.decompose(13) == [(1, 4), (1, 9)]
        assert table.decompose(0) == []
        assert table.decompose(7) is None

    def test_decompose_rendering(self):
        table = Submonoid([4, 9], 14)
        assert errors.format_combination(8, table.decompose(8)) == "8 = 2·4"
        assert errors.format_combination(13, table.decompose(13)) == "13 = 4 + 9"


class TestMinimalGeneratingSet:
    def test_redundant_generators_dropped(self):
        assert minimal_generating_set([4, 6, 8, 9, 10]) == (4, 6, 9)

    def test_unit(self):
        assert minimal_generating_set([1, 2]) == (1,)

    def test_already_minimal(self):
        assert minimal_generating_set([2, 13]) == (2, 13)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            minimal_generating_set([0])

    @settings(max_examples=60, deadline=None)
    @given(gens=st.lists(st.integers(min_value=1, max_value=25), min_size=1, max_size=5))
    def test_minimality_and_equivalence(self, gens):
        msg = minimal_generating_set(gens)
        bound = 2 * max(gens)
        full = Submonoid(gens, bound).member_mask()
        assert Submonoid(msg, bound).member_mask() == full
        for m in msg:
            assert Submonoid([g for g in msg if g != m], bound).member_mask() != full


class TestNumericalSemigroup:
    def test_member_mask_below_frobenius(self):
        s = sg([4, 6, 9])  # members 0, 4, 6, 8, 9, 10 below F = 11
        for limit in range(-3, s.frobenius):
            assert s.member_mask(limit) == sum(1 << x for x in (0, 4, 6, 8, 9, 10) if x <= limit)

    def test_canonical_value_semantics(self):
        a = sg([4, 6, 9])
        b = NumericalSemigroup.from_small_elements({0, 4, 6, 8, 9, 10}, 11)
        assert a == b
        assert hash(a) == hash(b)
        assert a != sg([4, 5])

    def test_membership(self):
        s = sg([4, 6, 9])
        assert 0 in s and 10 in s and 12 in s and 1000 in s
        assert 11 not in s and 5 not in s and -2 not in s

    def test_invariants_small(self):
        s = sg([4, 6, 9])
        assert s.frobenius == 11
        assert s.genus == 6
        assert s.gaps() == (1, 2, 3, 5, 7, 11)
        assert s.small_elements() == (0, 4, 6, 8, 9, 10)

    def test_invariants_three_generators(self):
        s = sg([4, 9, 15])
        assert s.gaps() == (1, 2, 3, 5, 6, 7, 10, 11, 14)
        assert s.frobenius == 14
        assert s.genus == 9

    def test_full_semigroup(self):
        assert sg([1]) == FULL_SEMIGROUP
        assert FULL_SEMIGROUP.is_full
        assert FULL_SEMIGROUP.genus == 0
        assert FULL_SEMIGROUP.gaps() == ()
        assert FULL_SEMIGROUP.minimal_generators() == (1,)

    def test_genus_equals_gap_count_everywhere(self):
        for frob in range(1, 9):
            for s in all_semigroups_with_frobenius(frob):
                assert s.genus == len(s.gaps())
                assert max(s.gaps()) == s.frobenius

    def test_from_generators_gcd_check(self):
        with pytest.raises(ValueError):
            sg([4, 6])
        with pytest.raises(ValueError):
            sg([])

    def test_from_generators_large_gap(self):
        assert sg([2, 13]).frobenius == 11
        assert sg([2, 13]).gaps() == (1, 3, 5, 7, 9, 11)

    def test_minimal_generators(self):
        assert sg([4, 6, 9]).minimal_generators() == (4, 6, 9)
        assert sg([4, 13, 14, 15]).minimal_generators() == (4, 13, 14, 15)

    def test_minimal_generators_match_full_window_on_oracle(self):
        for frob in range(1, 15):
            for s in all_semigroups_with_frobenius(frob):
                assert uncached(s).minimal_generators() == full_window_minimal_generators(s)

    @pytest.mark.parametrize("required", [(), (7,), (9, 11)])
    def test_minimal_generators_match_full_window_on_irreducibles(self, required):
        for frob in range(1, 61):
            try:
                family = enumerate_irreducibles(required, frob)
            except errors.Infeasible:
                continue
            for s in family:
                assert uncached(s).minimal_generators() == full_window_minimal_generators(s)

    def test_minimal_generators_at_the_window_edge(self):
        # <F+1, ..., 2F+1>: the multiplicity is F + 1 and the largest
        # generator is exactly F + m.
        for frob in range(1, 40):
            s = NumericalSemigroup(frob, 1)
            expected = tuple(range(frob + 1, 2 * frob + 2))
            assert s.minimal_generators() == expected == full_window_minimal_generators(s)
        assert uncached(FULL_SEMIGROUP).minimal_generators() == (1,)
        assert full_window_minimal_generators(FULL_SEMIGROUP) == (1,)

    def test_gaps_and_small_elements_match_the_definition(self):
        for frob in range(0, 13):
            pool = all_semigroups_with_frobenius(frob) if frob else [FULL_SEMIGROUP]
            for s in pool:
                assert s.gaps() == tuple(x for x in range(1, frob + 1) if x not in s)
                assert s.small_elements() == tuple(x for x in range(frob + 1) if x in s)

    def test_from_small_elements_validates_closure(self):
        with pytest.raises(errors.ClosureViolation) as info:
            NumericalSemigroup.from_small_elements({0, 2}, 4)
        assert (info.value.x, info.value.y) == (2, 2)

    def test_from_small_elements_rejects_frobenius_member(self):
        with pytest.raises(errors.FrobeniusPresent):
            NumericalSemigroup.from_small_elements({0, 4}, 4)

    def test_from_small_elements_smallest_nontrivial(self):
        s = NumericalSemigroup.from_small_elements({0}, 1)
        assert s == sg([2, 3])

    def test_from_small_elements_requires_zero(self):
        with pytest.raises(ValueError):
            NumericalSemigroup.from_small_elements({4}, 11)

    def test_from_mask_accepts_exactly_the_closed_bitmaps(self):
        def first_violation(mask, frob):
            # Reference closure scan over the full window [1, F].
            full = (1 << (frob + 1)) - 1
            for x in range(1, frob + 1):
                if mask >> x & 1:
                    bad = (mask << x) & full & ~mask
                    if bad:
                        y = (bad & -bad).bit_length() - 1 - x
                        return min(x, y), max(x, y)
            return None

        assert NumericalSemigroup.from_mask(0, 1) == FULL_SEMIGROUP
        for frob in range(1, 11):
            accepted = []
            for mask in range(1, 1 << frob, 2):
                pair = first_violation(mask, frob)
                if pair is None:
                    accepted.append(NumericalSemigroup.from_mask(frob, mask))
                    assert accepted[-1].member_mask() == mask
                else:
                    with pytest.raises(errors.ClosureViolation) as info:
                        NumericalSemigroup.from_mask(frob, mask)
                    assert (info.value.x, info.value.y) == pair
            assert set(accepted) == set(all_semigroups_with_frobenius(frob))

    def test_from_mask_matches_the_two_scans_on_every_bitmap(self):
        assert fused_from_mask(0, 1) == two_scan_from_mask(0, 1) == ("generators", (1,))
        closed = 0
        for frob in range(1, 13):
            for mask in range(1, 1 << frob, 2):
                got = fused_from_mask(frob, mask)
                assert got == two_scan_from_mask(frob, mask), (frob, mask)
                closed += got[0] == "generators"
        assert closed == sum(len(all_semigroups_with_frobenius(f)) for f in range(1, 13))

    @pytest.mark.parametrize("required", [(), (7,), (9, 11)])
    def test_from_mask_matches_the_two_scans_on_irreducibles(self, required):
        for frob in range(1, 61):
            try:
                family = enumerate_irreducibles(required, frob)
            except errors.Infeasible:
                continue
            for s in family:
                mask = s.member_mask()
                assert fused_from_mask(frob, mask) == two_scan_from_mask(frob, mask), s

    def test_from_mask_caches_the_generators(self):
        s = NumericalSemigroup.from_mask(11, sg([4, 6, 9]).member_mask())
        assert s._msg == (4, 6, 9)

    def test_bit_positions_match_the_lowest_bit_loop(self):
        masks = [0, 1] + [1 << k for k in range(421)]
        rng = random.Random(20221)
        masks += [rng.getrandbits(rng.randint(1, 420)) for _ in range(200)]
        for mask in masks:
            assert list(_bit_positions(mask)) == low_bit_positions(mask), mask

    def test_from_mask_rejects_malformed_bitmaps(self):
        with pytest.raises(ValueError):
            NumericalSemigroup.from_mask(11, 1 << 4)
        with pytest.raises(errors.FrobeniusPresent):
            NumericalSemigroup.from_mask(4, 1 | 1 << 4)
        with pytest.raises(ValueError):
            NumericalSemigroup.from_mask(4, 1 | 1 << 5)

    def test_exchange_validates_positions(self):
        s = sg([4, 6, 9])
        assert s.exchange(6, 5) == sg([4, 5])
        with pytest.raises(ValueError):
            s.exchange(5, 6)
        with pytest.raises(ValueError):
            s.exchange(6, 8)

    def test_issubset(self):
        assert sg([4, 6, 9]).issubset(sg([2, 13])) is False
        assert sg([4, 13, 14, 15]).issubset(sg([4, 6, 9]))
        assert sg([4, 6, 9]).issubset(FULL_SEMIGROUP)


class TestApery:
    def test_small_modulus(self):
        assert apery(sg([4, 6, 9]), 4) == frozenset({0, 9, 6, 15})

    def test_large_modulus(self):
        assert apery(sg([4, 6, 9]), 15) == frozenset(
            {0, 16, 17, 18, 4, 20, 6, 22, 8, 9, 10, 26, 12, 13, 14}
        )

    def test_full_semigroup(self):
        assert apery(FULL_SEMIGROUP, 1) == frozenset({0})

    def test_requires_nonzero_member(self):
        with pytest.raises(errors.NotAMember):
            apery(sg([4, 6, 9]), 5)
        with pytest.raises(errors.NotAMember):
            apery(sg([4, 6, 9]), 0)

    def test_size_is_modulus(self):
        for frob in range(1, 8):
            for s in all_semigroups_with_frobenius(frob):
                for n in list(s.small_elements())[1:] + [frob + 1, frob + 2]:
                    assert len(apery(s, n)) == n

    def test_matches_residue_scan(self):
        """The definition: the least member of each residue class, indexed by residue."""
        for frob in range(1, 10):
            for s in all_semigroups_with_frobenius(frob):
                for n in list(s.small_elements())[1:] + [frob + 1, frob + 2]:
                    least = []
                    for i in range(n):
                        x = i
                        while x not in s:
                            x += n
                        least.append(x)
                    assert apery(s, n) == frozenset(least)
                    if n >= 2:
                        assert apery_vector(s, n).coords == tuple(least[1:])


class TestAperyVector:
    def test_coordinates(self):
        assert apery_vector(sg([4, 5]), 15).coords == (
            16, 17, 18, 4, 5, 21, 22, 8, 9, 10, 26, 12, 13, 14,
        )
        assert apery_vector(sg([4, 9, 11]), 15).coords == (
            16, 17, 18, 4, 20, 21, 22, 8, 9, 25, 11, 12, 13, 29,
        )

    def test_full_semigroup(self):
        assert apery_vector(FULL_SEMIGROUP, 2) == AperyVector(2, (1,))

    def test_congruence_validated(self):
        with pytest.raises(ValueError):
            AperyVector(3, (2, 2))
        with pytest.raises(ValueError):
            AperyVector(2, (1, 3))
        with pytest.raises(ValueError):
            AperyVector(1, ())
        with pytest.raises(ValueError):
            AperyVector(3, (4,))
        with pytest.raises(ValueError):
            AperyVector(3, (-2, 2))

    def test_join_and_leq(self):
        a11 = apery_vector(sg([4, 6, 9]), 15)
        a12 = apery_vector(sg([4, 5]), 15)
        a2 = apery_vector(sg([4, 9, 11]), 15)
        joined = (16, 17, 18, 4, 20, 21, 22, 8, 9, 25, 26, 12, 13, 29)
        assert a11.join(a2).coords == joined
        assert a12.join(a2).coords == joined
        assert a11.join(a11) == a11
        assert a11.leq(a11)
        assert not a11.leq(a12) and not a12.leq(a11)

    def test_modulus_mismatch(self):
        with pytest.raises(errors.ModulusMismatch):
            apery_vector(sg([4, 5]), 15).join(apery_vector(sg([4, 5]), 14))
        with pytest.raises(errors.ModulusMismatch):
            apery_vector(sg([4, 5]), 15).leq(apery_vector(sg([4, 5]), 14))


def _frobenius_class():
    ctx = make_context([4], 11)
    return frobenius_class(ctx.root, ctx)


@pytest.mark.parametrize("build, first_field", [
    (lambda: AperyVector(3, (4, 2)), "modulus"),
    (lambda: make_context([4], 11), "required"),
    (_frobenius_class, "top"),
    (lambda: make_problem([4, 9], [11, 14]), "required"),
], ids=["AperyVector", "IrreducibleContext", "FrobeniusClass", "AvoidanceProblem"])
def test_record_types_are_immutable_values(build, first_field):
    x, y = build(), build()
    assert x == y and hash(x) == hash(y)
    assert len({x, y}) == 1
    with pytest.raises(AttributeError):
        setattr(x, first_field, getattr(y, first_field))
    with pytest.raises(AttributeError):
        x.extra = 1
    assert repr(x).startswith(f"{type(x).__name__}({first_field}=")


class TestSemigroupFromAperyVector:
    def test_joined_vector(self):
        v = AperyVector(15, (16, 17, 18, 4, 20, 21, 22, 8, 9, 25, 26, 12, 13, 29))
        assert semigroup_from_apery_vector(v) == sg([4, 9, 15])

    def test_full(self):
        assert semigroup_from_apery_vector(AperyVector(2, (1,))) == FULL_SEMIGROUP

    def test_two_three(self):
        assert semigroup_from_apery_vector(AperyVector(2, (3,))) == sg([2, 3])

    def test_not_in_image(self):
        with pytest.raises(errors.NotInImage):
            semigroup_from_apery_vector(AperyVector(3, (7, 2)))

    def test_round_trip_over_small_families(self):
        for frob in range(1, 9):
            for s in all_semigroups_with_frobenius(frob):
                for n in [x for x in s.small_elements() if 2 <= x] + [frob + 1]:
                    v = apery_vector(s, n)
                    assert semigroup_from_apery_vector(v) == s


class TestIntersect:
    def test_membership_conjunction(self):
        meet = intersect(sg([4, 5]), sg([4, 6, 9]))
        assert meet.small_elements() == (0, 4, 8, 9, 10)
        assert meet.frobenius == 11
        assert meet.minimal_generators() == (4, 9, 10, 15)

    def test_idempotent_and_neutral(self):
        s = sg([4, 6, 9])
        assert intersect(s, s) == s
        assert intersect(s, FULL_SEMIGROUP) == s
        assert intersect(FULL_SEMIGROUP, FULL_SEMIGROUP) == FULL_SEMIGROUP

    def test_frobenius_is_max(self):
        pool = [s for f in range(1, 7) for s in all_semigroups_with_frobenius(f)]
        for s in pool:
            for t in pool:
                meet = intersect(s, t)
                assert meet.frobenius == max(s.frobenius, t.frobenius)

    def test_order_reversal_and_join_law(self):
        pool = all_semigroups_with_frobenius(7)
        n = 8
        for s in pool:
            for t in pool:
                vs, vt = apery_vector(s, n), apery_vector(t, n)
                assert s.issubset(t) == vt.leq(vs)
                assert apery_vector(intersect(s, t), n) == vs.join(vt)


class TestGenSetPredicates:
    def test_contains(self):
        assert contains_genset(sg([4, 6, 9]), [4, 9])
        assert not contains_genset(sg([2, 13]), [4, 9])

    def test_avoids(self):
        assert avoids_genset(sg([4, 6, 9]), [5, 7])
        assert not avoids_genset(sg([4, 6, 9]), [5, 8])
        assert avoids_genset(sg([4, 6, 9]), [])

    def test_contains_empty(self):
        assert contains_genset(sg([2, 13]), [])


def test_gap_key_is_a_strict_total_order():
    pool = [s for f in range(1, 8) for s in all_semigroups_with_frobenius(f)]
    keys = [gap_key(s) for s in pool]
    assert len(set(keys)) == len(pool)

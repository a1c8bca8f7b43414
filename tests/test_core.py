"""Core value types: membership tables, canonical semigroups, Apery machinery."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from numsem import errors
from numsem.core import (
    AperyVector,
    FULL_SEMIGROUP,
    NumericalSemigroup,
    Submonoid,
    _bit_positions,
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
from numsem.irreducible import enumerate_irreducibles
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

"""Maximal avoiders, and the Apery-vector join and Pareto filter kept as reference."""

import functools
import itertools

import pytest

import numsem
from numsem import errors
from numsem.core import (
    AperyVector,
    NumericalSemigroup,
    Submonoid,
    _add_generator,
    _bit_positions,
    _coin_table,
    _halves,
    _ones,
    _stride,
    _unpack,
    apery_vector,
    avoids_genset,
    contains_genset,
    gap_key,
)
from numsem.classes import enumerate_with_frobenius
from numsem.irreducible import _search, enumerate_irreducibles
from numsem.maxavoid import (
    _avoider_chunks,
    _pareto_minimal_coords,
    _witness,
    irreducible_vectors,
    make_problem,
    maximal_avoiding,
    pareto_minimal,
)
from numsem.oracle import all_semigroups_with_frobenius
from search_reference import two_push_search

sg = NumericalSemigroup.from_generators


def brute_maximal_avoiding(required, forbidden):
    """Definition-level reference: inclusion-maximal avoiders.

    Every maximal avoider has Frobenius number max(forbidden): an avoider
    stays an avoider after adding all integers above max(forbidden), so a
    maximal one already contains them.  That keeps the subset scan finite.
    """
    top = max(forbidden)
    family = [
        s
        for s in all_semigroups_with_frobenius(top, required)
        if avoids_genset(s, forbidden)
    ]
    return sorted(
        (
            s
            for s in family
            if not any(s != t and s.issubset(t) for t in family)
        ),
        key=gap_key,
    )


def apery_maximal_avoiding(required, forbidden):
    """Apery-vector reference from the public API: full join product, Pareto front.

    At modulus max(forbidden) + 1 the componentwise max of Apery vectors is
    the vector of the intersection and the componentwise order reverses
    inclusion, so the semigroups of the Pareto-minimal joins are the
    inclusion-maximal intersections.
    """
    modulus = max(forbidden) + 1
    families = [numsem.irreducible_vectors(required, b, modulus) for b in forbidden]
    joined = [
        functools.reduce(numsem.AperyVector.join, combo)
        for combo in itertools.product(*families)
    ]
    return sorted(
        (numsem.semigroup_from_apery_vector(v) for v in numsem.pareto_minimal(joined)),
        key=lambda s: s.gaps(),
    )


def per_leaf_candidates(monoid, t, avoid, bottoms):
    """Reference: the witness test one leaf at a time, as it ran before the packed one.

    For each class bottom, the top is its mirror fill; when the top meets
    the forbidden bitmap avoid, the down-set of X = top & avoid is removed
    and every gap t - d it leaves must generate some forbidden value.
    """
    need = sum(1 << a for a in monoid.generators if a <= t)
    for bottom in bottoms:
        mask = _halves(t, [bottom])[2].members
        hit = mask & avoid
        if hit:
            down = sum(1 << d for d in _bit_positions(mask & ~bottom) if bottom << d & hit)
            mask &= ~down
            if not all(_add_generator(mask, t - d, t) & avoid for d in _bit_positions(down)):
                continue
        assert mask & need == need, mask
        assert not mask & avoid, mask
        yield mask


def reference_masks(required, forbidden):
    """The class bottoms of the query, and the maximal avoiders by the per-leaf test."""
    monoid = _coin_table(required, forbidden)
    t, avoid = max(forbidden), sum(1 << b for b in forbidden)
    bottoms = list(_search(monoid.member_mask(), t, (t - 1) // 2, avoid))
    return bottoms, list(per_leaf_candidates(monoid, t, avoid, bottoms))


def packed_masks(required, forbidden):
    chunks = list(_avoider_chunks(required, forbidden))
    assert all(len(leaves) for leaves in chunks), "an empty chunk"
    assert all(leaves.ones == _ones(len(leaves), leaves.stride) for leaves in chunks)
    return [m for leaves in chunks for m in _unpack(leaves.members, leaves.count, leaves.stride)]


def small_queries():
    """The feasible queries with |A| <= 2 in [2, 12] and |B| <= 3 in [1, 24]: 48,990 of them."""
    for size in (0, 1, 2):
        for required in itertools.combinations(range(2, 13), size):
            monoid = Submonoid(required, 24)
            for size_b in (1, 2, 3):
                for forbidden in itertools.combinations(range(1, 25), size_b):
                    if not any(b in monoid for b in forbidden):
                        yield required, forbidden


class TestPackedWitnessTest:
    def test_matches_the_per_leaf_test_on_small_inputs(self):
        checked = rejected = 0
        for required, forbidden in small_queries():
            bottoms, expected = reference_masks(required, forbidden)
            assert packed_masks(required, forbidden) == expected, (required, forbidden)
            checked += 1
            rejected += len(bottoms) - len(expected)
        assert checked == 48_990 and rejected > 0

    def test_matches_the_per_leaf_test_across_chunks(self):
        bottoms, expected = reference_masks((), (61, 67))
        assert len(bottoms) == 4625
        assert len(list(_avoider_chunks((), (61, 67)))) == 19
        assert packed_masks((), (61, 67)) == expected

    def test_a_chunk_where_every_block_fails(self, monkeypatch):
        required, forbidden = (), (37, 41, 43)
        monoid = _coin_table(required, forbidden)
        avoid = sum(1 << b for b in forbidden)
        bottoms = list(_search(monoid.member_mask(), 43, 21, avoid))
        failing = [b for b in bottoms if not list(per_leaf_candidates(monoid, 43, avoid, [b]))]
        assert 0 < len(failing) < len(bottoms)
        monkeypatch.setattr(numsem.maxavoid, "_search", lambda *args: iter(failing))
        assert list(_avoider_chunks(required, forbidden)) == []
        # Its witness test keeps no block, and the bit-0 mask is cut to none.
        packed, mirror, tops = _halves(43, failing)
        kept = _witness(forbidden, packed, mirror, tops)
        assert (len(kept), kept.members, kept.ones) == (0, 0, _ones(0, tops.stride))
        # The failing blocks around one that passes.
        mixed = failing[:3] + [b for b in bottoms if b not in failing][:1] + failing[3:6]
        monkeypatch.setattr(numsem.maxavoid, "_search", lambda *args: iter(mixed))
        assert packed_masks(required, forbidden) == list(
            per_leaf_candidates(monoid, 43, avoid, mixed))


class TestReadBelowHalf:
    """The consumers of a class bottom read its bits below t/2 only.

    A bit x above t/2 of a bottom is in its mirror fill anyway, since
    t - x would put t in the bottom, and the witness test reads bits
    b - d < t/2.  So a bottom cleared above (t - 1) // 2, as the free
    tails of irreducible._search leave it unclosed there, gives the same
    tops, the same kept candidates at the query's stride, and the same
    per-leaf candidates as the closed one, which the reference search
    gives.
    """

    @staticmethod
    def check(required, forbidden, monkeypatch):
        monoid = _coin_table(required, forbidden)
        t, avoid = max(forbidden), sum(1 << b for b in forbidden)
        closed = list(two_push_search(monoid.member_mask(), t, (t - 1) // 2, avoid))
        cleared = [bottom & ((2 << (t - 1) // 2) - 1) for bottom in closed]
        assert _halves(t, cleared)[2].members == _halves(t, closed)[2].members
        expected = list(per_leaf_candidates(monoid, t, avoid, closed))
        assert list(per_leaf_candidates(monoid, t, avoid, cleared)) == expected
        for bottoms in (closed, cleared):
            monkeypatch.setattr(numsem.maxavoid, "_search", lambda *args: iter(bottoms))
            assert packed_masks(required, forbidden) == expected, (required, forbidden)
        return sum(a != b for a, b in zip(closed, cleared))

    def test_on_small_inputs(self, monkeypatch):
        assert sum(self.check(*query, monkeypatch) for query in small_queries()) > 0

    def test_across_chunks(self, monkeypatch):
        assert self.check((), (61, 67), monkeypatch) > 0


class TestStrideFloor:
    """A chunk that may reach the witness test is packed at stride > 2t, however small min(A) is.

    The witness test shifts the reflection of the bottoms, which hold
    the multiples of A up to t, by stride - 1 - b: below 2t + 1 bits
    that pulls bits of the next block into [0, t].
    """

    def test_small_multiplicities_match_the_per_leaf_test(self):
        checked = floored = 0
        for a in range(6, 10):
            for t in (46, 62, 88):
                for low in range(5, 20, 3):
                    for b in range(t - 24, t, 6):
                        required, forbidden = (a,), (low, b, t)
                        if any(x in Submonoid(required, t) for x in forbidden):
                            continue
                        strides = {c.stride for c in _avoider_chunks(required, forbidden)}
                        floored += strides == {(2 * t + 8) // 8 * 8} and _stride(t, a) < 2 * t + 1
                        expected = reference_masks(required, forbidden)[1]
                        assert packed_masks(required, forbidden) == expected, forbidden
                        checked += 1
        assert checked == 180 and floored > 100


class TestMakeProblem:
    def test_modulus(self):
        problem = make_problem([4, 9], [11, 14])
        assert problem.modulus == 15
        assert problem.forbidden == (11, 14)

    def test_witness(self):
        with pytest.raises(errors.Infeasible) as info:
            make_problem([4, 9], [11, 13])
        assert info.value.value == 13

    def test_empty_forbidden_rejected(self):
        with pytest.raises(ValueError):
            make_problem([4], [])


class TestIrreducibleVectors:
    def test_lower_forbidden_value(self):
        vectors = irreducible_vectors([4, 9], 11, 15)
        assert [v.coords for v in vectors] == [
            (16, 17, 18, 4, 20, 6, 22, 8, 9, 10, 26, 12, 13, 14),
            (16, 17, 18, 4, 5, 21, 22, 8, 9, 10, 26, 12, 13, 14),
        ]

    def test_higher_forbidden_value(self):
        vectors = irreducible_vectors([4, 9], 14, 15)
        assert [v.coords for v in vectors] == [
            (16, 17, 18, 4, 20, 21, 22, 8, 9, 25, 11, 12, 13, 29)
        ]

    def test_trivial_problem(self):
        assert irreducible_vectors([], 1, 2) == [AperyVector(2, (3,))]

    def test_modulus_must_exceed_value(self):
        with pytest.raises(ValueError):
            irreducible_vectors([], 5, 5)


class TestParetoMinimal:
    def test_singleton(self):
        v = apery_vector(sg([4, 9, 15]), 15)
        assert pareto_minimal([v]) == [v]

    def test_dominated_tuple_dropped(self):
        assert _pareto_minimal_coords([(1, 4), (2, 3), (2, 4)]) == [(1, 4), (2, 3)]

    def test_duplicates_collapse(self):
        assert _pareto_minimal_coords([(2, 3), (2, 3)]) == [(2, 3)]

    def test_incomparable_vectors_survive(self):
        a12 = apery_vector(sg([4, 5]), 15)
        a11 = apery_vector(sg([4, 6, 9]), 15)
        front = pareto_minimal([a11, a12])
        assert set(front) == {a11, a12}

    def test_modulus_mismatch(self):
        with pytest.raises(errors.ModulusMismatch):
            pareto_minimal([apery_vector(sg([4, 5]), 15), apery_vector(sg([4, 5]), 14)])

    def test_results_pairwise_incomparable(self):
        vectors = irreducible_vectors([], 7, 10)
        front = pareto_minimal(vectors)
        for v in front:
            for w in front:
                if v != w:
                    assert not v.leq(w)


class TestMaximalAvoiding:
    def test_two_forbidden_values(self):
        assert maximal_avoiding([4, 9], [11, 14]) == [sg([4, 9, 15])]

    def test_single_forbidden_value(self):
        assert maximal_avoiding([], [4]) == [sg([3, 5, 7])]

    def test_required_two(self):
        assert maximal_avoiding([2], [3]) == [sg([2, 5])]

    def test_infeasible(self):
        with pytest.raises(errors.Infeasible):
            maximal_avoiding([4, 9], [13])

    def test_soundness(self):
        for required, forbidden in [([], [6, 9]), ([3], [7, 11]), ([4], [6, 11])]:
            for s in maximal_avoiding(required, forbidden):
                assert contains_genset(s, required)
                assert avoids_genset(s, forbidden)
                assert s.frobenius == max(forbidden)

    def test_outputs_pairwise_incomparable(self):
        result = maximal_avoiding([], [6, 9])
        for s in result:
            for t in result:
                if s != t:
                    assert not s.issubset(t)

    def test_single_value_matches_irreducibles(self):
        for required in [(), (3,), (4,), (2, 5)]:
            for b in range(1, 12):
                if b in Submonoid(required, b):
                    continue
                assert maximal_avoiding(required, [b]) == enumerate_irreducibles(
                    required, b
                )

    def test_matches_bruteforce(self):
        grid = [
            ([], [5, 7]),
            ([], [6, 9]),
            ([], [4, 11]),
            ([3], [7, 11]),
            ([4], [6, 11]),
            ([4, 9], [11, 14]),
            ([5], [8, 12]),
        ]
        for required, forbidden in grid:
            assert maximal_avoiding(required, forbidden) == brute_maximal_avoiding(
                required, forbidden
            )

    def test_three_forbidden_values(self):
        result = maximal_avoiding([], [5, 7, 9])
        assert result == brute_maximal_avoiding([], [5, 7, 9])

    @pytest.mark.parametrize("required", [(), (3,), (4,), (5, 7)])
    def test_matches_apery_reference(self, required):
        checked = 0
        for size in (2, 3):
            for forbidden in itertools.combinations(range(1, 21), size):
                try:
                    expected = apery_maximal_avoiding(required, forbidden)
                except errors.Infeasible:
                    with pytest.raises(errors.Infeasible):
                        maximal_avoiding(required, forbidden)
                    continue
                assert maximal_avoiding(required, forbidden) == expected, forbidden
                checked += 1
        assert checked > 0

    def test_one_coin_table_per_query(self, monkeypatch):
        calls = []
        init = Submonoid.__init__
        monkeypatch.setattr(
            Submonoid, "__init__",
            lambda self, gens, bound: calls.append((tuple(gens), bound)) or init(self, gens, bound),
        )
        assert len(maximal_avoiding([4, 9], [11, 14])) == 1
        assert calls == [((4, 9), 14)]
        for query in (enumerate_irreducibles, enumerate_with_frobenius):
            calls.clear()
            assert query([4, 9], 14)
            assert calls == [((4, 9), 14)]

    def test_asserts_catch_a_result_that_meets_the_forbidden_set(self, monkeypatch):
        # The bottom {0, 5} meets B; its mirror fill {0, 4, 5, 6} is closed.
        monkeypatch.setattr(numsem.maxavoid, "_search", lambda *args: iter([1 | 1 << 5]))
        with pytest.raises(AssertionError):
            maximal_avoiding([], [5, 7])

    def test_asserts_catch_a_result_that_misses_the_required_set(self, monkeypatch):
        # The bottom {0} misses A; its mirror fill {0, 4, 5, 6} avoids B.  Its multiplicity 4
        # passes the stride of the bound min(A) = 3, so the scan's stride check fires first.
        monkeypatch.setattr(numsem.maxavoid, "_search", lambda *args: iter([1]))
        with pytest.raises(AssertionError):
            maximal_avoiding([3], [7])

    def test_asserts_catch_a_result_that_misses_the_required_set_at_its_stride(self, monkeypatch):
        # The bottom {0, 2, 4} misses A; its mirror fill <2, 13> avoids B, and its
        # multiplicity 2 fits the stride of the bound min(A) = 5, so only the
        # contains-A check can refuse it.  The message is the packed tops.
        monkeypatch.setattr(numsem.maxavoid, "_search", lambda *args: iter([1 | 1 << 2 | 1 << 4]))
        with pytest.raises(AssertionError, match=f"^{sum(1 << x for x in (0, 2, 4, 6, 8, 10))}$"):
            maximal_avoiding([5], [11])

    @pytest.mark.parametrize(
        "forbidden, count",
        [((41, 43), 177), ((51, 53), 410), ((37, 41, 43), 100), ((33, 35, 37, 39), 20)],
    )
    def test_scale_certificates(self, forbidden, count):
        """Far past the brute-force grid, checked in polynomial time."""
        top = max(forbidden)
        result = maximal_avoiding([], forbidden)
        assert len(result) == count
        for s in result:
            assert s.frobenius == top
            assert avoids_genset(s, forbidden)
        masks = [s.member_mask() for s in result]
        for m in masks:
            for k in masks:
                assert m == k or m & ~k, "comparable results"
        for s in result:
            for g in s.gaps():
                grown = Submonoid(s.minimal_generators() + (g,), top)
                assert any(b in grown for b in forbidden), (s, g)

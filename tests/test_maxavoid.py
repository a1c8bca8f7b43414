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
    apery_vector,
    avoids_genset,
    contains_genset,
    gap_key,
)
from numsem.irreducible import enumerate_irreducibles
from numsem.maxavoid import (
    _pareto_minimal_coords,
    irreducible_vectors,
    make_problem,
    maximal_avoiding,
    pareto_minimal,
)
from numsem.oracle import all_semigroups_with_frobenius

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
            Submonoid, "__init__", lambda self, *args: calls.append(args) or init(self, *args)
        )
        assert len(maximal_avoiding([4, 9], [11, 14])) == 1
        assert calls == [((4, 9), 14)]

    def test_asserts_catch_a_result_that_meets_the_forbidden_set(self, monkeypatch):
        # The bottom {0, 5} meets B; its mirror fill {0, 4, 5, 6} is closed.
        monkeypatch.setattr(numsem.maxavoid, "_search", lambda *args: iter([1 | 1 << 5]))
        with pytest.raises(AssertionError):
            maximal_avoiding([], [5, 7])

    def test_asserts_catch_a_result_that_misses_the_required_set(self, monkeypatch):
        # The bottom {0} misses A; its mirror fill {0, 4, 5, 6} avoids B.
        monkeypatch.setattr(numsem.maxavoid, "_search", lambda *args: iter([1]))
        with pytest.raises(AssertionError):
            maximal_avoiding([3], [7])

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

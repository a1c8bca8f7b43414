"""Maximal numerical semigroups containing a required set and avoiding a
forbidden set.

For a single forbidden value b, the maximal avoiders are exactly the
irreducible semigroups with Frobenius number b containing the required
set.  For several forbidden values, every avoider is an intersection of
single-value avoiders, so the maximal avoiders are the inclusion-maximal
intersections that take one irreducible per forbidden value.

Every family member contains all integers above t = max(forbidden), so
on the window [0, t] a member is its membership bitmap, intersection is
bitwise AND and inclusion is a subset test on bitmaps.  A maximal
avoider misses t and contains everything above it, so its Frobenius
number is t and its bitmap on [0, t] is its canonical encoding.  The
same pipeline reads, in Apery-vector space at modulus t + 1, as
componentwise maxima of vectors followed by a Pareto-minimal filter: the
componentwise order on Apery vectors reverses inclusion, and the
componentwise max is the vector of the intersection.

The AND product over the per-value families can blow up, so it is
streamed one family at a time, keeping only the inclusion-maximal partial
intersections: if p is a subset of q then p AND e is a subset of q AND e
for every later choice e, so dropping p loses no maximal element.  A
hard cap on the nominal product size fails loudly before any expansion
starts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import errors
from .core import (
    AperyVector,
    NumericalSemigroup,
    Submonoid,
    apery_vector,
    avoids_genset,
    contains_genset,
    gap_rank,
    normalize_genset,
    semigroup_from_apery_vector,  # noqa: F401  bench/tracer.py wraps it in this namespace
)
from .irreducible import enumerate_irreducibles

MAX_JOIN_PRODUCT = 10**7


@dataclass(frozen=True)
class AvoidanceProblem:
    """A feasible (required, forbidden) instance and its working modulus."""

    required: tuple[int, ...]
    forbidden: tuple[int, ...]
    modulus: int


def make_problem(required, forbidden) -> AvoidanceProblem:
    """Normalize and validate; Infeasible carries the witness combination."""
    required = normalize_genset(required)
    forbidden = normalize_genset(forbidden)
    if not forbidden:
        raise ValueError("the forbidden set must contain a positive integer")
    monoid = Submonoid(required, forbidden[-1])
    for b in forbidden:
        if b in monoid:
            raise errors.Infeasible(b, monoid.decompose(b))
    return AvoidanceProblem(required, forbidden, forbidden[-1] + 1)


def irreducible_vectors(required, forbidden_value: int, modulus: int) -> list[AperyVector]:
    """Apery vectors, at the given modulus, of the maximal avoiders of one value."""
    if modulus <= forbidden_value:
        raise ValueError("the modulus must exceed the forbidden value")
    return [
        apery_vector(s, modulus)
        for s in enumerate_irreducibles(required, forbidden_value)
    ]


def _pareto_minimal_coords(vectors: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Keep v iff no other distinct tuple is componentwise <= v.

    Plain quadratic filter; the fronts involved here stay small.
    """
    unique = sorted(set(vectors))
    return [
        v
        for v in unique
        if not any(u != v and all(a <= b for a, b in zip(u, v)) for u in unique)
    ]


def pareto_minimal(vectors) -> list[AperyVector]:
    """Vectors minimal under the componentwise order; pairwise incomparable."""
    vectors = list(vectors)
    if not vectors:
        return []
    modulus = vectors[0].modulus
    if any(v.modulus != modulus for v in vectors):
        raise errors.ModulusMismatch("minimality needs a single modulus")
    keep = _pareto_minimal_coords([v.coords for v in vectors])
    return [AperyVector(modulus, c) for c in keep]


def _inclusion_maximal(masks) -> list[int]:
    """The distinct bitmaps that no other bitmap in the collection contains.

    A proper superset has strictly more bits, so after a descending sort
    by bit count every bitmap that could contain m is already kept or
    itself contained in a kept one; m stays iff no kept k covers it.
    """
    kept: list[int] = []
    for m in sorted(set(masks), key=int.bit_count, reverse=True):
        if all(m & ~k for k in kept):
            kept.append(m)
    return kept


def maximal_avoiding(required, forbidden, *, workers: int = 1) -> list[NumericalSemigroup]:
    """All maximal semigroups containing the required set and avoiding the forbidden one.

    Raises Infeasible when a forbidden value is generated by the required
    set, and CapacityExceeded when the nominal join product is too large.
    Output is sorted by gap list: every result has Frobenius number
    max(forbidden), so the integer key gap_rank gives that order.  Every
    returned semigroup is rebuilt from its bitmap through the
    closure-checked constructor.  ``workers`` is accepted as a
    worker-budget hint and has no effect.
    """
    problem = make_problem(required, forbidden)
    top = problem.forbidden[-1]
    families = [
        [
            s.member_mask(top)
            for s in enumerate_irreducibles(problem.required, b)
        ]
        for b in problem.forbidden
    ]
    if math.prod(len(f) for f in families) > MAX_JOIN_PRODUCT:
        raise errors.CapacityExceeded(
            f"join product exceeds {MAX_JOIN_PRODUCT} combinations"
        )
    # Irreducibles sharing a Frobenius number are pairwise incomparable,
    # so the first family needs no filter.
    front = families[0]
    for family in families[1:]:
        front = _inclusion_maximal(p & e for p in front for e in family)
    result = [NumericalSemigroup.from_mask(top, m) for m in front]
    for s in result:
        assert contains_genset(s, problem.required), s
        assert avoids_genset(s, problem.forbidden), s
    return sorted(result, key=gap_rank)

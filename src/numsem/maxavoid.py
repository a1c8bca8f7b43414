"""Maximal numerical semigroups containing a required set and avoiding a
forbidden set.

Let t = max(forbidden).  An avoider stays one when every integer above t
is added, so a maximal avoider has Frobenius number t.  It therefore lies
in exactly one class [bottom, top] of an irreducible top with Frobenius
number t (see :mod:`numsem.classes`), whose members are bottom | T for
the up-sets T of D = top \\ bottom, ordered by d <= e iff e - d is in
bottom.  Such a member avoids the forbidden set B iff bottom does and T
misses X = B & D, that is, iff T lies in D minus the down-set

    down(X) = {d in D : x - d in bottom for some x in X}.

So each class holds one largest avoider, bottom | (D \\ down(X)), which
is the top itself when the top avoids B, and every maximal avoider is
the candidate of its class.  The class bottom is generated by A and the
members below t/2, so it is a leaf of the prefix search of
:mod:`numsem.irreducible` over the positions below t/2, and its top is
the mirror fill of it.  No class whose bottom meets B has a candidate,
and a bottom only grows along a search path, so the search drops a
member branch as soon as it meets B.  One search yields every candidate.

A candidate S is maximal iff adding any gap g generates some b in B,
that is, iff the monoid <S, g> meets B.  Every b is at most t, and
<S, g> on [0, t] is S + Ng, the closure step of the search, so the test
is one shift-or doubling and one AND with B.  Only the gaps t - d for
removed d (d in down(X)) need the test:
  * a removed d has x - d in bottom for some x in X, so adding d
    generates x;
  * any other gap g != t/2 is a gap of the irreducible top, so t - g is
    in top, and it stays in S unless it was removed: adding g generates t;
  * adding g = t/2 generates t = 2g.

A candidate agrees with its bottom below t/2, where distinct bottoms
differ, so the candidates come in gap order by construction.

Apery vectors at modulus t + 1 give an independent reference: the
componentwise order reverses inclusion and the componentwise max is the
vector of the intersection, so the maximal avoiders are the semigroups of
the Pareto-minimal joins of one irreducible vector per forbidden value.
The tests compare against that form.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import errors
from .core import (
    AperyVector,
    NumericalSemigroup,
    _add_generator,
    _batches,
    _bit_positions,
    _coin_table,
    _leaf_chunks,
    _pack,
    _stride,
    _unpack,
    apery_vector,
    normalize_genset,
    semigroup_from_apery_vector,  # noqa: F401  bench/tracer.py wraps it in this namespace
)
from .irreducible import _search, enumerate_irreducibles


@dataclass(frozen=True)
class AvoidanceProblem:
    """A feasible (required, forbidden) instance and its working modulus."""

    required: tuple[int, ...]
    forbidden: tuple[int, ...]
    modulus: int


def _forbidden(raw) -> tuple[int, ...]:
    """The normalized forbidden set; ValueError when it holds no positive integer."""
    forbidden = normalize_genset(raw)
    if not forbidden:
        raise ValueError("the forbidden set must contain a positive integer")
    return forbidden


def make_problem(required, forbidden) -> AvoidanceProblem:
    """Normalize and validate; Infeasible carries the witness combination."""
    forbidden = _forbidden(forbidden)
    monoid = _coin_table(required, forbidden)
    return AvoidanceProblem(monoid.generators, forbidden, forbidden[-1] + 1)


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


def maximal_avoiding(required, forbidden) -> list[NumericalSemigroup]:
    """All maximal semigroups containing the required set and avoiding the forbidden one.

    The bitmaps of _avoider_masks, checked a chunk at a time as
    from_mask checks one bitmap, with their minimal generators cached;
    callers need not validate them again.  Raises Infeasible when a
    forbidden value is generated by the required set.  Output is sorted
    by gap list.
    """
    t, masks = _avoider_masks(required, forbidden)
    return [s for leaves in _leaf_chunks(t, masks) for s in leaves.semigroups()]


def _avoider_masks(required, forbidden):
    """t = max(forbidden), and an iterator over the member bitmaps of the maximal avoiders.

    One candidate per class bottom, a leaf of the prefix search with
    Frobenius number t that avoids the forbidden set, kept when, for
    every gap t - d left by a removed d, the monoid generated by it and
    the candidate meets the forbidden set (see the module docstring for
    why no other gap needs the test).  Feasibility is checked at the
    call, not on the first bitmap.  The bitmaps come in gap order.
    """
    forbidden = _forbidden(forbidden)
    monoid = _coin_table(required, forbidden)
    t = forbidden[-1]
    return t, _candidates(monoid, t, sum(1 << b for b in forbidden))


def _candidates(monoid, t: int, avoid: int):
    """The maximal avoiders of the bitmap avoid on [0, t] over the monoid (see _avoider_masks).

    The class tops, the mirror fills of the bottoms, are filled a chunk at a time.
    """
    need = sum(1 << a for a in monoid.generators if a <= t)
    for bottoms in _batches(_search(monoid.member_mask(), t, (t - 1) // 2, avoid)):
        tops = _unpack(_pack(t, bottoms, fill=True), len(bottoms), _stride(t))
        for bottom, mask in zip(bottoms, tops):
            hit = mask & avoid  # X = B & D, since bottom avoids B
            if hit:
                # the removable d with x - d in bottom for some x in X
                down = sum(1 << d for d in _bit_positions(mask & ~bottom) if bottom << d & hit)
                mask &= ~down
                # adding the gap t - d must generate some b in B
                if not all(_add_generator(mask, t - d, t) & avoid for d in _bit_positions(down)):
                    continue
            # contains_genset and avoids_genset, on the bitmap
            assert mask & need == need, mask
            assert not mask & avoid, mask
            yield mask

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
Only the bottom's members below t/2 are read, so the search may leave a
leaf unclosed above t/2, as its free tails do (see irreducible._search):
a member x above t/2 is in the fill anyway, since t - x in the bottom
would put t there, and the witness test reads b - d < t/2 (see
_witness).

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

The bottoms are packed CHUNK at a time, one block each, with their
reflection and their mirror-filled tops (see core._halves), which carry
the chunk's bit-0 mask.  core packs them at the block width that _chunks
picks from the query (see core._stride); the witness test reads that
width directly, shifting the mirrored chunk by stride - 1 - b, as
cli._render does when it slices the bytes of each block.  When no
top of a chunk meets B, as always for B = {t}, whose maximal avoiders
are the irreducibles with Frobenius number t, the tops go to the chunk
check as they are.  Otherwise down(X) of every block is one shift of
the reflection per b below t, and the witness test runs a column at a
time: for each d that some block removes, one packed doubling by t - d
and an OR of shifts by each b mark the blocks that meet B, and the
blocks that removed d and miss B are dropped (see _witness), which cuts
the bit-0 mask to the blocks kept.

Apery vectors at modulus t + 1 give an independent reference: the
componentwise order reverses inclusion and the componentwise max is the
vector of the intersection, so the maximal avoiders are the semigroups of
the Pareto-minimal joins of one irreducible vector per forbidden value.
The tests compare against that form.
"""

from __future__ import annotations

from collections import namedtuple

from . import errors
from .core import (
    AperyVector,
    NumericalSemigroup,
    _add_generator,
    _batches,
    _bit_positions,
    _check_leaves,
    _coin_table,
    _fold,
    _halves,
    _Leaves,
    _stride,
    apery_vector,
    normalize_genset,
    semigroup_from_apery_vector,  # noqa: F401  bench/tracer.py wraps it in this namespace
)
from .irreducible import _search, enumerate_irreducibles


class AvoidanceProblem(namedtuple("AvoidanceProblem", "required forbidden modulus")):
    """A feasible (required, forbidden) instance and its working modulus.

    required and forbidden are normalized tuples of ints; modulus is
    max(forbidden) + 1.
    """

    __slots__ = ()


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

    The semigroups of the chunks of _avoider_chunks, checked as from_mask
    checks one bitmap, with their minimal generators cached; callers need
    not validate them again.  Raises Infeasible when a forbidden value is
    generated by the required set.  Output is sorted by gap list.
    """
    return [s for leaves in _avoider_chunks(required, forbidden) for s in leaves.semigroups()]


def _avoider_chunks(required, forbidden):
    """The maximal avoiders as checked chunks (see core._check_leaves), in gap order.

    One candidate per class bottom, a leaf of the prefix search with
    Frobenius number t = max(forbidden) that avoids the forbidden set,
    kept when it passes the witness test (see _witness).  A chunk holds
    the survivors of CHUNK bottoms; none is empty.  Feasibility is
    checked at the call, not on the first chunk.
    """
    forbidden = _forbidden(forbidden)
    monoid = _coin_table(required, forbidden)
    return _chunks(monoid, forbidden)


def _chunks(monoid, forbidden: tuple[int, ...]):
    """The generator of _avoider_chunks, over the coin table of the required set.

    A chunk of bottoms is packed once, with the bit-0 mask of its tops,
    at the stride of the query's multiplicity bound (see core._stride).
    When no top meets the forbidden set, the tops are the candidates.  No
    top holds t, and the chunk check tests bit t, so the tops are tested
    for the values below t only, and not at all for a single value.
    """
    t = forbidden[-1]
    avoid = sum(1 << b for b in forbidden)
    below = avoid ^ 1 << t
    need = sum(1 << a for a in monoid.generators if a <= t)
    # The least nonzero member of a candidate is at most min(A).  For an
    # irreducible (B = {t}, t > 2) it is at most x = t // 2 + 1, since x
    # or its mirror t - x is a member.  The witness test needs stride > 2t.
    least = min((*monoid.generators, t // 2 + 1 if not below and t > 2 else t + 1))
    stride = max(_stride(t, least), (2 * t + 8) // 8 * 8 if below else 0)
    for bottoms in _batches(_search(monoid.member_mask(), t, (t - 1) // 2, avoid)):
        packed, mirror, tops = _halves(t, bottoms, stride)
        if below and tops.members & tops.ones * below:
            tops = _witness(forbidden, packed, mirror, tops)
            assert not tops.members & tops.ones * below, tops.members  # avoids_genset, each bitmap
        needed = tops.ones * need
        assert tops.members & needed == needed, tops.members  # contains_genset, each bitmap
        if len(tops):
            yield _check_leaves(tops)


def _witness(forbidden: tuple[int, ...], bottoms: int, mirror: int, tops: _Leaves) -> _Leaves:
    """The candidates of a packed chunk of class bottoms that pass the witness test.

    tops holds the mirror fills of the bottoms, with Frobenius number
    t = max(forbidden).  down(X) for every block at once: b - d is in the
    bottom iff bit d of the reflected bottom (see core._halves) shifted
    right by stride - 1 - b is set.  The OR runs over B, not X = B & D: a
    b outside the top adds no d in D, since the top is closed.  So it
    leaves out t, which no top holds.  The shift brings bits of the next
    block, whose bottom may hold members up to t, down to stride - (t - b)
    and above: outside [0, t] only when the stride exceeds 2t, as _chunks
    makes it.  Then one column per d removed by some block: the
    candidates doubled by t - d, and an OR of their shifts by each b,
    which brings bit b of each block to bit 0, mark the blocks that meet
    B.  A block that removed d and misses B fails, and the chunk drops
    the failed blocks (see core._Leaves.without).

    The bottoms are read below t/2 only, so a bottom left unclosed above
    t/2 (see irreducible._search) gives the same result.  A d of D
    lies above t/2, so b - d < t/2.  And "& ~bottoms" drops no d that
    matters: a member c above t/2 of the closed bottom is outside its
    down-set, since b - c in the bottom would put b there.
    """
    t, count, stride, ones = tops.frobenius, tops.count, tops.stride, tops.ones
    span = ones * ((2 << t) - 1)  # [0, t] in every block
    down = 0
    for b in forbidden[:-1]:
        down |= mirror >> (stride - 1 - b)
    down &= tops.members & ~bottoms
    candidates = _Leaves(t, count, tops.members & ~down, ones, stride)
    failed = 0
    for d in _bit_positions(_fold(down, count, stride)):
        grown = _add_generator(candidates.members, t - d, t, span)
        meets = 0
        for b in forbidden:
            meets |= grown >> b
        failed |= down >> d & ~meets
    failed &= ones
    return candidates.without(failed) if failed else candidates

"""Enumeration of irreducible numerical semigroups with fixed Frobenius number.

An irreducible numerical semigroup is one that is not the intersection of
two strictly larger semigroups; equivalently it is maximal among all
semigroups sharing its Frobenius number, and equivalently its genus equals
ceil((F + 1) / 2).  This module enumerates every irreducible semigroup
with Frobenius number F that contains a required generator set A.

An irreducible S is fixed by its members below F/2: for x != F/2, x is in
S iff F - x is not (Rosales and Garcia-Sanchez, Numerical Semigroups,
2009, ch. 4).  So the enumeration is a prefix search over the positions
x with 2x < F (see _search): it decides them in ascending order, gap
before member, keeping M, the monoid generated by A and the members
chosen so far, as a bitmap on [0, F].  A member branch is taken only
when F stays outside M; the gap branch is always feasible, since later
members are larger and never fill an earlier gap, so every path ends in
a leaf and the search has polynomial delay (the "flashlight" backtrack of
Read and Tarjan, Networks 5, 1975).  Each leaf M becomes an irreducible
by the mirror fill, which adds every x in (F/2, F) with F - x outside M.
Leaves come out in gap order by construction.

Beside M the search carries R, the positions k with b - k in M for some
stop value b: F, or one of the forbidden values of numsem.maxavoid.  The
member k would put b into M, so k is a gap in every leaf below and is
walked past like a member; and a member branch holds a stop value iff
bit 0 of R is set once R has grown with M.

Near F/2 the decisions need not be made.  Let m be the least nonzero
member of M, b2 the highest forbidden value below F, and L = max(F // 3,
b2 // 2, (F - m) // 2).  Positions q in (L, F/2) have 3q > F, 2q > b2
and 2q > F - m, so no three of them reach F, two of them and a nonzero
member of M pass F, and two of them add up to a value strictly between
b2 and F.  So the member q is refused exactly when q is in R, the node's
own, whatever else is chosen there.  Once the next position passes L,
the leaves below are M with each subset of the free positions, those
outside M | R, streamed in gap order without a decision (see _search).
Such a leaf is exact on [0, F/2] but not closed: the sums q + y, 2q and
p + q that its closure would add all pass F/2, and every consumer reads
a leaf below F/2 only, since a member x above F/2 of a class bottom is
in its mirror fill anyway (t - x in the bottom would put t there; see
core._halves and numsem.maxavoid).  L rises to (F - k) // 2 when a
member k below m is pushed, since k becomes the least member.  The pick
(_tail_pick) sets the root's limit: L when the root's range (L, F/2)
holds at least five positions, and the last position below F/2
otherwise, so that no tail starts; below five positions the tails are
too short to pay for their masks.

The same search over all of [1, F) yields every semigroup with Frobenius
number F containing A: the semigroups query.  With F the only stop
value, R is the reflection of M about F, the x <-> F - x symmetry above.
A free position p above both F/2 and F - m adds only p, since 2p and
p + m pass F, and its member branch is refused exactly when p is in R.
So past max(F - m, F // 2) the leaves below a node are M with each
subset of the positions outside M | R, streamed as the half range
streams its tails, and closed.

The same family carries a rooted tree structure, kept as the reference
the tests compare against.  The root is the irreducible closure of
<A> | {F+1, ->}: fill every gap x with 2x > F whose mirror F - x is also
a gap.  Walking away from the root exchanges a minimal generator x in
(F/2, F) for the gap F - x; walking toward it exchanges the least "free"
minimal generator a (below F/2 and outside A) for F - a.  Each exchange
preserves the gap count, hence irreducibility, and the side conditions
below make the two moves mutually inverse, so every family member is
reached exactly once.

A child move at x requires, beyond x being a minimal generator with
F/2 < x < F and x not in A:
  * 2x - F is a gap (otherwise dropping x breaks closure of the result),
  * 3x != 2F and 4x != 3F (the two sporadic closure failures),
  * F - x is smaller than the current free generator (canonical-parent
    rule: it makes the new free generator equal F - x, so the child's
    parent move undoes exactly this exchange).
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import product

from . import errors
from .core import (
    _BIT_REVERSE,
    NumericalSemigroup,
    _bit_positions,
    _coin_table,
    _halves,
)


class IrreducibleContext(namedtuple("IrreducibleContext", "required frobenius monoid root")):
    """Shared data for one (required set, Frobenius number) enumeration problem.

    required is the normalized generator tuple, monoid its Submonoid coin
    table on [0, F], and root the irreducible closure of that table: the
    NumericalSemigroup at the root of the tree walk.
    """

    __slots__ = ()


def is_irreducible(s: NumericalSemigroup) -> bool:
    """Genus test for irreducibility: g(S) == ceil((F + 1) / 2).

    In debug mode the result is cross-checked against the witness
    characterization: S is irreducible iff no gap x with 2x != F has its
    mirror F - x also a gap.
    """
    if s.is_full:
        raise errors.FullSemigroup("irreducibility is undefined for the full semigroup")
    frob = s.frobenius
    result = s.genus == (frob + 2) // 2
    if __debug__:
        witnesses = [x for x in s.gaps() if (frob - x) not in s and 2 * x != frob]
        assert result == (not witnesses), (s, witnesses)
    return result


def irreducible_closure(s: NumericalSemigroup) -> NumericalSemigroup:
    """Fill every gap above F/2 whose mirror is also a gap.

    The result is irreducible with the same Frobenius number, contains s,
    and the map is idempotent.  Closure survives the fills: a new member x
    has 2x > F, so x plus anything nonzero lands above F.
    """
    if s.is_full:
        raise errors.FullSemigroup("the full semigroup has no gaps to fill")
    return NumericalSemigroup(s.frobenius, _halves(s.frobenius, [s.member_mask()])[2].members)


def _tail_floor(mask: int, frobenius: int, avoid: int) -> int:
    """L = max(F // 3, b2 // 2, (F - m) // 2), where the free tails of _search start.

    m is the least nonzero member of mask, and b2 the highest bit of
    avoid below F; a term is dropped when there is no such m or b2.
    """
    nonzero = mask & ~1
    least = (nonzero & -nonzero).bit_length() - 1 if nonzero else frobenius + 1
    below = (avoid & ((1 << frobenius) - 1)).bit_length() - 1
    return max(frobenius // 3, below // 2, (frobenius - least) // 2)


def _tail_pick(mask: int, frobenius: int, last: int, avoid: int) -> int:
    """The root's limit in _search, past which its positions are streamed as free tails.

    A range that reaches F/2 (2 last >= F) takes max(F - m, F // 2), at
    most last, with m the least nonzero member of mask.  A half range
    takes L when (L, last] holds five positions or more, and last
    otherwise: with fewer at the root, the tails are too short to pay
    for their masks.
    """
    if 2 * last >= frobenius:
        nonzero = mask & ~1
        least = (nonzero & -nonzero).bit_length() - 1 if nonzero else frobenius + 1
        return min(max(frobenius - least, frobenius // 2), last)
    # Cheap tests first, so that small queries do not pay for L: (L, last]
    # holds at most last - F // 3 positions, and at most m / 2, so five
    # need no member in 1..9 (the bits of 0x3FE).
    if last - frobenius // 3 >= 5 and not mask & 0x3FE:
        floor = _tail_floor(mask, frobenius, avoid)
        return floor if last - floor >= 5 else last
    return last


def _search(mask: int, frobenius: int, last: int, avoid: int):
    """The bitmaps over mask that miss F and avoid, exact on [0, last], lazily.

    mask must be closed under addition on [0, F] and miss F and avoid,
    whose bits lie in [1, F].  Positions 1, ..., last are decided in
    ascending order, gap before member, so the leaves are distinct on
    [1, last] and come out in gap order by construction.  Adding k closes
    M by shift-or doubling.  Only member branches are pushed: the gap
    branch is walked in place, and since every branch pushed below it is
    popped after it, the order is depth first, gap before member, as if
    both were pushed.

    Each stack entry carries R beside M: bit k of R is set iff b - k is
    in M for some stop value b (F or a bit of avoid).  At the root R is
    the reflection of M about F, ORed with its shifts right by F - b.
    Adding k to M adds every y + jk, so R gains every r - jk: each
    doubling of M by a shift left doubles R by the same shift right.  The
    member branch holds a stop value iff bit 0 of R is set after the
    doubling, and a position in R is a gap in every leaf below, walked
    past like a member.  So no test before the doubling is needed, and
    the free positions of a tail are those outside M | R, with no
    reversal per tail.  A mask that holds a stop value, which the
    contract above excludes, has bit 0 of R set at the root: every member
    branch is refused, and it yields itself, its one leaf.

    Each entry also carries a limit: past it, the positions are not
    decided but streamed as free tails.  _tail_pick sets the root's,
    which is at most last.  A push keeps the limit or raises it to
    (F - k) // 2 on a half range (2 last < F) and F - k otherwise, at
    most last, since min(m, k) is the new least member.  So a limit of
    last stays last, and every position is decided.

    The tail facts, with m the least nonzero member of M.  On a half
    range, let b2 be the highest stop value below F and L = max(F // 3,
    b2 // 2, (F - m) // 2) (see _tail_floor).  A set T of positions in
    (L, last] has 3q > F, 2q > F - m and 2q > b2 for each q in T, so M
    joined with T gains only q and 2q, q + y for y in M, and p + q for p
    in T: no three positions of T reach F, and p + q + y passes F for
    every nonzero y in M.  None of them is a position below last but q
    itself, so T fills no other position.  And 2q and p + q lie strictly
    between b2 and F, so the member branch of q is refused exactly when
    q is in R, whatever else T holds.  The leaf of T is M | T itself, not
    its closure: q + y > (F + m)/2, 2q > 2F/3 and p + q > 2F/3 all pass
    F/2, so a leaf is exact on [0, F/2].  Every consumer reads a
    half-range leaf below F/2 only: the mirror fill (core._halves) has
    every bit above F/2 of the closure, since t - x in the bottom would
    put t there, and the witness test (maxavoid._witness) reads bits
    b - d below t/2.  On a range that reaches F/2, a position p above
    both F/2 and F - m adds only p, since 2p and p + m pass F, and its
    member branch is refused exactly when p is in R; so M | T is closed.
    Either way, once the next undecided position k passes the limit, the
    leaves below the node are M | T for the subsets T of its free
    positions, the positions of [k, last] outside M | R.  Position k
    itself is free.

    The node streams its leaves in gap order: that decides the lowest
    position first, without it before with it.  Position k alone, the
    most common tail, is two leaves inline.  Else the highest eight
    positions make one list of at most 256 leaves, grown from the highest
    position down, its copy with the position following it; each subset
    of the lower positions, in turn and lazily, is joined with that list.
    So a tail costs the list and O(F) of memory, whatever its length.
    """
    full = (2 << frobenius) - 1
    size = frobenius // 8 + 1
    reflected = int.from_bytes(mask.to_bytes(size, "little").translate(_BIT_REVERSE), "big")
    reflected >>= 8 * size - 1 - frobenius  # bit k set iff F - k is in M
    refused, below = reflected, avoid & ~(1 << frobenius)
    while below:
        b = below.bit_length() - 1
        refused |= reflected >> (frobenius - b)
        below ^= 1 << b
    limit = last if refused & 1 else _tail_pick(mask, frobenius, last, avoid)
    shift = 1 if 2 * last < frobenius else 0
    stack = [(mask, refused, 1, limit)]
    while stack:
        mask, refused, k, limit = stack.pop()
        while True:
            free = ~(mask | refused) >> k  # the least position >= k outside M and R
            k += (free & -free).bit_length() - 1
            if k > limit:
                if k > last:
                    yield mask
                    break
                free = ~(mask | refused) & ((2 << last) - (1 << k))
                if not free & (free - 1):  # position k alone
                    yield mask
                    yield mask | free
                    break
                high = [mask]
                while free and len(high) < 256:
                    bit = 1 << (free.bit_length() - 1)
                    free ^= bit
                    high += [h | bit for h in high]
                yield from high
                if free:  # the lower positions, lowest first, each without it before with it
                    lows = product(*[(0, 1 << p) for p in _bit_positions(free)])
                    next(lows)  # the empty subset: high itself
                    for low in lows:
                        base = sum(low)
                        yield from [base | h for h in high]
                break
            # core._add_generator(mask, k, frobenius), inlined, with R doubled alongside.
            member, reach, step = mask, refused, k
            while step <= frobenius:
                member |= (member << step) & full
                reach |= reach >> step
                step *= 2
            if not reach & 1:
                raised = (frobenius - k) >> shift  # min(m, k) is the new least member
                stack.append((member, reach, k + 1, limit if limit >= raised else min(raised, last)))
            k += 1


def make_context(required, frobenius: int) -> IrreducibleContext:
    """Validate feasibility and build the enumeration context.

    The problem is solvable exactly when F is not generated by the
    required set; otherwise Infeasible carries a witness combination.
    """
    if frobenius < 1:
        raise ValueError("the Frobenius number must be positive")
    monoid = _coin_table(required, (frobenius,))
    root = irreducible_closure(NumericalSemigroup(frobenius, monoid.member_mask()))
    return IrreducibleContext(monoid.generators, frobenius, monoid, root)


def root_irreducible(required, frobenius: int) -> NumericalSemigroup:
    """The tree root: irreducible closure of the required monoid plus {F+1, ->}.

    It is the unique family member whose minimal generators below F/2 all
    lie in the required set.
    """
    return make_context(required, frobenius).root


def min_free_generator(s: NumericalSemigroup, ctx: IrreducibleContext) -> int | float:
    """Least minimal generator below F/2 outside the required set, or +inf.

    The +inf case happens exactly at the root.  math.inf keeps the
    comparison F - x < alpha exact for integers of any size.
    """
    frob = ctx.frobenius
    for m in s.minimal_generators():
        if 2 * m >= frob:
            break
        # A minimal generator lies in the required set iff the required
        # elements generate it: it is no sum of two nonzero members.
        if m not in ctx.monoid:
            return m
    return math.inf


def parent(s: NumericalSemigroup, ctx: IrreducibleContext) -> NumericalSemigroup:
    """One step toward the root: exchange the free generator a for the gap F - a."""
    a = min_free_generator(s, ctx)
    if math.isinf(a):
        raise errors.AtRoot("the root has no parent")
    return s.exchange(a, ctx.frobenius - a)


def children(s: NumericalSemigroup, ctx: IrreducibleContext) -> list[NumericalSemigroup]:
    """All family members whose parent step leads back to s, by ascending exchange site."""
    frob = ctx.frobenius
    alpha = min_free_generator(s, ctx)
    out = []
    for x in s.minimal_generators():
        if x >= frob:
            break
        if 2 * x <= frob or x in ctx.monoid:
            continue
        if (2 * x - frob) in s or 3 * x == 2 * frob or 4 * x == 3 * frob:
            continue
        if not frob - x < alpha:
            continue
        out.append(s.exchange(x, frob - x))
    return out


def _expand_levels(required, frobenius: int) -> list[NumericalSemigroup]:
    """Every irreducible of the problem, in gap order, with its minimal generators cached.

    They are the maximal avoiders of the single value F.
    """
    from .maxavoid import _avoider_chunks  # maxavoid imports this module

    if frobenius < 1:
        raise ValueError("the Frobenius number must be positive")
    return [s for leaves in _avoider_chunks(required, (frobenius,)) for s in leaves.semigroups()]


def enumerate_irreducibles(required, frobenius: int) -> list[NumericalSemigroup]:
    """Every irreducible semigroup with Frobenius number F containing the required set.

    Raises Infeasible when F itself is generated by the required set.
    Output is sorted by gap list.
    """
    return _expand_levels(required, frobenius)

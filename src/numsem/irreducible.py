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

Near F/2 the decisions need not be made.  Let m be the least nonzero
member of M, b2 the highest forbidden value below F (the avoid sets of
numsem.maxavoid), and L = max(F // 3, b2 // 2, (F - m) // 2).  Positions
q in (L, F/2) have 3q > F, 2q > b2 and 2q > F - m, so no three of them
reach F, two of them and a nonzero member of M pass F, and two of them
add up to a value strictly between b2 and F.  So the member q is refused
exactly when b - q is in M for some forbidden b (or F): the test against
the node's own M, whatever else is chosen there.  Once the next position
passes L, the leaves below are M with each subset of the free positions,
streamed in gap order without a decision (see _search).  Such a leaf
is exact on [0, F/2] but not closed: the sums q + y, 2q and p + q that
its closure would add all pass F/2, and every consumer reads a leaf
below F/2 only, since a member x above F/2 of a class bottom is in its
mirror fill anyway (t - x in the bottom would put t there; see
core._halves and numsem.maxavoid).  L rises to (F - k) // 2 when a
member k below m is pushed, since k becomes the least member.  The pick
(_tail_pick) sets the root's limit: L when the root's range (L, F/2)
holds at least five positions, and the last position below F/2
otherwise, so that no tail starts; below five positions the tails are
too short to pay for their masks.

The same search over all of [1, F) yields every semigroup with Frobenius
number F containing A.  The semigroups query calls its own loop for that
range (see _full_search), which uses the same reflection: it carries,
beside M, the positions k with F - k in M, which are gaps in every leaf
below, and walks past them.  And with m the least nonzero member of M, a
free position p above both F/2 and F - m adds only p, since 2p and p + m
pass F; so once every free position lies past both, the leaves below are
M with each subset of them, streamed without a further decision.

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
    """The root's limit in _search: L when (L, last] holds five positions or more, else last.

    Only a half range (last < F/2) has free tails.  With fewer than five
    positions at the root, the tails are too short to pay for their
    masks.
    """
    # Cheap tests first, so that small queries do not pay for L: (L, last]
    # holds at most last - F // 3 positions, and at most m / 2, so five
    # need no member in 1..9 (the bits of 0x3FE).
    if 2 * last < frobenius and last - frobenius // 3 >= 5 and not mask & 0x3FE:
        floor = _tail_floor(mask, frobenius, avoid)
        return floor if last - floor >= 5 else last
    return last


def _search(mask: int, frobenius: int, last: int, avoid: int):
    """The bitmaps over mask that miss F and avoid, exact on [0, last], lazily.

    mask must be closed under addition on [0, F] and miss F and avoid,
    whose bits lie in [1, F].  Positions 1, ..., last are decided in
    ascending order, gap before member, so the leaves are distinct on
    [1, last] and come out in gap order by construction.  Adding k closes
    M by shift-or doubling.  The member branch is taken only when the
    closed bitmap misses F and every bit of avoid; the gap branch always
    is, so every path ends in a leaf.  The member branch is refused
    before its doubling when b - k is in M for some stop value b (F or a
    bit of avoid), since M + k then holds b; the test after the doubling
    refuses the rest, where b - jk is in M only for some j >= 2, or M
    itself holds b.  Only member branches are pushed: the gap branch is
    walked in place, and since every branch pushed below it is popped
    after it, the order is depth first, gap before member, as if both
    were pushed.  The full range [1, F) of semigroups has its own loop,
    _full_search.

    Each stack entry carries a limit: past it, the positions are not
    decided but streamed as free tails.  The root's limit is L when
    _tail_pick takes the tails, and last otherwise.  A push keeps the
    limit or raises it to (F - k) // 2, at most last, so a limit of last
    stays last, every position is decided, in any range, and the leaves
    are closed on [0, F].

    The tail fact: let m be the least nonzero member of M, b2 the highest
    stop value below F, and L = max(F // 3, b2 // 2, (F - m) // 2) (see
    _tail_floor).  A set T of positions in (L, last] has 3q > F,
    2q > F - m and 2q > b2 for each q in T, so M joined with T gains only
    q and 2q, q + y for y in M, and p + q for p in T: no three positions
    of T reach F, and p + q + y passes F for every nonzero y in M.  None
    of them is a position below last but q itself, so T fills no other
    position.  And 2q and p + q lie strictly between b2 and F, so the
    member branch of q is refused exactly when b - q is in M for some
    stop value b: by the early test against the node's own M, whatever
    else T holds.  So once the next undecided position passes L, the
    leaves below the node are given by the subsets T of its free
    positions, the positions of [k, last] outside M that pass that test.
    L rises to (F - k) // 2 when a member k below m is pushed, since k
    becomes the least member.

    The leaf of T is M | T itself, not its closure: q + y > (F + m)/2,
    2q > 2F/3 and p + q > 2F/3 all pass F/2, so the closure adds nothing
    on [0, F/2], and a leaf here is exact there.  Every consumer reads a
    half-range leaf below F/2 only: the mirror fill (core._halves) has
    every bit above F/2 of the closure, since t - x in the bottom would
    put t there, and the witness test (maxavoid._witness) reads bits b - d
    below t/2.

    A tail's free positions are one mask on the window [k, last]: the
    positions outside M, less those refused by some stop value b >= k.
    Those are the q with b - q in M, the bits of M on [b - last, b - k]
    read in reverse, which is M << last >> b on the window, bit i for
    q = last - i, on either side of last.  They are ORed over the stop
    values and reversed once, by core._BIT_REVERSE for a window of at
    most eight positions, the common case, and by a reversed binary
    string past that; the string alone is slower on narrow windows.

    The node streams its leaves in gap order, as _full_search streams
    its tails: zero or one free position inline, else the list of the
    highest eight positions, grown from the highest down by h | bit, then
    each subset of the lower positions in turn and lazily, joined with
    that list.  The expander is _full_search's, inlined in both loops,
    since a generator shared by the two costs one call per tail.
    """
    full = (2 << frobenius) - 1
    stop = 1 << frobenius | avoid
    limit = _tail_pick(mask, frobenius, last, avoid)
    stops = tuple(_bit_positions(stop)) if limit < last else ()  # read by the tails only
    stack = [(mask, 1, limit)]
    while stack:
        mask, k, limit = stack.pop()
        while True:
            free = ~mask >> k  # the least position >= k outside M
            k += (free & -free).bit_length() - 1
            if k > limit:
                if k > last:
                    yield mask
                    break
                width, shifted, refused = last - k + 1, mask << last, 0
                window = (1 << width) - 1
                for b in stops:  # bit i is set iff b - (last - i) is in M
                    if b >= k:
                        refused |= shifted >> b
                if width <= 8:
                    refused = _BIT_REVERSE[refused & window] >> (8 - width)
                else:
                    refused = int(f"{refused & window:0{width}b}"[::-1], 2)
                free = (~(mask >> k | refused) & window) << k
                if not free & (free - 1):  # no free position, or one: the most common tails
                    yield mask
                    if free:
                        yield mask | free
                    break
                high = [mask]
                while free and len(high) < 256:
                    bit = 1 << (free.bit_length() - 1)
                    free ^= bit
                    high += [h | bit for h in high]
                yield from high
                if free:  # the lower positions, as in _full_search
                    lows = product(*[(0, 1 << p) for p in _bit_positions(free)])
                    next(lows)  # the empty subset: high itself
                    for low in lows:
                        base = sum(low)
                        yield from [base | h for h in high]
                break
            if not stop >> k & mask:  # else b - k is in M for some b, and M + k holds b
                # core._add_generator(mask, k, frobenius), inlined.
                member, step = mask, k
                while step <= frobenius:
                    member |= (member << step) & full
                    step *= 2
                if not member & stop:
                    raised = (frobenius - k) // 2  # min(m, k) is the new least member
                    stack.append((member, k + 1, limit if limit >= raised else min(raised, last)))
            k += 1


def _full_search(mask: int, frobenius: int):
    """The leaves of _search(mask, F, F - 1, 0), with the decisions whose outcome is known skipped.

    mask must be closed under addition on [0, F] and miss F.  Beside M,
    the loop carries G = {k : F - k in M}, the reflection of M about F
    (the x <-> F - x symmetry of irreducibles, Rosales and
    Garcia-Sanchez, ch. 4).  Adding k to M adds every k + y, so G gains
    every y - k: each doubling of M by a shift left doubles G by the same
    shift right.  The member branch holds F iff bit 0 of G is set after
    the doubling, and a position in G is a forced gap, walked past like a
    member.

    The tail fact: with m the least nonzero member of M, a free position p
    above both F/2 and F - m adds only p, since 2p and p + m pass F.  So
    past limit = max(F - m, F // 2), kept on each stack entry and raised
    when a member below m is pushed, the leaves of a node are M joined
    with every subset of its free positions, which miss G.  The node
    streams them in gap order: that decides the lowest position first,
    without it before with it.  The highest eight positions make one list
    of at most 256 leaves, grown from the highest position down, its copy
    with the position following it; each subset of the lower positions,
    in turn and lazily, is joined with that list.  So a tail costs the
    list and O(F) of memory, whatever its length.
    """
    full = (2 << frobenius) - 1
    grown = int(f"{mask:0{frobenius + 1}b}"[::-1], 2)  # bit k set iff F - k is in M
    nonzero = mask & ~1
    least = (nonzero & -nonzero).bit_length() - 1 if nonzero else frobenius + 1
    stack = [(mask, grown, 1, max(frobenius - least, frobenius // 2))]
    while stack:
        mask, grown, k, limit = stack.pop()
        while True:
            free = ~(mask | grown) >> k  # the least position >= k outside M and G
            k += (free & -free).bit_length() - 1
            if k > limit:
                if k >= frobenius:
                    yield mask
                    break
                free = ~(mask | grown) & ((1 << frobenius) - (1 << k))
                if not free & (free - 1):  # one free position, the most common tail
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
            member, reach, step = mask, grown, k
            while step <= frobenius:
                member |= (member << step) & full
                reach |= reach >> step
                step *= 2
            if not reach & 1:
                raised = frobenius - k  # min(m, k) is the new least member
                stack.append((member, reach, k + 1, limit if limit >= raised else raised))
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

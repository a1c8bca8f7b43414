"""Enumeration of irreducible numerical semigroups with fixed Frobenius number.

An irreducible numerical semigroup is one that is not the intersection of
two strictly larger semigroups; equivalently it is maximal among all
semigroups sharing its Frobenius number, and equivalently its genus equals
ceil((F + 1) / 2).  This module enumerates every irreducible semigroup
with Frobenius number F that contains a required generator set A.

The family carries a rooted tree structure.  The root is the irreducible
closure of <A> | {F+1, ->}: fill every gap x with 2x > F whose mirror
F - x is also a gap.  Walking away from the root exchanges a minimal
generator x in (F/2, F) for the gap F - x; walking toward it exchanges
the least "free" minimal generator a (below F/2 and outside A) for F - a.
Each exchange preserves the gap count, hence irreducibility, and the
side conditions below make the two moves mutually inverse, so every
family member is reached exactly once.

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
from dataclasses import dataclass, field

from . import errors
from .core import NumericalSemigroup, Submonoid, gap_rank, normalize_genset


@dataclass(frozen=True)
class IrreducibleContext:
    """Shared data for one (required set, Frobenius number) enumeration problem."""

    required: tuple[int, ...]
    frobenius: int
    monoid: Submonoid
    root: NumericalSemigroup
    required_set: frozenset[int] = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "required_set", frozenset(self.required))


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
    frob = s.frobenius
    mask = s.member_mask()
    for x in range(frob // 2 + 1, frob):
        if not mask >> x & 1 and (frob - x) not in s:
            mask |= 1 << x
    return NumericalSemigroup(frob, mask)


def make_context(required, frobenius: int) -> IrreducibleContext:
    """Validate feasibility and build the enumeration context.

    The problem is solvable exactly when F is not generated by the
    required set; otherwise Infeasible carries a witness combination.
    """
    gens = normalize_genset(required)
    if frobenius < 1:
        raise ValueError("the Frobenius number must be positive")
    monoid = Submonoid(gens, frobenius)
    if frobenius in monoid:
        raise errors.Infeasible(frobenius, monoid.decompose(frobenius))
    base = NumericalSemigroup(frobenius, monoid.member_mask())
    return IrreducibleContext(gens, frobenius, monoid, irreducible_closure(base))


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
        if m not in ctx.required_set:
            # A minimal generator cannot be a nontrivial combination of
            # required elements, all of which are members.
            assert m not in ctx.monoid, (s, m)
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
        if 2 * x <= frob or x in ctx.required_set:
            continue
        if (2 * x - frob) in s or 3 * x == 2 * frob or 4 * x == 3 * frob:
            continue
        if not frob - x < alpha:
            continue
        out.append(s.exchange(x, frob - x))
    return out


def _expand_levels(ctx: IrreducibleContext) -> list[NumericalSemigroup]:
    """Breadth-first walk of the tree, one level after the other; sorted by gap list.

    All nodes share the Frobenius number F, so gap-list order is the
    ascending order of the integer key core.gap_rank.
    """
    seen = {ctx.root}
    frontier = [ctx.root]
    while frontier:
        level, frontier = frontier, []
        for s in level:
            for child in children(s, ctx):
                assert child not in seen, f"tree produced {child} twice"
                seen.add(child)
                frontier.append(child)
    return sorted(seen, key=gap_rank)


def enumerate_irreducibles(required, frobenius: int) -> list[NumericalSemigroup]:
    """Every irreducible semigroup with Frobenius number F containing the required set.

    Raises Infeasible when F itself is generated by the required set.
    Output is sorted by gap list.
    """
    return _expand_levels(make_context(required, frobenius))

"""Expansion of irreducibles into their equivalence classes, and all
semigroups with a fixed Frobenius number.

Two semigroups with Frobenius number F containing the required set A are
equivalent when their irreducible closures coincide.  Each class is an
interval in the inclusion order: its maximum is the irreducible closure S
itself and its minimum is

    bottom = <A | {x in S : 2x < F}> | {F+1, ->},

so a class member is exactly a semigroup squeezed between bottom and S.
The difference set D = S \\ bottom lives strictly above F/2: call its
elements removable.  Order D by d <= e iff e - d is in bottom (a partial
order, since bottom contains 0 and is closed under addition).  Adding a
removable d to bottom drags along its closure trace, the principal
up-set {e in D : d <= e}, and the class is precisely
{bottom | T : T an up-set of D}.

The up-sets are the unions of principal up-sets, so the family is grown
one removable at a time: start from the empty trace and, for each d,
add the union of every trace so far with the trace of d.  The work is
|D| times the number of traces, not |D| times 2^|D|.  Traces and members
are bitmaps on [0, F] throughout; each member is still validated by the
closure-checking mask constructor.

The classes partition every semigroup with Frobenius number F containing
A, but the enumeration of that family does not go through them: it is
the prefix search of :mod:`numsem.irreducible` run over all of [1, F),
whose leaves are the semigroups themselves, in gap order by
construction.  The class expansion below is kept as the reference that
the tests compare against, and as the class theory that
:mod:`numsem.maxavoid` relies on.
"""

from __future__ import annotations

from collections import namedtuple

from . import errors
from .core import (
    NumericalSemigroup,
    Submonoid,
    _bit_positions,
    _coin_table,
    _leaf_chunks,
    _stride,
    contains_genset,
    gap_key,
)
from .irreducible import IrreducibleContext, _search

MAX_REMOVABLE = 30


class FrobeniusClass(namedtuple("FrobeniusClass", "top bottom removable members")):
    """One equivalence class: the interval between its top and bottom members.

    top and bottom are NumericalSemigroups, removable is the ascending
    tuple of the members of top missing from bottom, and members is the
    tuple of every member sorted by gap list.
    """

    __slots__ = ()


def class_minimum(s: NumericalSemigroup, ctx: IrreducibleContext) -> NumericalSemigroup:
    """The smallest semigroup sharing the irreducible closure of s.

    Generated by the required set together with the members of s below
    F/2, plus everything above F.  The cached minimal generators of s
    below F/2 generate those members, so they stand in for them.
    """
    frob = ctx.frobenius
    half = tuple(m for m in s.minimal_generators() if 2 * m < frob)
    table = Submonoid(ctx.required + half, frob)
    return NumericalSemigroup(frob, table.member_mask())


def _singleton_traces(bottom: NumericalSemigroup, removable: tuple[int, ...]) -> dict[int, int]:
    """trace(d) = {e removable : e - d is in bottom} as a bitmap; d itself always qualifies."""
    return {
        d: sum(1 << e for e in removable if (e - d) in bottom)
        for d in removable
    }


def _trace_family(bottom: NumericalSemigroup, removable: tuple[int, ...]) -> set[int]:
    """The distinct closure traces, i.e. the up-sets of the removable set, as bitmaps.

    Grown one removable at a time, so the cost is |D| times the size of
    the family.
    """
    if len(removable) > MAX_REMOVABLE:
        raise errors.CapacityExceeded(
            f"class expansion is capped at {MAX_REMOVABLE} removable elements,"
            f" got {len(removable)}"
        )
    family = {0}
    for single in _singleton_traces(bottom, removable).values():
        family |= {t | single for t in family}
    return family


def closure_trace(values, cls: FrobeniusClass) -> frozenset[int]:
    """The removable elements dragged in when the given removables join the bottom."""
    chosen = frozenset(values)
    if not chosen <= frozenset(cls.removable):
        raise errors.NotInD(f"{sorted(chosen - frozenset(cls.removable))} are not removable")
    singles = _singleton_traces(cls.bottom, cls.removable)
    trace = 0
    for d in chosen:
        trace |= singles[d]
    return frozenset(_bit_positions(trace))


def trace_family(cls: FrobeniusClass) -> frozenset[frozenset[int]]:
    """All distinct closure traces of the class."""
    traces = _trace_family(cls.bottom, cls.removable)
    return frozenset(frozenset(_bit_positions(t)) for t in traces)


def frobenius_class(s: NumericalSemigroup, ctx: IrreducibleContext) -> FrobeniusClass:
    """Materialize the class of an irreducible: bottom, removable set, and all members.

    Members are bottom | T for every up-set T of the removable set, built
    as bitmaps.  Each one goes through the closure-checking mask
    constructor even though the trace construction guarantees closure;
    the re-check, which also caches the member's minimal generators,
    guards the differential suite against drift.
    Members are sorted by gap list.
    """
    frob = ctx.frobenius
    bottom = class_minimum(s, ctx)
    bottom_mask = bottom.member_mask()
    removable = tuple(_bit_positions(s.member_mask() & ~bottom_mask))
    assert all(2 * d > frob for d in removable), (s, removable)
    members = []
    for trace in _trace_family(bottom, removable):
        member = NumericalSemigroup.from_mask(frob, bottom_mask | trace)
        assert contains_genset(member, ctx.required), member
        members.append(member)
    members.sort(key=gap_key)
    assert s in members, "the class must contain its top"
    return FrobeniusClass(s, bottom, removable, tuple(members))


def _semigroup_chunks(required, frobenius: int):
    """The checked chunks (see core._leaf_chunks) of the leaves of the prefix search over [1, F).

    It is the search of the irreducibles and the avoiders, run to the
    last position F - 1 with F the only stop value: there its leaves are
    closed, and they are the semigroups themselves (see
    irreducible._search).  The search starts from the coin table of the
    required set on [0, F], which raises Infeasible when it holds F.
    Feasibility is checked at the call, not on the first chunk.  Every
    leaf holds A, so its multiplicity is at most min(A), and the chunks
    take the stride of that bound (see core._stride).
    """
    if frobenius < 1:
        raise ValueError("the Frobenius number must be positive")
    monoid = _coin_table(required, (frobenius,))
    stride = _stride(frobenius, min((*monoid.generators, frobenius + 1)))
    return _leaf_chunks(frobenius, _search(monoid.member_mask(), frobenius, frobenius - 1, 0), stride)


def enumerate_with_frobenius(required, frobenius: int) -> list[NumericalSemigroup]:
    """Every numerical semigroup with Frobenius number F containing the required set.

    The leaves of the prefix search over [1, F), checked a chunk at a time
    as from_mask checks one bitmap, with their minimal generators cached;
    gap order by construction.  Raises Infeasible when F is generated by
    the required set.
    """
    return [s for leaves in _semigroup_chunks(required, frobenius) for s in leaves.semigroups()]

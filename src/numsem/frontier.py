"""The partition hitting-set problem and its semigroup translation.

Problem: given a required set A and a finite forbidden set B of positive
integers, find all minimal sets K of positive integers such that K avoids
the monoid generated by A and every partition of every element of B has
at least one summand in K (summands generated by A do not count, since no
valid K may contain them).

Translation: the complement of such a minimal K is a numerical semigroup
containing A and avoiding B, and minimality of K corresponds to
maximality of the complement.  So the solutions are exactly the gap sets
of the maximal avoiders, which are computed by the bitmap pipeline in
:mod:`numsem.maxavoid`.

The definitional checkers below do not use the translation at all: they
walk the partitions directly (enumeration delegated to
:mod:`numsem.oracle`), which makes them usable as an independent
verification layer for the solver's output.
"""

from __future__ import annotations

from operator import lt

from . import errors
from .core import Submonoid, normalize_genset
from .maxavoid import maximal_avoiding


def solve(required, forbidden) -> list[tuple[int, ...]]:
    """All minimal solution sets, as sorted tuples, lexicographically ordered.

    Each solution is the gap set of one maximal avoider; distinct
    semigroups have distinct gap sets, so the translation is injective.
    The avoiders come sorted by gap list, so the solutions need no sort.
    Raises Infeasible when a forbidden value is generated by the required
    set.
    """
    semigroups = maximal_avoiding(required, forbidden)
    solutions = [s.gaps() for s in semigroups]
    assert all(map(lt, solutions, solutions[1:]))
    return solutions


def check_solution(candidate, required, forbidden) -> bool:
    """Definitional check: monoid avoidance plus one hit in every partition.

    Enumerates the partitions of each forbidden value lazily and stops at
    the first one whose summand set (minus monoid members) misses the
    candidate.  A partition consisting entirely of monoid members is
    unhittable, so it fails the check outright; that only happens for
    infeasible inputs.
    """
    from . import oracle

    candidate = frozenset(int(k) for k in candidate)
    if any(k < 1 for k in candidate):
        raise ValueError("solution sets contain positive integers only")
    required = normalize_genset(required)
    forbidden = normalize_genset(forbidden)
    bound = max((*candidate, *forbidden, 1))
    monoid = Submonoid(required, bound)
    if any(k in monoid for k in candidate):
        return False
    for b in forbidden:
        for p in oracle.iter_partitions(b):
            if not any(x in candidate for x in set(p) if x not in monoid):
                return False
    return True


def is_minimal_solution(candidate, required, forbidden) -> bool:
    """True when the candidate solves the problem and no proper subset does.

    Raises NotASolution when the candidate fails :func:`check_solution`
    in the first place.
    """
    candidate = frozenset(int(k) for k in candidate)
    if not check_solution(candidate, required, forbidden):
        raise errors.NotASolution(f"{sorted(candidate)} does not solve the problem")
    return all(
        not check_solution(candidate - {c}, required, forbidden) for c in candidate
    )

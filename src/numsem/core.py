"""Core value types and primitive operations for numerical semigroups.

A numerical semigroup S is a subset of N = {0, 1, 2, ...} that contains 0,
is closed under addition, and has finite complement.  Its basic invariants
are the Frobenius number F(S), the largest integer outside S, and the
genus g(S), the size of the complement.  Since every integer above F(S)
belongs to S, the pair (F, membership bitmap on [0, F]) is a complete
canonical encoding; equality, hashing, intersection and subset tests all
reduce to integer bit operations.

Conventions:
  * The full semigroup N is encoded as F = 0 with bitmap {0}.  It has no
    gaps.  Callers that want the classical value -1 for F(N) apply that at
    the presentation layer (see the CLI module).
  * Submonoids of (N, +) generated by an arbitrary finite set (the gcd may
    exceed 1) are never materialized as infinite sets; they are bounded
    membership tables of the coin problem, each built one generator at a
    time by _add_generator.
  * All comparisons against F/2 are done in integers on 2x vs F.

The Apery set of a nonzero member n collects, for each residue class mod
n, the least member in that class.  Dropping the zero entry and indexing
by residue yields a tuple in N^(n-1) that determines the semigroup
completely; the componentwise max of two such tuples is the tuple of the
intersection, and the componentwise order reverses inclusion.  Those three
facts make Apery vectors an independent reference for the bitmap
intersections and inclusion tests that the enumeration modules use.
"""

from __future__ import annotations

import math
import struct
from collections import namedtuple
from itertools import compress, count, islice, repeat

from . import errors


def normalize_genset(raw) -> tuple[int, ...]:
    """Canonical generator tuple: sorted, deduplicated, zeros dropped.

    The input {0} normalizes to the empty tuple, which generates the
    trivial monoid {0}.  Negative entries are rejected.
    """
    values = sorted({int(x) for x in raw})
    if values and values[0] < 0:
        raise ValueError(f"generators must be non-negative, got {values[0]}")
    return tuple(v for v in values if v > 0)


# Turns the binary digits of a bitmap into byte 1 at a set bit and 0 elsewhere.
_SET_FLAGS = bytes.maketrans(b"01", b"\0\1")


def _bit_positions(mask: int):
    """Positions of the set bits of a non-negative bitmap, ascending, as an iterator.

    One scan at C level: character i of the reversed binary string is
    bit i, and compress keeps the positions whose flag byte is 1.
    """
    return compress(count(), f"{mask:b}"[::-1].encode().translate(_SET_FLAGS))


def _add_generator(mask: int, g: int, bound: int, full: int | None = None) -> int:
    """The bitmap of every x + kg on [0, bound] with x in mask and k >= 0.

    Shift-or doubling: after the shifts by g, 2g, ..., 2^j g it holds
    every x + kg with k < 2^(j+1).  When mask is a monoid on [0, bound],
    so is the result: the monoid generated by mask and g.  A packed
    chunk (see _pack) is doubled in every block at once when full is
    [0, bound] in each of its blocks.
    """
    if full is None:
        full = (1 << (bound + 1)) - 1
    step = g
    while step <= bound:
        mask |= (mask << step) & full
        step *= 2
    return mask


class Submonoid:
    """Membership table on [0, bound] for the monoid generated by a finite set.

    Membership means representability as a non-negative integer combination
    of the generators, i.e. the unbounded coin problem.  The table adds one
    generator at a time to {0} (see _add_generator).  Instances are
    immutable values.
    """

    __slots__ = ("generators", "bound", "_mask")

    def __init__(self, generators, bound: int):
        if bound < 1:
            raise ValueError("bound must be >= 1")
        gens = normalize_genset(generators)
        mask = 1
        for g in gens:
            mask = _add_generator(mask, g, bound)
        self.generators = gens
        self.bound = bound
        self._mask = mask

    def __contains__(self, x: int) -> bool:
        if x < 0:
            return False
        if x > self.bound:
            raise ValueError(f"{x} is outside the table bound {self.bound}")
        return bool(self._mask >> x & 1)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Submonoid):
            return NotImplemented
        return self.bound == other.bound and self._mask == other._mask

    def __hash__(self) -> int:
        return hash((self.bound, self._mask))

    def __repr__(self) -> str:
        return f"Submonoid({list(self.generators)}, bound={self.bound})"

    def member_mask(self) -> int:
        """Bitmap of members on [0, bound]; bit x is set iff x is a member."""
        return self._mask

    def elements(self) -> tuple[int, ...]:
        """All members up to the bound, ascending."""
        return tuple(_bit_positions(self._mask))

    def decompose(self, x: int) -> list[tuple[int, int]] | None:
        """One representation of x as ``sum(coeff * gen)``, or None if x is not a member.

        Returns (coefficient, generator) pairs with positive coefficients,
        generators ascending.  The prefix tables P_0 = {0} and P_i, the
        monoid of the first i of the k generators, are built on [0, x] by
        _add_generator.  The walk goes from i = k down to 1 and, while x
        is outside P_(i-1), takes g_i off x.  The index only falls: every
        representation of an x in P_i but not in P_(i-1) uses g_i, so
        x - g_i stays in P_i.  So each step takes the g_i of the least i
        with x in P_i, one bit test per step.
        """
        if x == 0:
            return []
        if x < 0 or x > self.bound or x not in self:
            return None
        prefixes = [1]
        for g in self.generators:
            prefixes.append(_add_generator(prefixes[-1], g, x))
        terms = []
        for g, below in zip(reversed(self.generators), reversed(prefixes[:-1])):
            coeff = 0
            while not below >> x & 1:
                x -= g
                coeff += 1
            if coeff:
                terms.append((coeff, g))
        return terms[::-1]


class NumericalSemigroup:
    """A numerical semigroup as the pair (Frobenius number, small-element bitmap).

    Instances are immutable values: equality and hashing use the canonical
    pair, and every operation returns a fresh instance.  The raw
    constructor trusts the caller on closure; use :meth:`from_mask` or
    :meth:`from_small_elements` for a fully validated build or
    :meth:`from_generators` to close a generating set with gcd 1.
    """

    __slots__ = ("frobenius", "_mask", "_msg")

    def __init__(self, frobenius: int, mask: int):
        if frobenius < 0:
            raise ValueError("frobenius must be non-negative")
        if not mask & 1:
            raise ValueError("0 must be a member")
        if mask >> (frobenius + 1):
            raise ValueError("bitmap extends beyond the Frobenius number")
        if frobenius == 0:
            if mask != 1:
                raise ValueError("the full-semigroup encoding is F=0 with bitmap {0}")
        elif mask >> frobenius & 1:
            raise errors.FrobeniusPresent(frobenius)
        self.frobenius = frobenius
        self._mask = mask
        # None, the bitmap of the minimal generators, or their tuple once read.
        self._msg: int | tuple[int, ...] | None = None

    @classmethod
    def from_small_elements(cls, members, frobenius: int) -> "NumericalSemigroup":
        """Validated construction from the members below the Frobenius number.

        ``members`` must contain 0, must not contain ``frobenius``, and
        must be additively closed when every integer above ``frobenius``
        counts as a member.
        """
        if frobenius < 0:
            raise ValueError("frobenius must be non-negative")
        mask = 0
        for m in members:
            if m < 0 or m > frobenius:
                raise ValueError(f"member {m} outside [0, {frobenius}]")
            if m == frobenius and frobenius > 0:
                raise errors.FrobeniusPresent(frobenius)
            mask |= 1 << m
        return cls.from_mask(frobenius, mask)

    @classmethod
    def from_mask(cls, frobenius: int, mask: int) -> "NumericalSemigroup":
        """Validated construction from the member bitmap on [0, F].

        Checks what the raw constructor checks, then additive closure, on
        the sums of the scan that finds the minimal generators, which are
        cached.  That scan (see _scan) shifts the members by each member x
        up to (F + m)/2, past F/2, where the smaller summand of any
        violating pair lies, so the bitmap is closed iff no sum is a gap.
        Only a failing bitmap is scanned again, for the ClosureViolation
        pair of its first violating x, as for a scan over all of [1, F].
        """
        s = cls(frobenius, mask)
        window, sums = _scan(frobenius, mask, 1, 1)
        gaps = ~mask & ((1 << (frobenius + 1)) - 1)
        if sums & gaps:
            for x in _bit_positions(window):
                bad = (window << x) & gaps
                if bad:
                    y = (bad & -bad).bit_length() - 1 - x
                    raise errors.ClosureViolation(min(x, y), max(x, y))
        s._msg = tuple(_bit_positions(window & ~sums))
        return s

    @classmethod
    def from_generators(cls, generators) -> "NumericalSemigroup":
        """The semigroup generated by a set with gcd 1.

        Convenience constructor: one table of the generators a_1 < ... < a_n
        on [0, bound], where the bound is the smaller of two bounds on F:
        Schur's (a_1 - 1)(a_n - 1) - 1 (Brauer, "On a problem of
        partitions", Amer. J. Math. 64, 1942) and, for n >= 2, Erdos and
        Graham's 2 a_(n-1) floor(a_n / n) - a_n (Acta Arith. 21, 1972),
        which falls as generators are added.  So the table holds every
        gap, and its largest gap is the Frobenius number.  A table with
        no gap (1 is a generator) gives N; its bound is at least 1.
        """
        gens = normalize_genset(generators)
        if not gens:
            raise ValueError("a numerical semigroup needs at least one positive generator")
        if math.gcd(*gens) != 1:
            raise ValueError(f"gcd({list(gens)}) != 1: the complement is infinite")
        bound = (gens[0] - 1) * (gens[-1] - 1)
        if len(gens) > 1:
            bound = min(bound, 2 * gens[-2] * (gens[-1] // len(gens)) - gens[-1])
        return _from_table(Submonoid(gens, max(bound, 1)))

    def __contains__(self, x: int) -> bool:
        if x < 0:
            return False
        if x > self.frobenius:
            return True
        return bool(self._mask >> x & 1)

    def __eq__(self, other) -> bool:
        if not isinstance(other, NumericalSemigroup):
            return NotImplemented
        return self.frobenius == other.frobenius and self._mask == other._mask

    def __hash__(self) -> int:
        return hash((self.frobenius, self._mask))

    def __repr__(self) -> str:
        gens = ",".join(str(g) for g in self.minimal_generators())
        return f"<{gens}>"

    @property
    def is_full(self) -> bool:
        """True for the full semigroup N (encoded as F = 0)."""
        return self.frobenius == 0

    def member_mask(self, limit: int | None = None) -> int:
        """Bitmap of members on [0, limit] (default: [0, F]), implicit members included.

        A negative limit gives the empty range, so 0.
        """
        if limit is None or limit == self.frobenius:
            return self._mask
        if limit < self.frobenius:
            return self._mask & ((1 << max(limit + 1, 0)) - 1)
        high = ((1 << (limit - self.frobenius)) - 1) << (self.frobenius + 1)
        return self._mask | high

    def small_elements(self) -> tuple[int, ...]:
        """Members in [0, F], ascending."""
        return tuple(_bit_positions(self._mask))

    def gaps(self) -> tuple[int, ...]:
        """The complement N \\ S, ascending.  Empty exactly for the full semigroup."""
        return tuple(_bit_positions(~self._mask & ((1 << (self.frobenius + 1)) - 1)))

    @property
    def genus(self) -> int:
        """Number of gaps: one popcount of the member bitmap."""
        return self.frobenius + 1 - self._mask.bit_count()

    def minimal_generators(self) -> tuple[int, ...]:
        """The unique minimal system of generators.

        Computed as the nonzero members that are not a sum of two nonzero
        members.  Every minimal generator is the multiplicity m or lies in
        the Apery set of m, whose elements are at most F + m: any member
        x > F + m splits as m + (x - m) with x - m > F a member.  So the
        window [1, F + m] is exhaustive, and the smaller summand of any sum
        inside it is at most (F + m)/2.  The full semigroup gives (1,).
        The result is cached; :meth:`from_mask` fills the cache as it
        validates, and the semigroups of a checked chunk of search leaves
        (see _Leaves.semigroups) hold their generators as a bitmap, which
        the first read decodes.
        """
        if self._msg is None:
            window, sums = _scan(self.frobenius, self._mask, 1, 1)
            self._msg = window & ~sums
        if isinstance(self._msg, int):
            self._msg = tuple(_bit_positions(self._msg))
        return self._msg

    def issubset(self, other: "NumericalSemigroup") -> bool:
        """Set inclusion; integers above both Frobenius numbers are shared."""
        limit = max(self.frobenius, other.frobenius)
        return not self.member_mask(limit) & ~other.member_mask(limit)

    def exchange(self, remove: int, add: int) -> "NumericalSemigroup":
        """The value with member ``remove`` dropped and gap ``add`` filled.

        This is the elementary tree move; both positions must lie in
        [1, F).  The caller guarantees the result is closed (true whenever
        {remove, add} = {x, F - x} under the tree-step side conditions).
        """
        if not (0 < remove < self.frobenius) or not self._mask >> remove & 1:
            raise ValueError(f"{remove} is not a removable member")
        if not (0 < add < self.frobenius) or self._mask >> add & 1:
            raise ValueError(f"{add} is not a gap below the Frobenius number")
        return NumericalSemigroup(self.frobenius, self._mask & ~(1 << remove) | 1 << add)


FULL_SEMIGROUP = NumericalSemigroup(0, 1)

# Search leaves are checked, scanned and rendered this many at a time.
CHUNK = 256

# Reverses the order of the bits of a byte.
_BIT_REVERSE = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def _stride(frobenius: int, multiplicity: int | None = None) -> int:
    """Bits per bitmap in a packed chunk whose multiplicities are at most the bound.

    The bound m defaults to F + 1, which holds for every numerical
    semigroup with Frobenius number F.  The generator scan (see _scan)
    shifts a block's window [1, F + m] by its columns, which stop at
    (F + m)/2, so its sums reach F + m + (F + m)/2: the stride is the
    least multiple of 8 above that, 3F + 1 at m = F + 1.  The query
    gives a smaller bound: m <= min(A), since A lies in every result,
    and m <= t/2 + 1 for the irreducibles with Frobenius number t >= 3.
    """
    top = frobenius + (frobenius + 1 if multiplicity is None else multiplicity)
    return (top + top // 2 + 8) // 8 * 8


def _ones(count: int, stride: int) -> int:
    """The packed chunk with bit 0 set in each of its count blocks.

    Built once per chunk, where the chunk is packed, and carried on
    _Leaves; a chunk cut to its first blocks keeps the same cut of it.
    """
    return int.from_bytes((b"\1" + bytes(stride // 8 - 1)) * count, "little")


def _pack(frobenius: int, masks: list[int], stride: int | None = None) -> _Leaves:
    """The bitmaps on [0, F] as an unchecked chunk, bitmap i in block i of stride bits.

    The stride defaults to _stride(F).  See _refuse for a bitmap that
    does not fit.
    """
    stride = stride or _stride(frobenius)
    packed = int.from_bytes(b"".join(_blocks(frobenius, masks, stride)), "little")
    return _Leaves(frobenius, len(masks), packed, _ones(len(masks), stride), stride)


def _blocks(frobenius: int, masks: list[int], stride: int) -> list[bytes]:
    """The bytes of each bitmap on [0, F], one block of stride bits each."""
    try:
        return list(map(int.to_bytes, masks, repeat(stride // 8), repeat("little")))
    except OverflowError:
        _refuse(frobenius, masks)


def _halves(frobenius: int, masks: list[int], stride: int | None = None) -> tuple[int, int, _Leaves]:
    """The packed lower halves of irreducibles, their reflection, and their mirror fills as a chunk.

    Reversing all the bits of the blocks taken in reverse order turns
    bit y of bitmap i into bit stride - 1 - y of block i: that is the
    reflection.  One shift of it puts each mirror F - y in place, for any
    stride above F, and the fill adds every x in (F/2, F) whose mirror
    F - x the bitmap lacks.  The fills are the unchecked chunk, and they
    carry its bit-0 mask and its stride, _stride(F) by default.

    A fill reads its bitmap below F/2 only.  A bitmap that misses F and
    is closed there holds x above F/2 only if it lacks F - x, so the fill
    adds x anyway; so a bitmap with the same bits below F/2 and fewer
    above, as the free tails of irreducible._search leave it, has the
    same fill.
    """
    stride = stride or _stride(frobenius)
    blocks = _blocks(frobenius, masks, stride)
    packed = int.from_bytes(b"".join(blocks), "little")
    mirror = int.from_bytes(b"".join(reversed(blocks)).translate(_BIT_REVERSE), "big")
    ones = _ones(len(masks), stride)
    upper = ones * ((1 << frobenius) - (1 << (frobenius // 2 + 1)))
    tops = packed | upper & ~(mirror >> (stride - 1 - frobenius))
    return packed, mirror, _Leaves(frobenius, len(masks), tops, ones, stride)


def _split(packed: int, count: int, stride: int) -> tuple[bytes, ...]:
    """The bytes of each of the count blocks of a packed chunk, in order, little-endian."""
    size = stride // 8
    return struct.unpack(f"{size}s" * count, packed.to_bytes(count * size, "little"))


def _unpack(packed: int, count: int, stride: int) -> list[int]:
    """The count blocks of a packed chunk, in order."""
    return list(map(int.from_bytes, _split(packed, count, stride), repeat("little")))


def _fold(packed: int, count: int, stride: int) -> int:
    """The OR of the count blocks of a packed chunk."""
    while count > 1:
        half = (count + 1) // 2
        packed = packed >> half * stride | packed & ((1 << half * stride) - 1)
        count = half
    return packed


def _scan(frobenius: int, members: int, count: int, ones: int, stride: int | None = None) -> tuple[int, int]:
    """The window members of each packed bitmap on [0, F], and the sums of their generator scan.

    ones is bit 0 of each of the count blocks of stride bits (see _ones),
    _stride(F) by default.  Block i's window is [1, F + m], m its least
    nonzero member, which is at most F + 1 (see minimal_generators).  A
    guard bit at F + 1 makes bit m the lowest set bit of the nonzero
    members, found in every block by one subtraction.  Each column x, a
    member of some block up to (F + max m)/2, adds the sums x + y of
    every block holding x in one shift.  A shift past a block's own
    (F + m)/2 adds only true sums, so the minimal generators (the window
    members that are no sum) and the closure verdict (no sum is a gap)
    are those of each block alone.  That needs every sum inside its
    block, which is asserted once per chunk: a stride sized for a smaller
    multiplicity than a block has would corrupt the next block.
    """
    stride = stride or _stride(frobenius)
    nonzero = members & ~ones
    guarded = nonzero | ones << (frobenius + 1)
    least = guarded & ~(guarded - ones)
    window = nonzero | (least - ones) << (frobenius + 1)
    # The top bit of the OR of the windows is F + max m.
    columns = _fold(window, count, stride)
    top = columns.bit_length() - 1
    columns &= (2 << top // 2) - 1
    assert top + columns.bit_length() <= stride, f"the sums pass the stride {stride}"
    sums = 0
    for x in _bit_positions(columns):
        held = window >> x & ones
        sums |= (window & ((held << stride) - held)) << x
    return window, sums


class _Leaves:
    """A chunk of bitmaps with one Frobenius number F, packed one block per bitmap.

    Block i of members holds bitmap i on [0, F] in stride bits, and ones
    has bit 0 of each block set.  The stride, from _stride, holds the
    generator scan of a bitmap whose multiplicity is at most the bound
    of the query.  generators is None until _check_leaves has checked
    the chunk; then block i of it holds the minimal generators of bitmap i.
    """

    __slots__ = ("frobenius", "count", "stride", "members", "ones", "generators")

    def __init__(self, frobenius: int, count: int, members: int, ones: int, stride: int):
        self.frobenius = frobenius
        self.count = count
        self.stride = stride
        self.members = members
        self.ones = ones
        self.generators: int | None = None

    def __len__(self) -> int:
        return self.count

    def without(self, drop: int) -> _Leaves:
        """The unchecked chunk of the blocks, in order, whose bit 0 is clear in drop.

        drop holds bit 0 of some blocks and nothing else.  One compress
        over the block bytes keeps the others, and the bit-0 mask is cut
        to their count.
        """
        size = self.stride // 8
        keep = (self.ones & ~drop).to_bytes(self.count * size, "little")[::size]  # byte 0 of each block
        kept = compress(_split(self.members, self.count, self.stride), keep)
        count = self.count - drop.bit_count()
        ones = self.ones & ((1 << count * self.stride) - 1)
        return _Leaves(self.frobenius, count, int.from_bytes(b"".join(kept), "little"), ones, self.stride)

    def semigroups(self) -> list[NumericalSemigroup]:
        """The semigroups, built by the raw constructor, with their generator bitmaps cached."""
        out = []
        for mask, gens in zip(_unpack(self.members, self.count, self.stride),
                              _unpack(self.generators, self.count, self.stride)):
            s = NumericalSemigroup(self.frobenius, mask)
            s._msg = gens
            out.append(s)
        return out


def _check_leaves(leaves: _Leaves) -> _Leaves:
    """Validate a chunk of bitmaps on [0, F] at once, and set their minimal generators.

    The checks of from_mask, each one AND over the chunk: bit 0 set, bit
    F clear and nothing above F, and then no sum of the scan on a gap.
    A bitmap that fails the first checks is refused before the scan,
    whose window it could push past the stride.  F must be positive.
    Returns the chunk.
    """
    frobenius, count, members, ones = leaves.frobenius, leaves.count, leaves.members, leaves.ones
    span = ones * ((2 << frobenius) - 1)  # [0, F] in every block
    if members & ones != ones or members & (ones << frobenius | ~span):
        _refuse(frobenius, _unpack(members, count, leaves.stride))
    window, sums = _scan(frobenius, members, count, ones, leaves.stride)
    if sums & span & ~members:
        _refuse(frobenius, _unpack(members, count, leaves.stride))
    leaves.generators = window & ~sums
    return leaves


def _refuse(frobenius: int, masks: list[int]):
    """Rebuild, one at a time, the bitmaps of a chunk that failed a check.

    So the first bad bitmap raises what from_mask raises for it.
    """
    for mask in masks:
        NumericalSemigroup.from_mask(frobenius, mask)
    raise AssertionError("a chunk check failed that no bitmap fails")


def _batches(items):
    """The items in lists of CHUNK, the last one shorter."""
    items = iter(items)
    while batch := list(islice(items, CHUNK)):
        yield batch


def _leaf_chunks(frobenius: int, masks, stride: int | None = None):
    """Check the bitmaps on [0, F], CHUNK at a time, and yield each chunk as _Leaves.

    The chunks take the stride, _stride(F) by default.
    """
    for batch in _batches(masks):
        yield _check_leaves(_pack(frobenius, batch, stride))


def _from_table(table: Submonoid) -> NumericalSemigroup:
    """The semigroup whose members are those of the table plus every integer above its bound.

    The Frobenius number is the largest gap of the table, or 0 for N.
    """
    mask = table.member_mask()
    frob = max((~mask & ((1 << (table.bound + 1)) - 1)).bit_length() - 1, 0)
    return NumericalSemigroup(frob, mask & ((1 << (frob + 1)) - 1))


def _coin_table(required, targets) -> Submonoid:
    """The coin table of the required set on [0, max(targets)], built once.

    Raises Infeasible, with one combination as the witness, for the first
    target, in the given order, that the required set generates.
    """
    monoid = Submonoid(required, max(targets))
    for b in targets:
        if b in monoid:
            raise errors.Infeasible(b, monoid.decompose(b))
    return monoid


class AperyVector(namedtuple("AperyVector", "modulus coords")):
    """Least members per nonzero residue class mod the modulus, as a tuple.

    coords[i] is the least member congruent to i + 1; it is positive and
    congruent to its index.  The componentwise order on these tuples, leq,
    reverses semigroup inclusion, and the componentwise max corresponds to
    intersection; < is the lexicographic tuple order.
    """

    __slots__ = ()

    def __new__(cls, modulus: int, coords: tuple[int, ...]):
        if modulus < 2:
            raise ValueError("modulus must be at least 2")
        if len(coords) != modulus - 1:
            raise ValueError(f"expected {modulus - 1} coordinates, got {len(coords)}")
        for i, c in enumerate(coords, start=1):
            if c < 1 or c % modulus != i % modulus:
                raise ValueError(f"coordinate {c} at residue {i} violates the congruence")
        return super().__new__(cls, modulus, coords)

    def join(self, other: "AperyVector") -> "AperyVector":
        """Componentwise maximum (the vector of the intersection)."""
        if self.modulus != other.modulus:
            raise errors.ModulusMismatch(f"{self.modulus} != {other.modulus}")
        return AperyVector(self.modulus, tuple(map(max, self.coords, other.coords)))

    def leq(self, other: "AperyVector") -> bool:
        """Componentwise order; a partial order, not total."""
        if self.modulus != other.modulus:
            raise errors.ModulusMismatch(f"{self.modulus} != {other.modulus}")
        return all(a <= b for a, b in zip(self.coords, other.coords))


def minimal_generating_set(generators) -> tuple[int, ...]:
    """Minimal system of generators of the monoid closure of a finite set.

    Ascending scan over one table on [0, max]: a generator is kept exactly
    when the table of the ones kept so far misses it, and a kept one is
    added to the table (see _add_generator).  Works for any gcd.
    """
    gens = normalize_genset(generators)
    if not gens:
        raise ValueError("the generator set must contain a positive integer")
    table, kept = 1, []
    for g in gens:
        if not table >> g & 1:
            kept.append(g)
            table = _add_generator(table, g, gens[-1])
    return tuple(kept)


def apery(s: NumericalSemigroup, n: int) -> frozenset[int]:
    """The Apery set of n in s: least member of each residue class mod n.

    n must be a nonzero member.  The least member of a class is the member
    w with w - n not a member, and it is at most F + n, since everything
    above F is a member; so one shift of the member bitmap on [0, F + n]
    finds all of them.
    """
    if n < 1 or n not in s:
        raise errors.NotAMember(f"{n} is not a nonzero member")
    members = s.member_mask(s.frobenius + n)
    return frozenset(_bit_positions(members & ~(members << n)))


def apery_vector(s: NumericalSemigroup, n: int) -> AperyVector:
    """The Apery set with the zero entry dropped, indexed by residue."""
    if n < 2:
        raise ValueError("apery vectors need modulus at least 2")
    least = sorted(apery(s, n), key=lambda w: w % n)
    return AperyVector(n, tuple(least[1:]))


def semigroup_from_apery_vector(v: AperyVector) -> NumericalSemigroup:
    """The semigroup generated by the coordinates together with the modulus.

    When v is the Apery vector of some semigroup, the result round-trips
    to v; the round trip is always checked and a failure raises
    NotInImage.  The congruence invariant forces gcd 1, and every integer
    at or above max(coords) lies in the result (it exceeds the least
    member of its residue class), so a table up to max(coords) suffices.
    """
    n = v.modulus
    result = _from_table(Submonoid(v.coords + (n,), max(max(v.coords), n)))
    if apery_vector(result, n) != v:
        raise errors.NotInImage(f"{v.coords} is not an Apery vector for modulus {n}")
    return result


def intersect(s: NumericalSemigroup, t: NumericalSemigroup) -> NumericalSemigroup:
    """Membership conjunction; the Frobenius number is the max of the two."""
    frob = max(s.frobenius, t.frobenius)
    mask = s.member_mask(frob) & t.member_mask(frob)
    return NumericalSemigroup(frob, mask)


def contains_genset(s: NumericalSemigroup, required) -> bool:
    """True when every element of the (normalized) set is a member."""
    return all(a in s for a in normalize_genset(required))


def avoids_genset(s: NumericalSemigroup, forbidden) -> bool:
    """True when no element of the (normalized) set is a member."""
    return not any(b in s for b in normalize_genset(forbidden))


def gap_key(s: NumericalSemigroup) -> tuple[int, ...]:
    """Canonical sort key: the gap list, compared lexicographically.

    Gaps determine the semigroup, so this is a strict total order; every
    enumeration in this package emits its results sorted by it.
    """
    return s.gaps()


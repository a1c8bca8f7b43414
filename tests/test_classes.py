"""Class expansion: bottoms, closure traces, and all semigroups with fixed F."""

import pytest

from numsem import classes, errors
from numsem.classes import (
    _trace_family,
    class_minimum,
    closure_trace,
    enumerate_with_frobenius,
    frobenius_class,
    trace_family,
)
from numsem.core import FULL_SEMIGROUP, NumericalSemigroup, Submonoid, gap_key
from numsem.irreducible import (
    enumerate_irreducibles,
    irreducible_closure,
    is_irreducible,
    make_context,
)
from numsem.oracle import all_semigroups_with_frobenius

sg = NumericalSemigroup.from_generators


def subset_scan_family(bottom, removable):
    """Reference: the union of singleton traces over every subset of the removable set."""
    singles = {d: frozenset(e for e in removable if (e - d) in bottom) for d in removable}
    family = set()
    for bits in range(1 << len(removable)):
        trace = frozenset()
        for i, d in enumerate(removable):
            if bits >> i & 1:
                trace |= singles[d]
        family.add(trace)
    return frozenset(family)


def is_up_set(trace, bottom, removable):
    """d in T, e removable and e - d in bottom imply e in T."""
    return all(e in trace for d in trace for e in removable if (e - d) in bottom)


@pytest.fixture
def ctx4_11():
    return make_context([4], 11)


class TestClassMinimum:
    def test_strict_bottom(self, ctx4_11):
        assert class_minimum(sg([4, 6, 9]), ctx4_11) == sg([4, 13, 14, 15])

    def test_self_bottom(self, ctx4_11):
        assert class_minimum(sg([4, 5]), ctx4_11) == sg([4, 5])
        assert class_minimum(sg([2, 13]), ctx4_11) == sg([2, 13])

    @pytest.mark.parametrize("required", [(), (4,), (6, 9)])
    def test_generated_by_members_below_half(self, required):
        """The definition: the required set and every member x with 2x < F generate the bottom."""
        checked = 0
        for frob in range(1, 32 if not required else 61):
            try:
                ctx = make_context(required, frob)
            except errors.Infeasible:
                continue
            for top in enumerate_irreducibles(required, frob):
                half = [x for x in top.small_elements() if x and 2 * x < frob]
                monoid = Submonoid(required + tuple(half), frob)
                assert class_minimum(top, ctx) == NumericalSemigroup(frob, monoid.member_mask())
                checked += 1
        assert checked > 90


class TestClosureTrace:
    def test_single_element_drags_its_translates(self, ctx4_11):
        cls = frobenius_class(sg([4, 6, 9]), ctx4_11)
        assert closure_trace({6}, cls) == frozenset({6, 10})
        assert closure_trace({9}, cls) == frozenset({9})
        assert closure_trace(set(), cls) == frozenset()

    def test_outside_removable_set(self, ctx4_11):
        cls = frobenius_class(sg([4, 6, 9]), ctx4_11)
        with pytest.raises(errors.NotInD):
            closure_trace({5}, cls)


class TestTraceFamily:
    def test_golden_family(self, ctx4_11):
        cls = frobenius_class(sg([4, 6, 9]), ctx4_11)
        assert trace_family(cls) == frozenset(
            frozenset(x)
            for x in [set(), {9}, {10}, {6, 10}, {9, 10}, {6, 9, 10}]
        )

    def test_empty_removable(self, ctx4_11):
        cls = frobenius_class(sg([4, 5]), ctx4_11)
        assert trace_family(cls) == frozenset({frozenset()})

    def test_size_bound(self):
        ctx = make_context([], 9)
        for top in enumerate_irreducibles([], 9):
            cls = frobenius_class(top, ctx)
            assert len(trace_family(cls)) <= 2 ** len(cls.removable)

    def test_capacity_guard(self):
        with pytest.raises(errors.CapacityExceeded):
            _trace_family(FULL_SEMIGROUP, tuple(range(100, 131)))

    @pytest.mark.parametrize("required, max_frobenius", [((), 26), ((4,), 60), ((5,), 60)])
    def test_matches_subset_scan(self, required, max_frobenius):
        checked = 0
        for frob in range(1, max_frobenius + 1):
            try:
                ctx = make_context(required, frob)
            except errors.Infeasible:
                continue
            for top in enumerate_irreducibles(required, frob):
                cls = frobenius_class(top, ctx)
                if len(cls.removable) > 12:
                    continue
                family = trace_family(cls)
                assert family == subset_scan_family(cls.bottom, cls.removable)
                assert all(is_up_set(t, cls.bottom, cls.removable) for t in family)
                assert list(cls.members) == sorted(cls.members, key=gap_key)
                checked += 1
        assert checked > 100

    def test_scale_class(self):
        # |D| = 24: the subset scan visits 2^24 subsets for this class.
        ctx = make_context([11], 59)
        top = sg([11, 30, 31, 32, 34, 35, 36, 38, 39, 40])
        assert top.frobenius == 59 and is_irreducible(top)
        bottom = class_minimum(top, ctx)
        removable = tuple(x for x in top.small_elements() if x not in bottom)
        assert len(removable) == 24
        family = _trace_family(bottom, removable)
        assert len(family) == 110_592
        d_mask = sum(1 << d for d in removable)
        singles = [
            (1 << d, sum(1 << e for e in removable if (e - d) in bottom)) for d in removable
        ]
        for t in family:
            assert not t & ~d_mask
            assert all(single & ~t == 0 for bit, single in singles if t & bit)


class TestFrobeniusClass:
    def test_golden_members(self, ctx4_11):
        cls = frobenius_class(sg([4, 6, 9]), ctx4_11)
        assert cls.top == sg([4, 6, 9])
        assert cls.bottom == sg([4, 13, 14, 15])
        assert cls.removable == (6, 9, 10)
        assert set(cls.members) == {
            sg([4, 6, 9]),
            sg([4, 6, 13, 15]),
            sg([4, 9, 10, 15]),
            sg([4, 9, 14, 15]),
            sg([4, 10, 13, 15]),
            sg([4, 13, 14, 15]),
        }

    def test_singleton_classes(self, ctx4_11):
        assert frobenius_class(sg([4, 5]), ctx4_11).members == (sg([4, 5]),)
        assert frobenius_class(sg([2, 13]), ctx4_11).members == (sg([2, 13]),)

    def test_members_are_the_interval(self, ctx4_11):
        # A semigroup belongs to the class iff it sits between bottom and top.
        family = all_semigroups_with_frobenius(11, [4])
        for top in enumerate_irreducibles([4], 11):
            cls = frobenius_class(top, ctx4_11)
            interval = [
                t for t in family if cls.bottom.issubset(t) and t.issubset(cls.top)
            ]
            assert sorted(cls.members, key=gap_key) == interval

    def test_closure_fiber(self, ctx4_11):
        for top in enumerate_irreducibles([4], 11):
            cls = frobenius_class(top, ctx4_11)
            for member in cls.members:
                assert irreducible_closure(member) == top


class TestEnumerateWithFrobenius:
    def test_golden_eight(self):
        result = enumerate_with_frobenius([4], 11)
        assert [s.minimal_generators() for s in result] == [
            (4, 13, 14, 15),
            (4, 10, 13, 15),
            (4, 9, 14, 15),
            (4, 9, 10, 15),
            (4, 6, 13, 15),
            (4, 6, 9),
            (4, 5),
            (2, 13),
        ]

    def test_infeasible(self):
        with pytest.raises(errors.Infeasible):
            enumerate_with_frobenius([1], 1)

    @pytest.mark.parametrize("build", [enumerate_with_frobenius, make_context, enumerate_irreducibles])
    def test_frobenius_must_be_positive(self, build):
        with pytest.raises(ValueError, match="^the Frobenius number must be positive$"):
            build((), 0)

    def test_empty_required_matches_oracle(self):
        assert enumerate_with_frobenius([], 3) == all_semigroups_with_frobenius(3)

    def test_classes_partition_the_family(self):
        ctx = make_context([], 10)
        tops = enumerate_irreducibles([], 10)
        classes = [frobenius_class(t, ctx) for t in tops]
        union = set()
        for cls in classes:
            union.update(cls.members)
        assert len(union) == sum(len(c.members) for c in classes)
        assert union == set(all_semigroups_with_frobenius(10))

    def test_genus_floor_with_equality_at_tops(self):
        tops = set(enumerate_irreducibles([4], 11))
        for s in enumerate_with_frobenius([4], 11):
            floor = (11 + 2) // 2
            assert s.genus >= floor
            assert (s.genus == floor) == (s in tops)

    @pytest.mark.parametrize("required", [(), (4,), (5,), (5, 7)])
    def test_output_strictly_increasing_in_gap_key(self, required):
        top = 25 if not required else 60
        for frob in range(1, top + 1):
            try:
                result = enumerate_with_frobenius(required, frob)
            except errors.Infeasible:
                continue
            keys = [gap_key(s) for s in result]
            assert all(a < b for a, b in zip(keys, keys[1:])), (required, frob)

    def test_matches_oracle_on_sample(self):
        for required, frob in [((), 7), ((2,), 9), ((4,), 10), ((3, 5), 7)]:
            assert enumerate_with_frobenius(required, frob) == all_semigroups_with_frobenius(
                frob, required
            )

    @pytest.mark.parametrize("required", [(), (3,), (4,), (5, 7), (6, 9), (7,), (9, 11)])
    def test_equals_class_expansion(self, required):
        """The members of the classes of the tops, concatenated in the tops' gap order."""
        checked = 0
        for frob in range(1, 23 if not required else 31):
            try:
                ctx = make_context(required, frob)
            except errors.Infeasible:
                continue
            expected = [
                m for top in enumerate_irreducibles(required, frob)
                for m in frobenius_class(top, ctx).members
            ]
            assert enumerate_with_frobenius(required, frob) == expected, (required, frob)
            checked += 1
        assert checked >= 10

    def test_past_the_class_cap(self, monkeypatch):
        ctx = make_context([4], 123)
        tops = enumerate_irreducibles([4], 123)
        with pytest.raises(errors.CapacityExceeded):
            for top in tops:
                frobenius_class(top, ctx)
        result = enumerate_with_frobenius([4], 123)
        assert len(result) == 437
        monkeypatch.setattr(classes, "MAX_REMOVABLE", 64)
        assert result == [m for top in tops for m in frobenius_class(top, ctx).members]

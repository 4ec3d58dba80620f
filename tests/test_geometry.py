import dataclasses
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from closepair.cost_model import CostBreakdown
from closepair.experiments import SweepRecord
from closepair.geometry import ClosestPairResult, OpCounter, Point, PointSet, final_distance, squared_distance

from conftest import coord_pairs, dyadic_pairs


class TestSquaredDistance:
    def test_three_four_five(self):
        c = OpCounter()
        assert squared_distance(Point(0, 0), Point(3, 4), c) == 25.0
        assert c.dc == 1

    def test_identical_points(self):
        c = OpCounter()
        assert squared_distance(Point(1, 1), Point(1, 1), c) == 0.0
        assert c.dc == 1

    def test_unit_separation(self):
        c = OpCounter()
        assert squared_distance(Point(0, 0), Point(1, 0), c) == 1.0
        assert c.dc == 1

    @given(coord_pairs, coord_pairs)
    def test_symmetric_bit_for_bit(self, a, b):
        c = OpCounter()
        assert squared_distance(Point(*a), Point(*b), c) == squared_distance(Point(*b), Point(*a), c)

    @given(coord_pairs)
    def test_self_distance_exactly_zero(self, a):
        p = Point(*a)
        assert squared_distance(p, p, OpCounter()) == 0.0

    @given(st.lists(st.tuples(coord_pairs, coord_pairs), max_size=50))
    def test_counter_additivity(self, pairs):
        c = OpCounter()
        for a, b in pairs:
            squared_distance(Point(*a), Point(*b), c)
        assert c.dc == len(pairs)

    @given(dyadic_pairs, dyadic_pairs, st.integers(min_value=-10, max_value=10))
    @settings(max_examples=200)
    def test_power_of_two_scaling(self, a, b, k):
        s = 2.0 ** k
        base = squared_distance(Point(*a), Point(*b), OpCounter())
        scaled = squared_distance(Point(a[0] * s, a[1] * s), Point(b[0] * s, b[1] * s), OpCounter())
        assert scaled == (s * s) * base


class TestFinalDistance:
    def test_values(self):
        assert final_distance(25.0) == 5.0
        assert final_distance(0.0) == 0.0
        assert final_distance(2.0) == 1.4142135623730951

    def test_does_not_count(self):
        # reporting-only: there is no counter to touch
        assert final_distance(9.0) == 3.0


class TestPoint:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            Point(bad, 0.0)
        with pytest.raises(ValueError):
            Point(0.0, bad)

    @pytest.mark.parametrize(
        "x,y,text",
        [
            (math.inf, 0.0, "(inf, 0.0)"),
            (1, math.nan, "(1, nan)"),
            (-math.inf, math.inf, "(-inf, inf)"),
        ],
    )
    def test_non_finite_message(self, x, y, text):
        with pytest.raises(ValueError) as info:
            Point(x, y)
        assert str(info.value) == f"point coordinates must be finite, got {text}"

    def test_non_number_is_type_error(self):
        with pytest.raises(TypeError, match="must be real number, not str"):
            Point("a", 1)
        with pytest.raises(TypeError):
            Point(0.0, None)

    def test_equality_and_hash(self):
        assert Point(1, 2) == Point(1.0, 2.0)
        assert hash(Point(1, 2)) == hash(Point(1.0, 2.0))
        assert Point(-0.0, 0.5) == Point(0.0, 0.5)
        assert hash(Point(-0.0, 0.5)) == hash(Point(0.0, 0.5))
        assert len({Point(1.0, 2.0), Point(1, 2), Point(2.0, 1.0)}) == 2

    def test_replace_validates(self):
        p = Point(1.0, 2.0)
        assert dataclasses.replace(p, y=5.0) == Point(1.0, 5.0)
        with pytest.raises(ValueError):
            dataclasses.replace(p, x=math.nan)
        assert [f.name for f in dataclasses.fields(Point)] == ["x", "y"]

    def test_match(self):
        assert Point.__match_args__ == ("x", "y")
        match Point(3.0, 4.0):
            case Point(x, y):
                assert (x, y) == (3.0, 4.0)
            case _:
                pytest.fail("Point(x, y) did not match")
        match Point(3.0, 4.0):
            case Point(x=3.0, y=y):
                assert y == 4.0
            case _:
                pytest.fail("Point(x=3.0, y=y) did not match")


class TestPointSet:
    def test_length_matches(self):
        ps = PointSet([Point(0, 0), Point(1, 2), Point(0, 0)])
        assert len(ps) == len(ps.points) == 3
        assert ps[1] == Point(1, 2)

    def test_duplicates_allowed(self):
        ps = PointSet([Point(5, 5), Point(5, 5)])
        assert len(ps) == 2

    def test_from_coords(self):
        ps = PointSet.from_coords([(0, 1), (2, 3)])
        assert ps.points == (Point(0.0, 1.0), Point(2.0, 3.0))

    def test_rejects_non_points(self):
        with pytest.raises(TypeError):
            PointSet([(0.0, 1.0)])

    def test_empty_ok(self):
        assert len(PointSet([])) == 0

    def test_equality(self):
        assert PointSet.from_coords([(1, 2)]) == PointSet.from_coords([(1, 2)])
        assert PointSet.from_coords([(1, 2)]) != PointSet.from_coords([(2, 1)])

    def test_repr(self):
        assert repr(PointSet([])) == "PointSet(n=0)"
        assert repr(PointSet.from_coords([(0, 1), (2, 3), (0, 1)])) == "PointSet(n=3)"


class TestOpCounter:
    def test_starts_at_zero(self):
        assert OpCounter().dc == 0


RECORDS = {
    # type, field names, a sample's values, and the pinned repr of a second
    # instance whose every field differs from the sample's
    "Point": (Point, ("x", "y"), (0.1, -3e300), (1.5, -2.0), "Point(x=1.5, y=-2.0)"),
    "ClosestPairResult": (ClosestPairResult, ("i", "j", "dist_sq", "dc_used"), (3, 5, 2e-300, 11),
                          (0, 2, 1.5, 3), "ClosestPairResult(i=0, j=2, dist_sq=1.5, dc_used=3)"),
    "SweepRecord": (SweepRecord, ("a", "dc_measured", "dist"), (7, 40, 3e-200),
                    (2, 3, 0.125), "SweepRecord(a=2, dc_measured=3, dist=0.125)"),
    "CostBreakdown": (CostBreakdown, ("n", "a", "strip_cost", "local_cost", "total"), (8, 2, 24.0, 12.0, 36.0),
                      (50, 50, 98.0, 0.0, 98.0), "CostBreakdown(n=50, a=50, strip_cost=98.0, local_cost=0.0, total=98.0)"),
}


@pytest.mark.parametrize("cls, fields, values, other, text", RECORDS.values(), ids=list(RECORDS))
class TestFrozenRecords:
    """Each record type behaves as a frozen, slotted dataclass, whatever builds it."""

    @staticmethod
    def with_field(values, other, k):
        """``values`` with its k-th entry taken from ``other``."""
        return (*values[:k], other[k], *values[k + 1:])

    def test_fields_and_keywords(self, cls, fields, values, other, text):
        r = cls(*values)
        assert tuple(getattr(r, f) for f in fields) == values
        assert tuple(f.name for f in dataclasses.fields(cls)) == fields
        assert cls(**dict(zip(fields[::-1], values[::-1]))) == r
        assert cls(*values[:-1], **{fields[-1]: values[-1]}) == r
        with pytest.raises(TypeError):
            cls(*values[:-1])

    def test_repr(self, cls, fields, values, other, text):
        assert repr(cls(*other)) == text

    def test_equality_and_hash(self, cls, fields, values, other, text):
        r = cls(*values)
        assert r == cls(*values)
        assert hash(r) == hash(cls(*values))
        assert r != values
        for k in range(len(fields)):
            assert r != cls(*self.with_field(values, other, k))
        assert len({r, cls(*values), cls(values[1], values[0], *values[2:])}) == 2

    def test_replace(self, cls, fields, values, other, text):
        r = cls(*values)
        for k, f in enumerate(fields):
            assert dataclasses.replace(r, **{f: other[k]}) == cls(*self.with_field(values, other, k))
        assert r == cls(*values)

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, cls, fields, values, other, text, protocol):
        q = pickle.loads(pickle.dumps(cls(*values), protocol))
        assert type(q) is cls and q == cls(*values)
        assert tuple(getattr(q, f) for f in fields) == values

    def test_frozen(self, cls, fields, values, other, text):
        r = cls(*values)
        for f in fields:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(r, f, 0)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(r, f)
        assert tuple(getattr(r, f) for f in fields) == values
        assert not hasattr(r, "__dict__")

    def test_unknown_attribute(self, cls, fields, values, other, text):
        # Python 3.11's frozen slotted dataclass raises TypeError here (a
        # CPython bug in its generated __setattr__); later versions raise
        # FrozenInstanceError, an AttributeError.
        r = cls(*values)
        with pytest.raises((TypeError, AttributeError)):
            r.z = 1
        with pytest.raises((TypeError, AttributeError)):
            del r.z
        assert r == cls(*values)
        assert not hasattr(r, "z")

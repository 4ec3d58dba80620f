import dataclasses
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    def test_frozen(self):
        p = Point(1.0, 2.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.x = 3.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            del p.y
        assert (p.x, p.y) == (1.0, 2.0)
        assert not hasattr(p, "__dict__")

    def test_unknown_attribute(self):
        # Python 3.11's frozen slotted dataclass raises TypeError here (a
        # CPython bug in its generated __setattr__); later versions raise
        # FrozenInstanceError, an AttributeError.
        p = Point(1.0, 2.0)
        with pytest.raises((TypeError, AttributeError)):
            p.z = 1
        with pytest.raises((TypeError, AttributeError)):
            del p.z
        assert (p.x, p.y) == (1.0, 2.0)
        assert not hasattr(p, "z")

    def test_equality_and_hash(self):
        assert Point(1, 2) == Point(1.0, 2.0)
        assert hash(Point(1, 2)) == hash(Point(1.0, 2.0))
        assert Point(-0.0, 0.5) == Point(0.0, 0.5)
        assert hash(Point(-0.0, 0.5)) == hash(Point(0.0, 0.5))
        assert Point(1.0, 2.0) != Point(2.0, 1.0)
        assert Point(1.0, 2.0) != (1.0, 2.0)
        assert len({Point(1.0, 2.0), Point(1, 2), Point(2.0, 1.0)}) == 2

    def test_repr_and_keywords(self):
        assert repr(Point(1.5, -2.0)) == "Point(x=1.5, y=-2.0)"
        assert Point(y=2.0, x=1.0) == Point(1.0, 2.0)
        assert Point(1.0, y=2.0) == Point(1.0, 2.0)
        with pytest.raises(TypeError):
            Point(1.0)

    def test_replace_validates(self):
        p = Point(1.0, 2.0)
        assert dataclasses.replace(p, y=5.0) == Point(1.0, 5.0)
        with pytest.raises(ValueError):
            dataclasses.replace(p, x=math.nan)
        assert [f.name for f in dataclasses.fields(Point)] == ["x", "y"]

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, protocol):
        p = Point(0.1, -3e300)
        q = pickle.loads(pickle.dumps(p, protocol))
        assert type(q) is Point and q == p
        assert (q.x, q.y) == (0.1, -3e300)

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


class TestOpCounter:
    def test_starts_at_zero(self):
        assert OpCounter().dc == 0


class TestClosestPairResult:
    """The result record behaves as a frozen dataclass, whatever builds it."""

    def test_fields_and_keywords(self):
        r = ClosestPairResult(1, 4, 0.25, 7)
        assert (r.i, r.j, r.dist_sq, r.dc_used) == (1, 4, 0.25, 7)
        assert ClosestPairResult(dc_used=7, dist_sq=0.25, j=4, i=1) == r
        assert [f.name for f in dataclasses.fields(ClosestPairResult)] == ["i", "j", "dist_sq", "dc_used"]
        with pytest.raises(TypeError):
            ClosestPairResult(1, 4, 0.25)

    def test_equality_and_hash(self):
        r = ClosestPairResult(1, 4, 0.25, 7)
        assert r == ClosestPairResult(1, 4, 0.25, 7)
        assert hash(r) == hash(ClosestPairResult(1, 4, 0.25, 7))
        assert r != ClosestPairResult(1, 4, 0.25, 8)
        assert r != (1, 4, 0.25, 7)
        assert len({r, ClosestPairResult(1, 4, 0.25, 7), ClosestPairResult(4, 1, 0.25, 7)}) == 2

    def test_repr(self):
        assert repr(ClosestPairResult(0, 2, 1.5, 3)) == "ClosestPairResult(i=0, j=2, dist_sq=1.5, dc_used=3)"

    def test_replace(self):
        r = ClosestPairResult(1, 4, 0.25, 7)
        assert dataclasses.replace(r, dc_used=9) == ClosestPairResult(1, 4, 0.25, 9)
        assert r.dc_used == 7

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, protocol):
        r = ClosestPairResult(3, 5, 2e-300, 11)
        q = pickle.loads(pickle.dumps(r, protocol))
        assert type(q) is ClosestPairResult and q == r

    @pytest.mark.parametrize("field", ["i", "j", "dist_sq", "dc_used"])
    def test_frozen(self, field):
        r = ClosestPairResult(1, 4, 0.25, 7)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(r, field, 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(r, field)
        assert r == ClosestPairResult(1, 4, 0.25, 7)
        assert not hasattr(r, "__dict__")

    def test_unknown_attribute(self):
        # TypeError on Python 3.11, as for ``Point``
        r = ClosestPairResult(1, 4, 0.25, 7)
        with pytest.raises((TypeError, AttributeError)):
            r.z = 1
        with pytest.raises((TypeError, AttributeError)):
            del r.z
        assert r == ClosestPairResult(1, 4, 0.25, 7)
        assert not hasattr(r, "z")

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from closepair.geometry import OpCounter, Point, PointSet, final_distance, squared_distance

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

    def test_scan_spans_off_by_default(self):
        assert OpCounter().scan_spans is None

import functools
import math
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from closepair import solvers
from closepair.cost_model import exact_local_cost
from closepair.errors import DistanceOverflow, InsufficientPoints, InvalidPartition
from closepair.experiments import gen_uniform_points
from closepair.geometry import OpCounter, Point, PointSet, squared_distance
from closepair.solvers import (
    balanced_partition,
    brute_force,
    closest_pair_2way,
    closest_pair_kway,
    strip_scan,
)

from conftest import (
    coord_pairs,
    differential,
    dyadic_pairs,
    oracle_min_dist_sq,
    point_set,
    workloads,
)

point_lists = st.lists(coord_pairs, min_size=2, max_size=24)


SOLVERS = {
    "brute": brute_force,
    "kway a=2": lambda ps, c: closest_pair_kway(ps, 2, c),
    "kway a=3": lambda ps, c: closest_pair_kway(ps, 3, c),
    "kway a=16": lambda ps, c: closest_pair_kway(ps, 16, c),
    "kway a=n": lambda ps, c: closest_pair_kway(ps, len(ps), c),
}


@functools.cache
def seeded_oracle(n, seed):
    """``oracle_min_dist_sq`` of ``gen_uniform_points(n, seed)``, computed once per instance."""
    return oracle_min_dist_sq(gen_uniform_points(n, seed).points)


class TestEverySolver:
    """What every solver must do, checked on brute force and k-way at a = 2, 3, 16 and n."""

    HAND_CHECKED = {
        "two points": ([(0, 0), (3, 4)], (0, 1, 25.0)),
        "one obvious pair": ([(0, 0), (1, 0), (5, 5)], (0, 1, 1.0)),
        "duplicate points": ([(0, 0), (0, 0), (9, 9)], (0, 1, 0.0)),
        "collinear four": ([(0, 0), (2, 0), (2.5, 0), (7, 0)], (1, 2, 0.25)),
        # every point shares one x value: split and line placement rely on tie-breaks
        "one x column": ([(1, 9), (1, 0), (1, 4), (1, 4.5), (1, -3), (1, 20)], (2, 3, 0.25)),
        "five identical": ([(2, 2)] * 5, (0, 1, 0.0)),
    }
    SEEDED = [(40, 99), (100, 20260811), (120, 11), (300, 5), (1000, 31337)]

    @pytest.fixture(params=SOLVERS.values(), ids=list(SOLVERS))
    def solve(self, request):
        return request.param

    @pytest.mark.parametrize("coords, expected", HAND_CHECKED.values(), ids=list(HAND_CHECKED))
    def test_hand_checked(self, solve, coords, expected):
        r = solve(point_set(coords), OpCounter())
        assert (r.i, r.j, r.dist_sq) == expected

    @pytest.mark.parametrize("n, seed", SEEDED, ids=[f"n={n} seed={seed}" for n, seed in SEEDED])
    def test_seeded_against_oracle(self, solve, n, seed):
        ps = gen_uniform_points(n, seed)
        r = solve(ps, OpCounter())
        assert r.dist_sq == seeded_oracle(n, seed)
        assert 0 <= r.i < r.j < n
        assert squared_distance(ps[r.i], ps[r.j], OpCounter()) == r.dist_sq
        assert r.dc_used <= n * (n - 1) // 2

    @pytest.mark.parametrize("coords", [[], [(1, 1)]], ids=["no points", "one point"])
    def test_insufficient_points(self, solve, coords):
        with pytest.raises(InsufficientPoints):
            solve(point_set(coords), OpCounter())

    def test_overflow_to_inf_raises(self, solve):
        # every pair is about 1e200 apart, so every squared distance is inf
        ps = point_set([(0.0, 0.0), (1e200, 0.0), (0.0, 1e200), (-1e200, -1e200)])
        with pytest.raises(DistanceOverflow):
            solve(ps, OpCounter())

    def test_one_finite_pair_among_overflows(self, solve):
        ps = point_set([(0.0, 0.0), (1e200, 0.0), (1e200, 1.0), (-1e200, 5.0)])
        r = solve(ps, OpCounter())
        assert (r.i, r.j, r.dist_sq) == (1, 2, 1.0)

    def test_underflow_reports_zero_for_distinct_points(self, solve):
        # documented: a squared distance below the smallest subnormal is 0
        ps = point_set([(0.0, 0.0), (1e-170, 0.0), (5.0, 5.0), (5.0, 6.0)])
        r = solve(ps, OpCounter())
        assert ps[0] != ps[1]
        assert (r.i, r.j, r.dist_sq) == (0, 1, 0.0)


class TestBruteForce:
    def test_keeps_first_pair_in_input_order_on_tie(self):
        # four pairs of the unit square's corners tie at 1; the first wins
        r = brute_force(point_set([(0, 0), (1, 0), (1, 1), (0, 1)]), OpCounter())
        assert (r.i, r.j, r.dist_sq) == (0, 1, 1.0)

    @pytest.mark.parametrize("n", [2, 5, 17, 60])
    def test_exact_pair_count(self, n):
        c = OpCounter()
        r = brute_force(gen_uniform_points(n, n), c)
        assert r.dc_used == c.dc == n * (n - 1) // 2

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), min_size=2, max_size=24))
    def test_first_minimum_in_pair_order_on_ties(self, coords):
        # A 5 x 5 grid: most sets hold duplicates and many tied pairs.
        ps = point_set([(float(x), float(y)) for x, y in coords])
        n = len(ps)

        def fixed(i, j):
            dx = ps[i].x - ps[j].x
            dy = ps[i].y - ps[j].y
            return dx * dx + dy * dy

        expected = min(((fixed(i, j), i, j) for i, j in combinations(range(n), 2)), key=lambda t: t[0])
        c = OpCounter()
        r = brute_force(ps, c)
        assert (r.dist_sq, r.i, r.j) == expected
        assert c.dc == r.dc_used == n * (n - 1) // 2

    def test_overflow_leaves_the_full_charge(self):
        c = OpCounter()
        with pytest.raises(DistanceOverflow):
            brute_force(point_set([(0, 0), (1e200, 0), (0, -1e200)]), c)
        assert c.dc == 3


def _strip(ps, left, right):
    """Rank-run strip for the point indices ``left`` and ``right`` of ``ps``, as ``strip_scan`` takes it."""
    _, _, ypts, yidx = solvers._presort(ps)
    rank = {k: r for r, k in enumerate(yidx)}
    strip = sorted(rank[k] for k in left) + sorted(rank[k] for k in right)
    return strip, len(left), ypts


def _pair(ps, best):
    """The point indices of ``best``'s y-rank pair, in ascending order."""
    yidx = solvers._presort(ps)[3]
    return sorted(yidx[r] for r in best[1:])


class TestStripScan:
    def test_candidate_inside_window(self):
        ps = point_set([(0, 0), (0.1, 0.1)])
        c = OpCounter()
        best = strip_scan(*_strip(ps, [0], [1]), (1.0, 7, 8), c)
        assert best[0] == squared_distance(ps[0], ps[1], OpCounter())
        assert _pair(ps, best) == [0, 1]
        assert c.dc == 1

    def test_window_exclusion_costs_nothing(self):
        ps = point_set([(0, 0), (0, 10)])
        c = OpCounter()
        best = strip_scan(*_strip(ps, [0], [1]), (1.0, 7, 8), c)
        assert best == (1.0, 7, 8)
        assert c.dc == 0

    def test_empty_state_matches_brute_force_over_strip(self):
        # an infinite minimum excludes no finite gap, so the scan meets every
        # cross pair and ends on their brute-force minimum
        ps = gen_uniform_points(50, 424242)
        left = [k for k in range(50) if ps[k].x < 0.5]
        right = [k for k in range(50) if ps[k].x >= 0.5]
        found = strip_scan(*_strip(ps, left, right), (math.inf, -1, -1), OpCounter())
        i, j = _pair(ps, found)
        best = min(squared_distance(ps[p], ps[q], OpCounter()) for p in left for q in right)
        assert found[0] == best
        assert squared_distance(ps[i], ps[j], OpCounter()) == best
        assert (i in left) != (j in left)

    def test_empty_strip_is_noop(self):
        start = (math.inf, -1, -1)
        assert strip_scan([], 0, [], start, OpCounter()) is start

    def test_single_point_strip_is_noop(self):
        for left, right in ([0], []), ([], [0]):
            c = OpCounter()
            best = strip_scan(*_strip(point_set([(1, 1)]), left, right), (math.inf, -1, -1), c)
            assert best == (math.inf, -1, -1) and c.dc == 0

    def test_split_compares_only_across_the_sides(self):
        # left run (0, 0), (0, 0.1); right run (0.05, 0.05): the two left
        # points are never compared with each other, but the lower left point
        # meets the right one, which then meets the upper
        ps = point_set([(0, 0), (0, 0.1), (0.05, 0.05)])
        c = OpCounter()
        with differential.recorded_spans() as (spans, sizes):
            best = solvers.strip_scan(*_strip(ps, [0, 1], [2]), (1.0, 7, 8), c)
        assert c.dc == 2
        assert best[0] == squared_distance(ps[0], ps[2], OpCounter())
        assert _pair(ps, best) == [0, 2]
        assert (spans, sizes) == ([1, 1], [3])

    def test_records_spans_when_enabled(self):
        # the upper left point is out of reach, so the right point's span is 0
        # and only the strip size counts it
        ps = point_set([(0, 0), (0.1, 0.1), (0, 9)])
        c = OpCounter()
        with differential.recorded_spans() as (spans, sizes):
            solvers.strip_scan(*_strip(ps, [0, 2], [1]), (1.0, 7, 8), c)
        assert (spans, sizes) == ([1], [3])
        assert c.dc == 1


class TestKWay:
    def test_every_a_matches_oracle(self):
        ps = gen_uniform_points(50, 777)
        expected = oracle_min_dist_sq(ps.points)
        for a in range(2, 51):
            assert closest_pair_kway(ps, a, OpCounter()).dist_sq == expected

    def test_invalid_partition(self):
        ps = point_set([(0, 0), (1, 1)])
        for a in (1, 0, -3):
            with pytest.raises(InvalidPartition):
                closest_pair_kway(ps, a, OpCounter())

    def test_presort_cached_per_points_tuple(self):
        # the sorted view is reused while ``points`` stays the same tuple and
        # rebuilt when it is replaced; a stale view would report old indices
        ps = point_set([(0, 0), (0, 1), (10, 10)])
        assert solvers._presort(ps) is solvers._presort(ps)
        r = closest_pair_kway(ps, 2, OpCounter())
        assert (r.i, r.j) == (0, 1)
        ps.points = (ps[2], ps[0], ps[1])
        r = closest_pair_kway(ps, 2, OpCounter())
        assert (r.i, r.j) == (1, 2)

    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("family", ["uniform", "tiny x", "two columns"])
    def test_solves_leave_the_cached_view_intact(self, family, n):
        # The core sorts and edits runs it slices from the cached y-ranks in
        # place.  Had one of them been the cached list itself, every later
        # solve of the set, as in a sweep, would read a corrupt view.
        coords = {
            "uniform": lambda: [(p.x, p.y) for p in gen_uniform_points(n, 5)],
            "tiny x": lambda: differential.tiny_x_coords(n),
            "two columns": lambda: [(float(k % 2), float(k)) for k in range(n)],
        }[family]()
        ps = point_set(coords)
        for a in range(2, n + 3):
            closest_pair_kway(ps, a, OpCounter())
        closest_pair_2way(ps, OpCounter())
        assert ps._sorted[1] == solvers._presort(point_set(coords))

    def test_result_pair_realizes_value(self):
        # a = 2 and n are in TestEverySolver
        ps = gen_uniform_points(120, 11)
        for a in (7, 60):
            r = closest_pair_kway(ps, a, OpCounter())
            assert squared_distance(ps[r.i], ps[r.j], OpCounter()) == r.dist_sq
            assert 0 <= r.i < r.j < len(ps)

    @given(point_lists, st.integers(min_value=2, max_value=30))
    @settings(max_examples=200)
    def test_oracle_equivalence(self, coords, a):
        ps = point_set(coords)
        assert closest_pair_kway(ps, a, OpCounter()).dist_sq == oracle_min_dist_sq(ps.points)


class TestLocalCost:
    def test_identical_points_spend_only_local(self):
        # each node's first region of two or more points returns distance 0,
        # and the node returns before its lines, so no strip DC is spent
        for n in range(2, 130):
            ps = point_set([(0.5, -2.0)] * n)
            for a in range(2, n + 3):
                assert closest_pair_kway(ps, a, OpCounter()).dc_used == exact_local_cost(n, a), (n, a)

    def test_baseline_values(self):
        n = 65_536
        assert [exact_local_cost(n, a) for a in (2, 3, 16, n)] == [32_768, 46_075, 4_096, 1]


class TestCrossSolverProperties:
    @given(point_lists, st.randoms(use_true_random=False))
    @settings(max_examples=200)
    def test_permutation_changes_only_indices(self, coords, rnd):
        ps = point_set(coords)
        expected = brute_force(ps, OpCounter()).dist_sq
        shuffled = list(coords)
        rnd.shuffle(shuffled)
        sps = point_set(shuffled)
        assert brute_force(sps, OpCounter()).dist_sq == expected
        assert closest_pair_2way(sps, OpCounter()).dist_sq == expected
        assert closest_pair_kway(sps, min(3, len(sps)), OpCounter()).dist_sq == expected

    @given(st.lists(dyadic_pairs, min_size=2, max_size=20), st.integers(min_value=-8, max_value=8))
    @settings(max_examples=200)
    def test_power_of_two_scaling(self, coords, k):
        s = 2.0 ** k
        ps = point_set(coords)
        scaled = point_set([(x * s, y * s) for x, y in coords])
        for solve in (
            lambda q, c: brute_force(q, c),
            lambda q, c: closest_pair_2way(q, c),
            lambda q, c: closest_pair_kway(q, min(4, len(q)), c),
        ):
            c0, c1 = OpCounter(), OpCounter()
            r0 = solve(ps, c0)
            r1 = solve(scaled, c1)
            assert r1.dist_sq == (s * s) * r0.dist_sq
            assert r1.dc_used == r0.dc_used

    @given(st.lists(coord_pairs, min_size=2, max_size=40, unique=True))
    @settings(max_examples=200)
    def test_strip_scan_span_bound_with_solved_sides(self, coords):
        # the packing bound needs both sides of the line to carry a pairwise
        # separation of at least the window; every line pairs the regions
        # left of it, merged by the earlier lines, with the one region right
        # of it, solved by the recursion, so the premise holds at every line
        # for every a
        ps = point_set(coords)
        for run in (
            lambda c: closest_pair_kway(ps, 2, c),
            lambda c: closest_pair_kway(ps, 3, c),
            lambda c: closest_pair_kway(ps, len(ps), c),
        ):
            with differential.recorded_spans() as (spans, _):
                run(OpCounter())
            assert all(span <= 7 for span in spans)


def large_inputs():
    for n in (512, 2048):
        yield f"uniform n={n}", [(p.x, p.y) for p in gen_uniform_points(n, 1)]
        for name, coords in differential.degenerate_coords(n).items():
            yield f"{name} n={n}", coords
        yield f"tiny x n={n}", differential.tiny_x_coords(n)
        yield f"sliding window n={n}", differential.sliding_window_coords(n)


LARGE_INPUTS = dict(large_inputs())


class TestExactnessAboveN64:
    """k-way's answer above n = 64, where the brute-force oracle is too slow.

    It runs at six values of a, a = 2 being the 2-way solver.  Multi-level
    recursion and long carried left lists only run at these sizes.  The
    oracle is the benchmark's ``grid_closest_dist_sq``, which does not
    import the package.
    """

    @pytest.mark.parametrize("name", LARGE_INPUTS)
    def test_matches_grid_oracle(self, name):
        ps = PointSet.from_coords(LARGE_INPUTS[name])
        xy = [(p.x, p.y) for p in ps]
        n = len(xy)
        expected = workloads.grid_closest_dist_sq(xy)
        for a in (2, 3, 16, math.isqrt(n), n - 1, n):
            r = closest_pair_kway(ps, a, OpCounter())
            assert r.dist_sq.hex() == expected.hex(), a
            assert 0 <= r.i < r.j < n, a
            assert workloads.squared(xy[r.i], xy[r.j]) == r.dist_sq, a


class TestMetamorphic:
    """The closest squared distance survives exact transforms, with no oracle.

    In binary64, negating a coordinate and swapping x with y are exact and
    keep every pair's squared distance, so every solver must report the same
    distance bit for bit on every transformed copy.  The reported pair may
    change on tied inputs, but it must be a pair of the set at that distance.
    Scaling by a power of two, with no overflow and no subnormal, scales
    every difference, square, sum and midpoint exactly and so keeps every
    comparison: the solves must then take the same path to the same pair.
    N is above the sizes ``TestExactnessAboveN64`` checks against an oracle
    and is not a power of two; the class adds about 2 s to the suite.
    """

    N = 3000
    TRANSFORMS = (
        lambda x, y: (x, y),
        lambda x, y: (-x, y),
        lambda x, y: (x, -y),
        lambda x, y: (y, x),
    )
    INPUTS = pytest.mark.parametrize(
        "coords",
        [
            [(p.x, p.y) for p in gen_uniform_points(N, 3)],
            differential.tiny_x_coords(N),
            differential.sliding_window_coords(N),
        ],
        ids=["uniform", "tiny x", "sliding window"],
    )

    @staticmethod
    def solves(ps):
        """k-way at six values of a, a = 2 being the 2-way solver."""
        n = len(ps)
        return [closest_pair_kway(ps, a, OpCounter()) for a in (2, 3, 16, math.isqrt(n), n - 1, n)]

    @INPUTS
    def test_distance_is_invariant(self, coords):
        n = len(coords)
        dists = set()
        for transform in self.TRANSFORMS:
            ps = point_set([transform(x, y) for x, y in coords])
            for r in self.solves(ps):
                assert 0 <= r.i < r.j < n
                assert squared_distance(ps[r.i], ps[r.j], OpCounter()) == r.dist_sq
                dists.add(r.dist_sq.hex())
        assert len(dists) == 1

    @INPUTS
    @pytest.mark.parametrize("power", [8, -8])
    def test_power_of_two_scaling(self, coords, power):
        scale = 2.0**power
        scaled = [(x * scale, y * scale) for x, y in coords]
        # The scaling is exact here: dividing undoes it, and no coordinate is subnormal.
        assert all(sx / scale == x and sy / scale == y for (x, y), (sx, sy) in zip(coords, scaled))
        assert all(v == 0.0 or abs(v) >= 2.0**-1022 for xy in scaled for v in xy)
        for r, s in zip(self.solves(point_set(coords)), self.solves(point_set(scaled)), strict=True):
            assert (s.i, s.j, s.dc_used) == (r.i, r.j, r.dc_used)
            assert s.dist_sq.hex() == (r.dist_sq * 4.0**power).hex()


class TestFloatEdges:
    @pytest.mark.parametrize("a", [2, 3, 16, "n"])
    @pytest.mark.parametrize("x", [1e308, -1e308, 1.7976931348623157e308])
    def test_vertical_line_near_the_largest_float(self, x, a):
        # Two neighbours' midpoint (x + x) / 2 overflows to inf here, which
        # would skip every line: a line between points of one x sits on it.
        ps = point_set([(x, y) for y in (0.0, 10.0, 11.0, 20.0, 35.0, 50.0, 51.5, 70.0)])
        r = closest_pair_kway(ps, len(ps) if a == "n" else a, OpCounter())
        assert r.dist_sq == brute_force(ps, OpCounter()).dist_sq == 1.0


class TestStripWork:
    """Strip points handed to ``strip_scan`` grow about linearly on degenerate inputs.

    The DC meter does not see strip building, so this reads the strip sizes
    that ``recorded_spans`` of ``tools/differential.py`` observes.  A line
    whose whole left side was passed to the scan made these counts grow 4x
    per doubling of n at a = n.
    """

    FAMILIES = {
        "vertical line": lambda n: [(0.0, float(k)) for k in range(n)],
        "two columns": lambda n: [(float(k % 2), float(k)) for k in range(n)],
        "sliding window": differential.sliding_window_coords,
    }

    @pytest.mark.parametrize("family", list(FAMILIES))
    @pytest.mark.parametrize("a", [16, "n"])
    def test_strip_points_per_doubling(self, family, a):
        totals = []
        for n in (256, 512, 1024):
            ps = point_set(self.FAMILIES[family](n))
            with differential.recorded_spans() as (_, sizes):
                closest_pair_kway(ps, n if a == "n" else a, OpCounter())
            totals.append(sum(sizes))
        assert totals[1] <= 2.5 * totals[0]
        assert totals[2] <= 2.5 * totals[1]


class TestWindowWork:
    """A line reads at most four x values when the window settles both sides at once.

    On a vertical line or two columns every right region is wholly in the
    window and no left point leaves it, so a line needs its two neighbours
    (to place it), the right region's far end and one left-edge test.
    Walking the whole right region instead read, on either family, 11.0 and
    13.0 x values per line at a = 2 and n = 512 and 2,048, and 6.8 and 6.0
    at a = 16; at a = n, with one point per right region, it read 4.0.
    When the far end is out of the window, the walk right starts at the x
    of the point just right of the line, which placed the line, so a
    one-point right region out of the window costs three reads in all.
    """

    FAMILIES = {family: TestStripWork.FAMILIES[family] for family in ("vertical line", "two columns")}

    @pytest.mark.parametrize("family", list(FAMILIES))
    @pytest.mark.parametrize("n", [512, 2048])
    @pytest.mark.parametrize("a", [2, 16, "n"])
    def test_x_reads_per_line(self, family, n, a, core_work):
        closest_pair_kway(point_set(self.FAMILIES[family](n)), n if a == "n" else a, OpCounter())
        assert core_work.lines > 0
        assert core_work.x_reads <= 4 * core_work.lines

    @pytest.mark.parametrize("seed,expected", [(1, 10_076), (8, 10_171)])
    def test_x_reads_uniform_plane_sweep(self, seed, expected, core_work):
        # 2,046 lines at n = 2,048, a = n.  Re-reading the x of an
        # out-of-window one-point right region in the walk read 10,323 and
        # 10,380: one more on each of the 247 (seed 1) and 209 (seed 8)
        # lines skipped with no right point.
        closest_pair_kway(gen_uniform_points(2048, seed), 2048, OpCounter())
        assert [core_work.x_reads, core_work.lines] == [expected, 2046]

    @pytest.mark.parametrize("n", [512, 2048])
    @pytest.mark.parametrize("a", [2, 16, "n"])
    def test_no_x_read_after_a_zero(self, n, a, core_work):
        # Every point twice, so the first leaf already finds 0: from then on
        # no node's line can keep a pair, and none should be placed or walked.
        side = math.isqrt(n // 2)
        cells = [(float(x), float(y)) for x in range(side) for y in range(side)]
        coords = [cells[k % len(cells)] for k in range(n)]
        random.Random(n).shuffle(coords)
        r = closest_pair_kway(point_set(coords), n if a == "n" else a, OpCounter())
        assert r.dist_sq == 0 and core_work.x_reads_at_zero is not None
        assert core_work.x_reads == core_work.x_reads_at_zero


class TestSortWork:
    """Rank entries the core sorts or inserts grow about n log n on degenerate inputs.

    Neither the DC meter nor the strip-point count sees the y order a line is
    built from, so this counts it directly: every entry of the presort's two
    ``sorted`` calls and of each run of y-ranks a line orders with
    ``list.sort``, and one per ``insort``.  The 2-way solver's four-point
    path orders at most two ranks in a list of its own, which is not counted.
    A one-point right run is already in y order and is not sorted, so at
    a = n a line adds one insert unless its left run is found afresh.
    Re-sorting a line's whole in-window left side made these counts grow 4x
    per doubling of n at a = n.  The sizes start at 512: at n = 256 = 16**2
    every node below the top at a = 16 is a plane sweep, about one entry per
    point, so the step to 512, where nodes of 32 split into two-point regions
    that merge, reads 3.3x with no quadratic term in it.

    The pointer shift of a list insert or delete is counted apart, as
    ``core_work.shifted``, and is not gated here.  It is a memmove of up to n
    pointers, quadratic in total but cheap per point: tiny x at a = n shifts
    69,009, 266,826 and 1,041,833 entries at n = 512, 1,024 and 2,048, and
    on a 2-vCPU VM with Python 3.11 takes about 110, 280 and 860 ms at
    n = 16,384, 32,768 and 65,536 (2.6x and 3.0x per doubling, tending to
    4x), where re-sorting each line took 1.4 s at n = 4,096.
    """

    FAMILIES = {**TestStripWork.FAMILIES, "tiny x": differential.tiny_x_coords}

    @pytest.mark.parametrize("family", list(FAMILIES))
    @pytest.mark.parametrize("a", [16, "n"])
    def test_sorted_entries_per_doubling(self, family, a, core_work):
        totals = []
        for n in (512, 1024, 2048):
            before = core_work.sorted + core_work.inserted
            ps = point_set(self.FAMILIES[family](n))
            closest_pair_kway(ps, n if a == "n" else a, OpCounter())
            totals.append(core_work.sorted + core_work.inserted - before)
        assert totals[1] <= 2.5 * totals[0]
        assert totals[2] <= 2.5 * totals[1]

    @pytest.mark.parametrize("family", ["vertical line", "two columns"])
    def test_one_point_line_sorts_nothing(self, family, core_work):
        # At a = n every right run is one point, and here no left point
        # leaves the window: the presort's two sorts of 512 entries and the
        # first line's two-point left run are the only sorted entries, and
        # each of the 509 later lines inserts the point that entered.
        # Sorting every one-point right run as well read 1,536 sorted entries.
        closest_pair_kway(point_set(self.FAMILIES[family](512)), 512, OpCounter())
        assert [core_work.sorted, core_work.inserted] == [1026, 509]
        # On the vertical line each point that enters has the largest rank so
        # far, so its insert shifts nothing.  On two columns the right
        # column's k-th point enters below the 256 - k left ranks above it:
        # 255 + 254 + ... + 0 entries shift.
        assert core_work.shifted == {"vertical line": 0, "two columns": 32_640}[family]


class TestBalancedPartition:
    @given(st.integers(min_value=2, max_value=200), st.integers(min_value=2, max_value=200))
    def test_invariants(self, m, a):
        regions = min(a, m)
        stops = balanced_partition(0, m, regions)
        assert len(stops) == regions
        # contiguous, disjoint, covering
        assert stops[-1] == m
        sizes = [stop - start for start, stop in zip([0] + stops, stops)]
        assert min(sizes) >= 1
        assert max(sizes) - min(sizes) <= 1
        # extras go to the leftmost regions
        assert sizes == sorted(sizes, reverse=True)

    @pytest.mark.parametrize("lo", [0, 17])
    def test_two_regions(self, lo):
        # test_invariants draws two regions only when a or m is 2, so the
        # direct two-run split is checked here at every size: the left run
        # takes the odd point.  Each call returns a new list.
        for m in range(2, 301):
            q, r = divmod(m, 2)
            stops = balanced_partition(lo, lo + m, 2)
            assert stops == [lo + q + r, lo + m]
            assert balanced_partition(lo, lo + m, 2) is not stops

    def test_offset_range(self):
        assert balanced_partition(10, 17, 3) == [13, 15, 17]

    def test_rejects_bad_region_counts(self):
        with pytest.raises(InvalidPartition):
            balanced_partition(0, 2, 3)
        with pytest.raises(InvalidPartition):
            balanced_partition(0, 2, 1)


class TestDividingLine:
    """A line lies at its two neighbours' midpoint, or on their x when they share it."""

    def test_line_between_boundary_points(self):
        # Regions x = {0, 1} and {5, 6}, each pair 17 apart, so the line is
        # at 3 and the right region's far end, 9 from it, is in the window:
        # four cross pairs lie within the window in y, 2 + 4 DCs.  A line at
        # the left neighbour's x = 1 leaves the point at x = 6 out (25).
        ps = point_set([(0.0, 0.0), (1.0, 4.0), (5.0, 0.0), (6.0, 4.0)])
        r = closest_pair_kway(ps, 2, OpCounter())
        assert (r.i, r.j, r.dist_sq, r.dc_used) == (0, 1, 17.0, 6)

    def test_line_on_shared_x(self):
        # The midpoint of two equal x values this large is inf, which would
        # put every point out of the window and skip the line that finds
        # the pair 10-11.
        x = 1.7976931348623157e308
        ps = point_set([(x, 0.0), (x, 10.0), (x, 11.0), (x, 30.0)])
        r = closest_pair_kway(ps, 2, OpCounter())
        assert (r.i, r.j, r.dist_sq, r.dc_used) == (1, 2, 1.0, 3)


class TestRandomizedStress:
    def test_mixed_duplicates_and_grids(self):
        rnd = random.Random(0xC0FFEE)
        for _ in range(150):
            n = rnd.randint(2, 36)
            style = rnd.choice(["grid", "dup", "line", "uniform"])
            if style == "grid":
                coords = [(rnd.randint(0, 5), rnd.randint(0, 5)) for _ in range(n)]
            elif style == "dup":
                base = [(rnd.random(), rnd.random()) for _ in range(max(1, n // 3))]
                coords = [rnd.choice(base) for _ in range(n)]
            elif style == "line":
                coords = [(rnd.random(), 0.25) for _ in range(n)]
            else:
                coords = [(rnd.random(), rnd.random()) for _ in range(n)]
            ps = point_set(coords)
            expected = oracle_min_dist_sq(ps.points)
            assert brute_force(ps, OpCounter()).dist_sq == expected
            for a in {2, 3, (n + 1) // 2, n} - {0, 1}:
                assert closest_pair_kway(ps, a, OpCounter()).dist_sq == expected

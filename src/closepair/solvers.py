"""Closest-pair solvers: brute force and k-way partition divide and conquer.

The classic 2-way solver is the k-way solver with two regions per split.
Every solver returns the same squared distance bit-for-bit on the same input;
they differ only in which pairs they evaluate and therefore in their
distance-computation counts.  The brute-force solver doubles as the oracle
the others are tested against.
"""

import math
from bisect import bisect_left, insort
from itertools import pairwise

from .errors import DistanceOverflow, InsufficientPoints, InvalidPartition
from .geometry import ClosestPairResult, OpCounter, PointSet, squared_distance


def brute_force(point_set: PointSet, counter: OpCounter) -> ClosestPairResult:
    """Evaluate all C(n,2) pairs in input order; exactly n(n-1)/2 DCs.

    Each pair is computed in place with ``squared_distance``'s expression,
    the earlier point first, and the C(n,2) DCs are charged in one step.
    Skipping a call per pair makes the oracle about twice as fast, and the
    oracle no longer shares the primitive that the other solvers are checked
    through, so a change to that primitive shows up as a mismatch.

    Raises ``DistanceOverflow`` when even the closest squared distance is inf.
    """
    n = len(point_set)
    if n < 2:
        raise InsufficientPoints(f"need at least 2 points, got {n}")
    pts = point_set.points
    best, bi, bj = math.inf, -1, -1
    for i in range(n - 1):
        p = pts[i]
        px = p.x
        py = p.y
        for j in range(i + 1, n):
            q = pts[j]
            dx = px - q.x
            dy = py - q.y
            d = dx * dx + dy * dy
            if d < best:
                best, bi, bj = d, i, j
    dc_used = n * (n - 1) // 2
    counter.dc += dc_used
    return _result((best, bi, bj), dc_used)


def _result(best: tuple, dc_used: int) -> ClosestPairResult:
    # ``best`` is the running minimum (dist_sq, i, j), its pair in either
    # index order.  It starts at (inf, -1, -1) and only a strictly closer
    # pair replaces it, so an inf minimum means every pair overflowed: the
    # start was never replaced, and there is no pair to report.
    dist_sq, i, j = best
    if dist_sq == math.inf:
        raise DistanceOverflow(
            "every squared distance overflows to inf: the closest pair is about 1.3e154 or more apart"
        )
    return ClosestPairResult(min(i, j), max(i, j), dist_sq, dc_used)


def strip_scan(strip, split: int, ypts, best: tuple, counter: OpCounter) -> tuple:
    """Merge-walk the two sides of a dividing line; return ``best`` folded with its cross pairs.

    ``strip[:split]`` and ``strip[split:]`` are the left and right sides,
    each a run of ascending y-ranks: rank ``r`` names the point ``ypts[r]``,
    and rank order is (y, original index) order.  ``best`` is the running
    minimum ``(dist_sq, r, s)``, its pair as two y-ranks in either order;
    the caller maps them to input indices.  The two runs are merge-walked
    so that only pairs with one point on each side are compared: each point
    meets the other side's points that follow it in rank order while the
    squared y-gap is below the running minimum.  Every comparison costs one DC, and only a
    strictly closer pair replaces the minimum, so ties keep the first pair
    found; improvements take effect immediately, tightening the window for
    the rest of the scan.
    """
    window = best[0]
    m = len(strip)
    i = 0
    j = split
    while i < split and j < m:
        # The lower of the two run heads goes next and meets the other run
        # from its head on, so every cross pair is met exactly once.
        if strip[j] < strip[i]:
            r = strip[j]
            j += 1
            k, end = i, split
        else:
            r = strip[i]
            i += 1
            k, end = j, m
        p = ypts[r]
        y = p.y
        while k < end:
            s = strip[k]
            q = ypts[s]
            dy = q.y - y
            if dy * dy >= window:
                break
            d = squared_distance(p, q, counter)
            if d < window:
                window = d
                best = (d, r, s)
            k += 1
    return best


def closest_pair_2way(point_set: PointSet, counter: OpCounter) -> ClosestPairResult:
    """Classic divide and conquer: split in half, recurse, scan the middle strip; k-way at a = 2."""
    return closest_pair_kway(point_set, 2, counter)


def closest_pair_kway(point_set: PointSet, a: int, counter: OpCounter) -> ClosestPairResult:
    """Divide and conquer with branching factor ``a``.

    Splits into min(a, n - 1) balanced regions, then sweeps the dividing
    lines left to right sharing one running minimum.  It starts at inf, and
    the regions fold into it left to right before the sweep: a region of
    four or more points recurses with the same ``a``, and one of two or
    three is brute-forced in place; a node of three or fewer points is one
    such region.  Line t's strip pairs the in-window points of regions
    1..t, which the earlier lines have merged, with those of region t+1,
    which is already solved; only pairs across the line cost a DC.  No pair
    is evaluated twice, so a solve spends at most n(n-1)/2 DCs.  The paper's
    n parts (a = n) and any larger ``a`` give the n - 1 regions of a plane
    sweep: a leftmost pair, then one point per line.  How a line is placed
    and its strip found is described in ``_solve``.

    Raises ``InsufficientPoints`` for fewer than two points,
    ``InvalidPartition`` for a < 2, and ``DistanceOverflow`` when even the
    closest squared distance is inf.
    """
    n = len(point_set)
    if n < 2:
        raise InsufficientPoints(f"need at least 2 points, got {n}")
    if a < 2:
        raise InvalidPartition(f"partition parameter must be >= 2, got {a}")
    start = counter.dc
    xs, rank, ypts, yidx = _presort(point_set)
    d, r, s = _solve(xs, rank, ypts, 0, n, a, counter)
    # The core works in y-ranks throughout; the winning ranks are mapped to
    # input indices here, once.  An inf minimum keeps its -1 ranks, and
    # ``_result`` raises before their mapped indices could escape.
    return _result((d, yidx[r], yidx[s]), counter.dc - start)


def balanced_partition(lo: int, hi: int, regions: int) -> list:
    """Stop indices of ``regions`` contiguous runs covering [lo, hi).

    Run sizes differ by at most one, the extras going to the leftmost runs.
    Two runs, the split of every 2-way node, are computed directly: the
    left run takes the odd point.
    """
    m = hi - lo
    if not 2 <= regions <= m:
        raise InvalidPartition(f"cannot split {m} points into {regions} regions")
    if regions == 2:
        return [lo + (m + 1) // 2, hi]
    q, r = divmod(m, regions)
    # r runs of q + 1 points, then regions - r runs of q points
    mid = lo + r * (q + 1)
    return [*range(lo + q + 1, mid + 1, q + 1), *range(mid + q, hi + 1, q)]


def _presort(point_set):
    # Two stable sorts, by y and then by x, put the points in (x, y, index)
    # order, so the equal-size split is deterministic even when x values
    # repeat.  A point's y-rank is its place in (y, index) order, the strip
    # order: ``ypts`` and ``yidx`` hold the points and their indices by
    # y-rank, and ``rank`` and ``xs`` hold the y-rank and x of each x-sorted
    # position.  The view is read-only, so it is cached on the set for as
    # long as its ``points`` tuple stays the same.
    pts = point_set.points
    cached = getattr(point_set, "_sorted", None)
    if cached is not None and cached[0] is pts:
        return cached[1]
    yidx = sorted(range(len(pts)), key=[p.y for p in pts].__getitem__)
    ypts = [pts[k] for k in yidx]
    yxs = [p.x for p in ypts]
    rank = sorted(range(len(pts)), key=yxs.__getitem__)
    xs = [yxs[r] for r in rank]
    view = xs, rank, ypts, yidx
    point_set._sorted = (pts, view)
    return view


def _solve(xs, rank, ypts, lo, hi, a, counter):
    m = hi - lo
    # At most m - 1 regions, so the paper's a = n, and any larger ``a``, is
    # the plane sweep.  A node of three or fewer points is one region, which
    # the loop must brute-force, not recurse into.  The running minimum
    # ``best`` starts at inf, with its distance ``window``, and folds in the
    # regions left to right: one of four or more points recurses, and one of
    # two or three is brute-forced in place (its x-sorted positions 0, 1, 2
    # paired as (0, 1), then (0, 2) and (1, 2)).  A region of exactly four
    # points at a = 2, half of the 2-way solver's nodes, goes to
    # ``_solve_four`` instead; any other ``a`` pays one compare for it.  Run
    # sizes never grow left to right, so the fold stops at the first
    # one-point region: it and every region after it have nothing to pair.
    stops = [hi] if m <= 3 else balanced_partition(lo, hi, a if a < m else m - 1)
    best = (math.inf, -1, -1)
    window = math.inf
    start = lo
    for stop in stops:
        if stop - start > 3:
            if a == 2 and stop - start == 4:
                sub = _solve_four(xs, rank, ypts, start, stop, counter)
            else:
                sub = _solve(xs, rank, ypts, start, stop, a, counter)
            if sub[0] < window:
                best = sub
                window = sub[0]
        elif stop - start > 1:
            r = rank[start]
            s = rank[start + 1]
            p = ypts[r]
            q = ypts[s]
            d = squared_distance(p, q, counter)
            if d < window:
                best = (d, r, s)
                window = d
            if stop - start == 3:
                t = rank[start + 2]
                u = ypts[t]
                d = squared_distance(p, u, counter)
                if d < window:
                    best = (d, r, t)
                    window = d
                d = squared_distance(q, u, counter)
                if d < window:
                    best = (d, s, t)
                    window = d
        else:
            break
        start = stop
    # Only a strictly closer pair replaces the minimum, so once it is 0 no
    # line can keep anything.
    if window == 0:
        return best
    # A pair with points in regions s < r is a cross pair at line r-1 only,
    # where both points lie within d(p, q) of the line: a pair closer than
    # the window is scanned there and nowhere else.  A line's strip is a
    # list of y-ranks, found so that the line costs about what can cross it.
    # On either side the in-window points are a run that ends at the line,
    # as dx only grows away from it, so each side tests its run's far end
    # first and walks only when that end is out of the window, and every
    # walk step is paid for: a right or backward step is one entry of a
    # sort, and a forward step passes a point that was inserted once.  The
    # line only moves right and the window only shrinks, so a left point
    # out of the window stays out: ``first``, the first in-window position,
    # never moves left, and ``left`` carries the y-ranks of positions
    # [first, held) from line to line.  ``window`` changes only when a
    # strip scan returns.  Runs are put in y order in place, but only in
    # fresh slices: ``rank`` is the presort's view, which later solves of
    # the same set reuse.
    first = held = lo
    for boundary, end in pairwise(stops):
        # The line lies between positions boundary - 1 and boundary, at
        # their midpoint, or on their x when they share it: the midpoint of
        # two equal x values near the largest float overflows.
        xl = xs[boundary - 1]
        xr = xs[boundary]
        x_line = xl if xl == xr else (xl + xr) / 2.0
        # dx only grows rightward: if the right region's far end is in the
        # window, all of it is.  Otherwise walk right from the line, starting
        # at the x just read; the far end is out, so the walk stops there at
        # the latest.
        last = end
        dx = xs[end - 1] - x_line
        if dx * dx >= window:
            last = boundary
            dx = xr - x_line
            while dx * dx < window:
                last += 1
                dx = xs[last] - x_line
        # The window is symmetric about the line, so with no right point in it
        # the left side is empty too, up to rounding: nothing can cross.
        if last == boundary:
            continue
        # Walk the left edge past carried points that left the window: each
        # step passes a point that was inserted once.
        gone = first
        while first < held:
            dx = xs[first] - x_line
            if dx * dx < window:
                break
            first += 1
        if first < held:
            # Delete the points that left the window, if any, then add the
            # regions that entered it: one point by insertion, more by one
            # merge.
            if first != gone:
                for r in rank[gone:first]:
                    del left[bisect_left(left, r)]
            if boundary - held == 1:
                insort(left, rank[held])
            else:
                left += rank[held:boundary]
                left.sort()
        else:
            # Every carried point has left.  If position ``held`` has too,
            # walk back from the boundary, where the contiguous in-window run
            # ends; the walk stops above ``held``, and each step is one entry
            # of the fresh sort.
            dx = xs[held] - x_line
            if dx * dx >= window:
                first = boundary
                while True:
                    dx = xs[first - 1] - x_line
                    if dx * dx >= window:
                        break
                    first -= 1
            left = rank[first:boundary]
            left.sort()
        held = boundary
        # Only left points within the window of the right side's y range can
        # meet a right point.  Both sides are solved, so left points are
        # pairwise at least the window apart and only a few lie within the
        # window of either end: bisect to each end, then step outward past them.
        # A one-point run, the plane sweep's usual line, is held as its rank:
        # it is already in y order and both its ends are its point, so one
        # bisection and one y.
        if last - boundary == 1:
            right = rank[boundary]
            keep = stop = bisect_left(left, right)
            low = high = ypts[right].y
        else:
            right = rank[boundary:last]
            right.sort()
            keep = bisect_left(left, right[0])
            stop = bisect_left(left, right[-1], keep)
            low = ypts[right[0]].y
            high = ypts[right[-1]].y
        while keep:
            dy = low - ypts[left[keep - 1]].y
            if dy * dy >= window:
                break
            keep -= 1
        while stop < len(left):
            dy = ypts[left[stop]].y - high
            if dy * dy >= window:
                break
            stop += 1
        if keep < stop:
            # The strip is the band, then the right run: one new list.
            strip = left[keep:stop]
            if last - boundary == 1:
                strip.append(right)
            else:
                strip += right
            best = strip_scan(strip, stop - keep, ypts, best, counter)
            window = best[0]
    return best


def _solve_four(xs, rank, ypts, lo, hi, counter):
    # ``_solve`` on a 2-way node of four points, in straight-line code: the
    # same partition call, pairs, line and strip, so the same DCs in the
    # same order, without the fold, the line loop, the carried list and the
    # y-band walks.  The minimum starts from the first pair: were it inf,
    # it could not replace the parent's, so its ranks never escape.
    boundary, end = balanced_partition(lo, hi, 2)
    r, s = rank[lo:boundary]
    t, u = rank[boundary:end]
    window = squared_distance(ypts[r], ypts[s], counter)
    best = (window, r, s)
    d = squared_distance(ypts[t], ypts[u], counter)
    if d < window:
        best = (d, t, u)
        window = d
    if window == 0:
        return best
    # Each side's in-window run, found with ``_solve``'s tests: both of its
    # points if the far one is in the window, else the near one if it is,
    # else nothing crosses the line.  Runs are put in rank order by
    # ``list.sort``, the band only when it is not empty.
    xl = xs[boundary - 1]
    xr = xs[boundary]
    x_line = xl if xl == xr else (xl + xr) / 2.0
    dx = xs[end - 1] - x_line
    if dx * dx < window:
        right = [t, u]
        right.sort()
    else:
        dx = xr - x_line
        if dx * dx >= window:
            return best
        right = [t]
    dx = xs[lo] - x_line
    if dx * dx < window:
        left = (r, s)
    else:
        dx = xl - x_line
        if dx * dx >= window:
            return best
        left = (s,)
    # ``_solve``'s y-band keeps the left points whose y gap to the right
    # run's y range is in the window.  Gaps only grow away from the range,
    # so testing each point keeps the run its walks keep.  Only a gap g > 0
    # can fail ``g * abs(g) < window``: the window is positive here, so a
    # point passes the test of the side it is not on, and one inside the
    # range passes both, with no test of which side it is on.
    low = ypts[right[0]].y
    high = ypts[right[-1]].y
    band = []
    for k in left:
        y = ypts[k].y
        dy = low - y
        dz = y - high
        if dy * abs(dy) < window and dz * abs(dz) < window:
            band.append(k)
    if band:
        band.sort()
        return strip_scan(band + right, len(band), ypts, best, counter)
    return best

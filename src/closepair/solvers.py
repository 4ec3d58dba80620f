"""Closest-pair solvers: brute force and k-way partition divide and conquer.

The classic 2-way solver is the k-way solver with two regions per split.
Every solver returns the same squared distance bit-for-bit on the same input;
they differ only in which pairs they evaluate and therefore in their
distance-computation counts.  The brute-force solver doubles as the oracle
the others are tested against.
"""

import math
from dataclasses import dataclass

from .errors import DistanceOverflow, InsufficientPoints, InvalidPartition
from .geometry import ClosestPairResult, OpCounter, PointSet, squared_distance


@dataclass(slots=True)
class MergeState:
    """Running minimum over all pairs evaluated so far; empty until the first offer."""

    i: int = -1
    j: int = -1
    dist_sq: float | None = None

    def offer(self, d: float, i: int, j: int) -> None:
        """Fold in one evaluated pair; strictly closer pairs win, first found keeps ties."""
        if self.dist_sq is None or d < self.dist_sq:
            if i > j:
                i, j = j, i
            self.i = i
            self.j = j
            self.dist_sq = d


def brute_force(point_set: PointSet, counter: OpCounter) -> ClosestPairResult:
    """Evaluate all C(n,2) pairs in input order; exactly n(n-1)/2 DCs.

    Raises ``DistanceOverflow`` when even the closest squared distance is inf.
    """
    n = len(point_set)
    if n < 2:
        raise InsufficientPoints(f"need at least 2 points, got {n}")
    start = counter.dc
    pts = point_set.points
    state = MergeState()
    for i in range(n - 1):
        pi = pts[i]
        for j in range(i + 1, n):
            state.offer(squared_distance(pi, pts[j], counter), i, j)
    return _result(state, counter.dc - start)


def _result(state: MergeState, dc_used: int) -> ClosestPairResult:
    # Once the minimum is inf every pair ties at inf, so the pair that won
    # says nothing about the input: refuse to report one.
    if state.dist_sq == math.inf:
        raise DistanceOverflow(
            "every squared distance overflows to inf: the closest pair is about 1.3e154 or more apart"
        )
    return ClosestPairResult(state.i, state.j, state.dist_sq, dc_used)


def strip_scan(strip, state: MergeState, counter: OpCounter, split=None) -> MergeState:
    """Scan a y-sorted strip, folding candidate pairs into the running minimum.

    ``strip`` is a sequence of (Point, original_index) pairs.  Without
    ``split`` it is one run sorted by (y, original index) ascending, and each
    point is compared against subsequent points while the squared y-gap is
    below the current best; when the state is empty the first comparison
    happens unconditionally.  With ``split``, ``strip[:split]`` and
    ``strip[split:]`` are the two sides of a dividing line, each sorted the
    same way, and the two runs are walked against each other so that only
    pairs with one point on each side are compared: each point meets the
    other side's points that follow it in (y, original index) order.  Every
    comparison costs one DC, and improvements take effect immediately,
    tightening the window for the rest of the scan.

    When ``counter.scan_spans`` is a list, each strip point appends the
    number of successors it was compared against.  The k-way core passes
    only the left points inside the right side's y-band (those that can meet
    a right point), so left points outside it log no span; they would log 0,
    so span sums and maxima are the same as over the whole in-window strip.
    """
    spans = counter.scan_spans
    best = state.dist_sq
    m = len(strip)
    if split is None:
        for i in range(m):
            pi, oi = strip[i]
            yi = pi.y
            span = 0
            for j in range(i + 1, m):
                pj, oj = strip[j]
                if best is not None:
                    dy = pj.y - yi
                    if dy * dy >= best:
                        break
                span += 1
                d = squared_distance(pi, pj, counter)
                if best is None or d < best:
                    state.offer(d, oi, oj)
                    best = d
            if spans is not None:
                spans.append(span)
        return state
    i = 0
    j = split
    while i < split and j < m:
        p, op = strip[i]
        q, oq = strip[j]
        # The lower of the two run heads goes next and meets the other run
        # from its head on, so every cross pair is met exactly once.
        if q.y < p.y or (q.y == p.y and oq < op):
            p, op = q, oq
            j += 1
            k, end = i, split
        else:
            i += 1
            k, end = j, m
        y = p.y
        span = 0
        while k < end:
            q, oq = strip[k]
            if best is not None:
                dy = q.y - y
                if dy * dy >= best:
                    break
            span += 1
            d = squared_distance(p, q, counter)
            if best is None or d < best:
                state.offer(d, op, oq)
                best = d
            k += 1
        if spans is not None:
            spans.append(span)
    if spans is not None:
        # the rest of the longer run has no successor on the other side
        spans.extend([0] * (m - i - j + split))
    return state


def closest_pair_2way(point_set: PointSet, counter: OpCounter) -> ClosestPairResult:
    """Classic divide and conquer: split in half, recurse, scan the middle strip; k-way at a = 2."""
    return closest_pair_kway(point_set, 2, counter)


def closest_pair_kway(point_set: PointSet, a: int, counter: OpCounter) -> ClosestPairResult:
    """Divide and conquer with branching factor ``a``.

    Splits into min(a, n) balanced regions, recurses into regions of two or
    more points with the same ``a``, then sweeps the dividing lines left to
    right sharing one running minimum.  Line t's strip pairs the in-window
    points of regions 1..t, which the earlier lines have merged, with those
    of region t+1, which the recursion has solved; only pairs across the line
    cost a DC.  No pair is evaluated twice, so a solve spends at most
    n(n-1)/2 DCs, and both sides of every strip are separated by at least the
    window.  When every region is a single point (a = n) the minimum starts
    empty and is seeded with line 1's only cross pair, which leaves that line
    nothing to scan.  Values of ``a`` above n are clamped to n.

    Each line's strip is found by galloping search, so a line costs about
    what can cross it: the in-window run left of the line, then the left
    points within the window of region t+1's y range.  Left points a window
    or more below or above that range are not passed to ``strip_scan`` and
    log no span; they would meet nothing, so pairs, DC counts and span sums
    and maxima are unchanged.  Raises ``DistanceOverflow`` when even the
    closest squared distance is inf.
    """
    n = len(point_set)
    if n < 2:
        raise InsufficientPoints(f"need at least 2 points, got {n}")
    if a < 2:
        raise InvalidPartition(f"partition parameter must be >= 2, got {a}")
    start = counter.dc
    state = _solve(*_presort(point_set), 0, n, a, counter)
    return _result(state, counter.dc - start)


def balanced_partition(lo: int, hi: int, regions: int) -> list:
    """Stop indices of ``regions`` contiguous runs covering [lo, hi).

    Run sizes differ by at most one, the extras going to the leftmost runs.
    """
    m = hi - lo
    if not 2 <= regions <= m:
        raise InvalidPartition(f"cannot split {m} points into {regions} regions")
    q, r = divmod(m, regions)
    # r runs of q + 1 points, then regions - r runs of q points
    mid = lo + r * (q + 1)
    return [*range(lo + q + 1, mid + 1, q + 1), *range(mid + q, hi + 1, q)]


def dividing_x(xs, stop: int) -> float:
    """x of the line left of sorted position ``stop``: its neighbours' midpoint or shared x."""
    xl = xs[stop - 1]
    xr = xs[stop]
    return xl if xl == xr else (xl + xr) / 2.0


def _presort(point_set):
    # Two stable sorts, by y and then by x, put the points in (x, y, index)
    # order, so the equal-size split is deterministic even when x values
    # repeat.  The strip order is (y, index): ``ypts`` and ``yidx`` hold the
    # points and their indices in that order, and ``rank`` maps each x-sorted
    # position to its place in it.  The view is read-only, so it is cached on
    # the set for as long as its ``points`` tuple stays the same.
    pts = point_set.points
    cached = getattr(point_set, "_sorted", None)
    if cached is not None and cached[0] is pts:
        return cached[1]
    yidx = sorted(range(len(pts)), key=[p.y for p in pts].__getitem__)
    ypts = [pts[k] for k in yidx]
    rank = sorted(range(len(pts)), key=[p.x for p in ypts].__getitem__)
    spts = [ypts[r] for r in rank]
    order = [yidx[r] for r in rank]
    xs = [p.x for p in spts]
    view = spts, order, xs, rank, ypts, yidx
    point_set._sorted = (pts, view)
    return view


def _solve(spts, order, xs, rank, ypts, yidx, lo, hi, a, counter):
    m = hi - lo
    if m <= 3:
        state = MergeState()
        for i in range(lo, hi - 1):
            for j in range(i + 1, hi):
                state.offer(squared_distance(spts[i], spts[j], counter), order[i], order[j])
        return state
    stops = balanced_partition(lo, hi, min(a, m))
    # The first solved region's state is the running minimum as it stands:
    # offering it into a fresh state would only copy it.
    state = None
    start = lo
    for stop in stops:
        if stop - start >= 2:
            sub = _solve(spts, order, xs, rank, ypts, yidx, start, stop, a, counter)
            if state is None:
                state = sub
            else:
                state.offer(sub.dist_sq, sub.i, sub.j)
        start = stop
    if state is None:
        # Every region is a single point, so line 1's only cross pair is the
        # seed across it, and the sweep enters line 2 with a finite window.
        state = MergeState()
        state.offer(squared_distance(spts[lo], spts[lo + 1], counter), order[lo], order[lo + 1])
        stops = stops[1:]
    # A pair with points in regions s < r is a cross pair at line r-1 only,
    # where both points lie within d(p, q) of the line: a pair closer than
    # the window is scanned there and nowhere else.
    for boundary, end in zip(stops, stops[1:]):
        x_line = dividing_x(xs, boundary)
        window = state.dist_sq
        # In-window points are contiguous in x order and end at the boundary:
        # gallop out from it, doubling the step while the probe is in the
        # window, then halve the step back down onto the first in-window point.
        first = boundary
        step = 1
        while first - step >= lo:
            dx = xs[first - step] - x_line
            if dx * dx >= window:
                break
            first -= step
            step += step
        while step > 1:
            step >>= 1
            if first - step >= lo:
                dx = xs[first - step] - x_line
                if dx * dx < window:
                    first -= step
        if first == boundary:
            continue
        last = boundary
        while last < end:
            dx = xs[last] - x_line
            if dx * dx < window:
                last += 1
            else:
                break
        if last == boundary:
            continue
        right = sorted(rank[boundary:last])
        left = sorted(rank[first:boundary])
        # A left point a window or more below the lowest right point, or above
        # the highest, meets nothing in the scan; those points are a prefix
        # and a suffix of the y order, so gallop in from both ends.
        low = ypts[right[0]].y
        stop = len(left)
        keep = 0
        step = 1
        while keep + step <= stop:
            dy = low - ypts[left[keep + step - 1]].y
            if dy <= 0 or dy * dy < window:
                break
            keep += step
            step += step
        while step > 1:
            step >>= 1
            if keep + step <= stop:
                dy = low - ypts[left[keep + step - 1]].y
                if dy > 0 and dy * dy >= window:
                    keep += step
        high = ypts[right[-1]].y
        step = 1
        while stop - step >= keep:
            dy = ypts[left[stop - step]].y - high
            if dy <= 0 or dy * dy < window:
                break
            stop -= step
            step += step
        while step > 1:
            step >>= 1
            if stop - step >= keep:
                dy = ypts[left[stop - step]].y - high
                if dy > 0 and dy * dy >= window:
                    stop -= step
        if keep < stop:
            strip = [(ypts[r], yidx[r]) for r in left[keep:stop]]
            split = len(strip)
            strip += [(ypts[r], yidx[r]) for r in right]
            strip_scan(strip, state, counter, split)
    return state

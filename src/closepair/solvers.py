"""Closest-pair solvers: brute force and k-way partition divide and conquer.

The classic 2-way solver is the k-way solver with two regions per split.
Every solver returns the same squared distance bit-for-bit on the same input;
they differ only in which pairs they evaluate and therefore in their
distance-computation counts.  The brute-force solver doubles as the oracle
the others are tested against.
"""

from dataclasses import dataclass

from .errors import InsufficientPoints, InvalidPartition
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
    """Evaluate all C(n,2) pairs in input order; exactly n(n-1)/2 DCs."""
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
    return ClosestPairResult(state.i, state.j, state.dist_sq, counter.dc - start)


def strip_scan(strip, state: MergeState, counter: OpCounter) -> MergeState:
    """Scan a y-sorted strip, folding cross-candidate pairs into the running minimum.

    ``strip`` is a sequence of (Point, original_index) pairs sorted by
    (y, original index) ascending.  Each point is compared against subsequent
    points while the squared y-gap is below the current best; when the state
    is empty the first comparison happens unconditionally.  Every comparison
    costs one DC, and improvements take effect immediately, tightening the
    window for the rest of the scan.
    """
    spans = counter.scan_spans
    best = state.dist_sq
    m = len(strip)
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


def closest_pair_2way(point_set: PointSet, counter: OpCounter) -> ClosestPairResult:
    """Classic divide and conquer: split in half, recurse, scan the middle strip; k-way at a = 2."""
    return closest_pair_kway(point_set, 2, counter)


def closest_pair_kway(point_set: PointSet, a: int, counter: OpCounter) -> ClosestPairResult:
    """Divide and conquer with branching factor ``a``.

    Splits into min(a, n) balanced regions, recurses into regions of two or
    more points with the same ``a``, then sweeps the dividing lines left to
    right sharing one running minimum.  An empty minimum at a line is seeded
    with a single distance across that line, so a = n (all regions singletons,
    zero local work) still enters its strips with a finite window.  Values of
    ``a`` above n are clamped to n.
    """
    n = len(point_set)
    if n < 2:
        raise InsufficientPoints(f"need at least 2 points, got {n}")
    if a < 2:
        raise InvalidPartition(f"partition parameter must be >= 2, got {a}")
    start = counter.dc
    state = _solve(*_presort(point_set), 0, n, a, counter)
    return ClosestPairResult(state.i, state.j, state.dist_sq, counter.dc - start)


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
    # position to its place in it.
    pts = point_set.points
    yidx = sorted(range(len(pts)), key=[p.y for p in pts].__getitem__)
    ypts = [pts[k] for k in yidx]
    rank = sorted(range(len(pts)), key=[p.x for p in ypts].__getitem__)
    spts = [ypts[r] for r in rank]
    order = [yidx[r] for r in rank]
    xs = [p.x for p in spts]
    return spts, order, xs, rank, ypts, yidx


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
        state = MergeState()
    for boundary in stops[:-1]:
        if state.dist_sq is None:
            d = squared_distance(spts[boundary - 1], spts[boundary], counter)
            state.offer(d, order[boundary - 1], order[boundary])
        x_line = dividing_x(xs, boundary)
        window = state.dist_sq
        # In-window points are contiguous in x order: grow outward from the boundary.
        first = boundary
        while first > lo:
            dx = xs[first - 1] - x_line
            if dx * dx < window:
                first -= 1
            else:
                break
        last = boundary
        while last < hi:
            dx = xs[last] - x_line
            if dx * dx < window:
                last += 1
            else:
                break
        strip = [(ypts[r], yidx[r]) for r in sorted(rank[first:last])]
        strip_scan(strip, state, counter)
    return state

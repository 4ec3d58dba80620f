"""Planar points and the instrumented distance primitive.

The divide-and-conquer core charges its pairwise work through
``squared_distance``, which bumps an :class:`OpCounter` by exactly one per
evaluation.  Brute force evaluates the same expression in place and charges
its C(n,2) DCs in one step: it is about twice as fast without a call per
pair, and as the oracle it should not share the primitive it checks.
Comparisons are done on squared distances throughout; the square
root is applied once, at reporting time, by ``final_distance`` and is never
counted.
"""

import math
from dataclasses import dataclass
from math import isfinite


@dataclass(frozen=True, slots=True, init=False)
class Point:
    """A 2-D point with finite coordinates.

    Frozen: equality, hashing, ``repr``, ``match`` and ``dataclasses.replace``
    come from the dataclass.  The constructor is written out rather than
    generated, because every parsed or generated point passes through it: it
    checks both coordinates once and stores them through the slot
    descriptors, which the frozen ``__setattr__`` does not guard.  A
    non-finite coordinate raises ``ValueError``, a non-number ``TypeError``.
    """

    x: float
    y: float

    def __init__(self, x, y):
        if not (isfinite(x) and isfinite(y)):
            raise ValueError(f"point coordinates must be finite, got ({x}, {y})")
        _set_x(self, x)
        _set_y(self, y)


_set_x = Point.x.__set__
_set_y = Point.y.__set__


class PointSet:
    """An ordered, indexable collection of points. Duplicates are allowed.

    ``_sorted`` caches the solvers' presorted view of ``points`` (see
    ``solvers._presort``) as a ``(points, view)`` pair, so solving one set
    with many partition parameters sorts it once.  The view is four lists:
    the x-sorted positions' x values and y-ranks, and the points and their
    indices in y-rank order.
    """

    __slots__ = ("points", "_sorted")

    def __init__(self, points):
        self.points = tuple(points)
        for p in self.points:
            if not isinstance(p, Point):
                raise TypeError(f"expected Point, got {type(p).__name__}")

    @classmethod
    def from_coords(cls, coords):
        """Build a set from an iterable of (x, y) pairs."""
        return cls(Point(float(x), float(y)) for x, y in coords)

    def __len__(self) -> int:
        return len(self.points)

    def __getitem__(self, i):
        return self.points[i]

    def __iter__(self):
        return iter(self.points)

    def __eq__(self, other):
        return isinstance(other, PointSet) and self.points == other.points

    def __repr__(self):
        return f"PointSet(n={len(self.points)})"


@dataclass(slots=True)
class OpCounter:
    """Counts distance computations for a single solver invocation."""

    dc: int = 0


@dataclass(frozen=True, slots=True)
class ClosestPairResult:
    """Winning index pair, its squared distance, and the DCs spent finding it."""

    i: int
    j: int
    dist_sq: float
    dc_used: int


def squared_distance(p: Point, q: Point, counter: OpCounter) -> float:
    """Squared Euclidean distance between p and q; costs exactly one DC.

    The expression order is fixed as (p.x-q.x)**2 + (p.y-q.y)**2 so that
    every solver produces bit-identical values for the same winning pair;
    ``solvers.brute_force`` writes the same expression out in place.
    """
    counter.dc += 1
    dx = p.x - q.x
    dy = p.y - q.y
    return dx * dx + dy * dy


def final_distance(dist_sq: float) -> float:
    """Square root applied at reporting time only; never counted."""
    return math.sqrt(dist_sq)

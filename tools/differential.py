"""Differential run of the divide-and-conquer solvers over a fixed random corpus.

Usage: python3 tools/differential.py <src> <out>

Imports ``closepair`` from the source directory <src>, solves 4,000 inputs
drawn from ``random.Random(0xD1FF)`` (n from 2 to 40; uniform, duplicate,
repeated-x, signed-zero, small-grid, two-column and vertical-line styles),
then 600 tiny-x inputs drawn from ``random.Random(0x717E)`` (n from 2 to 60;
``y = k`` and ``x = random() * w`` with w = 1e-9, 1 or n, so that left
points stay in the window, leave it slowly or leave it fast while the x and
y orders disagree), with ``closest_pair_2way`` and with
``closest_pair_kway`` at every a in 2..n+2, and writes one row per solve to
<out>:
``(i, j, dist_sq.hex(), dc_used, nonzero scan spans in order)``, the spans
as ``recorded_spans`` observes them from outside the solver.  It prints
the row count, the number of mismatches, and the sha256 of <out>.  A solve
mismatches when its distance differs from ``brute_force``'s, when its pair
is not ``0 <= i < j < n``, when its pair's squared distance is not its
distance, or when its DCs are not ``cost_model.exact_local_cost(n, a)``
plus the sum of its spans (a = 2 for the 2-way solver), so that every DC
is a region's or a strip's and the strip DCs, the spans, are never
negative.  The tree must have ``exact_local_cost``.  Two source trees that
evaluate the same pairs in the same order print the same digest.  Exits 1
on any mismatch and 2 on a usage error.  Standard library only.  The test
suite imports ``corpus`` and ``run`` to gate on a fixed prefix of the
corpus (``tests/test_differential.py``), ``recorded_spans`` to check the
per-point scan bound and the strip sizes, and the coordinates of the fixed
degenerate inputs (``degenerate_coords``, ``tiny_x_coords``,
``sliding_window_coords``), which ``tools/opcount.py`` and the solver pins
share.
"""

import hashlib
import math
import random
import sys
from contextlib import contextmanager

STYLES = ("uniform", "duplicates", "repeated x", "signed zeros", "grid", "two columns", "vertical line")


def make_coords(rnd, style, n):
    if style == "uniform":
        return [(rnd.random(), rnd.random()) for _ in range(n)]
    if style == "duplicates":
        base = [(rnd.random(), rnd.random()) for _ in range(max(1, n // 3))]
        return [rnd.choice(base) for _ in range(n)]
    if style == "repeated x":
        return [(float(rnd.randint(0, 5)), rnd.random()) for _ in range(n)]
    if style == "signed zeros":
        return [(rnd.choice((0.0, -0.0, rnd.random() - 0.5)), rnd.choice((0.0, -0.0, rnd.random())))
                for _ in range(n)]
    if style == "grid":
        return [(float(rnd.randint(0, 4)), float(rnd.randint(0, 4))) for _ in range(n)]
    if style == "two columns":
        return [(float(k % 2), rnd.random()) for k in range(n)]
    return [(0.5, rnd.random()) for _ in range(n)]


def corpus():
    rnd = random.Random(0xD1FF)
    for case in range(4000):
        yield make_coords(rnd, STYLES[case % len(STYLES)], rnd.randint(2, 40))
    rnd = random.Random(0x717E)
    for _ in range(600):
        n = rnd.randint(2, 60)
        width = rnd.choice((1e-9, 1.0, float(n)))
        yield [(rnd.random() * width, float(k)) for k in range(n)]


def degenerate_coords(n=512):
    """The inputs of the benchmark's ``degenerate_mix``, as ``{name: coords}``.

    The families are two columns, a vertical line and a duplicate grid.
    Each is shuffled and then translated by one ``random.Random(1)``, in
    that order and one family after the other.
    """
    side = max(2, math.isqrt(n // 2))
    cells = [(x, y) for x in range(side) for y in range(side)]
    families = {
        "two columns": [(k % 2, k) for k in range(n)],
        "vertical line": [(0, k) for k in range(n)],
        "duplicate grid": [cells[k % len(cells)] for k in range(n)],
    }
    rng = random.Random(1)
    for coords in families.values():
        rng.shuffle(coords)
        ox, oy = rng.randint(-1000, 1000), rng.randint(-1000, 1000)
        coords[:] = [(x + ox, y + oy) for x, y in coords]
    return families


def tiny_x_coords(n):
    """``x = random() * 1e-9, y = k``: every point stays in the window while x and y orders disagree."""
    rng = random.Random(5)
    return [(rng.random() * 1e-9, float(k)) for k in range(n)]


def sliding_window_coords(n):
    """``x = k / 64, y = (37 k) mod n``: about 100 in-window left points, one leaving per line."""
    return [(k / 64, float((37 * k) % n)) for k in range(n)]


@contextmanager
def recorded_spans():
    """Record the strip scans' spans while the block runs; yields ``(spans, sizes)``.

    A strip point's span is the number of successors on the other side of
    the line it is compared with.  The spans show the classical bound of 7
    successors per point (Preparata & Shamos 1985, section 5.4): the solvers
    scan only pairs across a line whose two sides are both already solved.
    The solver does not log them.  Instead ``solvers.strip_scan`` and
    ``solvers.squared_distance`` are swapped for wrappers, and restored when
    the block ends, however it ends.  A span is a run of consecutive DCs
    inside one ``strip_scan`` call whose first argument is the same ``Point``
    object, as every DC of a strip point has that point first.  ``spans``
    gets the nonzero spans in scan order, and ``sizes`` the length of each
    call's strip, so a point compared with nothing adds to ``sizes`` only.
    A set that holds one ``Point`` object twice can merge two spans.
    """
    from closepair import solvers

    scan = solvers.strip_scan
    measure = solvers.squared_distance
    spans = []
    sizes = []
    outside = object()
    head = outside

    def scanning(strip, *args):
        nonlocal head
        sizes.append(len(strip))
        head = None
        try:
            return scan(strip, *args)
        finally:
            head = outside

    def measuring(p, q, counter):
        nonlocal head
        if head is not outside:
            if p is not head:
                head = p
                spans.append(0)
            spans[-1] += 1
        return measure(p, q, counter)

    solvers.strip_scan = scanning
    solvers.squared_distance = measuring
    try:
        yield spans, sizes
    finally:
        solvers.strip_scan = scan
        solvers.squared_distance = measure


def run(cases, out):
    """Solve each ``(case, coords)`` of ``cases`` as described above, writing its rows to ``out``.

    Returns ``(rows, mismatches)``.  ``closepair`` is imported here, from
    wherever ``sys.path`` finds it.
    """
    from closepair.cost_model import exact_local_cost
    from closepair.geometry import OpCounter, PointSet, squared_distance
    from closepair.solvers import brute_force, closest_pair_2way, closest_pair_kway

    rows = 0
    mismatches = 0
    for case, coords in cases:
        ps = PointSet.from_coords(coords)
        n = len(ps)
        expected = brute_force(ps, OpCounter()).dist_sq
        runs = [("2way", 2, lambda c: closest_pair_2way(ps, c))]
        runs += [(f"a={a}", a, lambda c, a=a: closest_pair_kway(ps, a, c)) for a in range(2, n + 3)]
        for label, a, solve in runs:
            with recorded_spans() as (spans, _):
                r = solve(OpCounter())
            mismatches += (
                r.dist_sq != expected
                or not 0 <= r.i < r.j < n
                or squared_distance(ps[r.i], ps[r.j], OpCounter()) != r.dist_sq
                or r.dc_used != exact_local_cost(n, a) + sum(spans)
            )
            rows += 1
            out.write(f"{case} {label} {(r.i, r.j, r.dist_sq.hex(), r.dc_used, spans)}\n")
    return rows, mismatches


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    sys.path.insert(0, argv[1])
    with open(argv[2], "w") as out:
        rows, mismatches = run(enumerate(corpus()), out)
    with open(argv[2], "rb") as f:
        digest = hashlib.sha256(f.read()).hexdigest()
    print(f"rows {rows}  mismatches {mismatches}  sha256 {digest}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

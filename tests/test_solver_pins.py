"""Pinned solver outputs on a fixed corpus, degenerate inputs included.

Each entry records ``(i, j, dist_sq.hex(), dc_used, sum of scan spans)`` for
one solver on one instance, the spans as ``recorded_spans`` of
``tools/differential.py`` observes them.  The values were recorded before
the 2-way solver became the k-way core at ``a = 2``; any change to which
pairs a solver evaluates, in what order, or how ties resolve shows up here
as a diff.  The 2-way solver, which is k-way at ``a = 2``, is held to its
case's ``kway a=2`` row; every other test here runs k-way only.

The last two columns were re-recorded when each dividing line's strip was
restricted to pairs across the line (the regions left of it against the one
region right of it), so that no pair is evaluated twice.  That changed 31 of
the 72 rows, only in ``dc_used`` and the span sum, and none went up; every
``(i, j, dist_sq.hex())`` stayed as first recorded.

``DEGENERATE_PINS`` covers the inputs of the benchmark's ``degenerate_mix``
workload (two columns, a vertical line and a duplicate grid at n=512, shuffled
and translated as its seed 1 does) at a = 2, 16 and n.  They were recorded
before each line's strip was narrowed by galloping search.  Its tiny-x row
(``x = random() * 1e-9, y = k`` at n=512), which keeps every left point in
the window while the x and y orders disagree, was recorded before each node
carried its left side's y order from line to line.  Its sliding-window row
(``x = k / 64, y = (37 k) mod n`` at n=512), where about 100 left points are
in the window at each line and one leaves per line, was recorded before the
x-window's ends were found by walking instead of galloping search.

``STRIP_WORK_PINS`` records, per solve, the total number of strip points
handed to ``strip_scan`` and the number of scan calls, the sum and the length
of the strip sizes ``recorded_spans`` observes, on uniform n=2048, on the
``degenerate_mix`` inputs and on the tiny-x and sliding-window inputs.  A
y-band trimmed too loosely only adds points that meet nothing (span 0), which
DCs, span sums and the differential digest cannot see; these counts can.
They were recorded before the strip became a list of y-ranks (the tiny-x row
before the left side's y order was carried across lines, the sliding-window
row before the x-window was found by walking).

``TIE_PINS`` covers ties and duplicates, where a point lies exactly one
window from a dividing line or the window is 0: four inputs of
``tools/differential.py``'s corpus (two small grids and two signed-zero
sets, named by their case number) and a 4x4 integer lattice whose four inner
points appear twice, at a = 2, 16 and n.  Each x-window walk's stopping
test (``>=`` or ``<`` against the window) changes at least one of these
rows when made strict or loose.  They were recorded before 2- and 3-point
regions were solved inside their node's region loop.

Three more ``TIE_PINS`` inputs, of eight points each, hold 2-way nodes of
four points, which ``_solve_four`` solves, with a gap exactly on the window
at each of its window tests; they were recorded before that path existed.
One puts a right far end's x gap on the window in one node and left
points' y gaps on either side of the right run in the other; it is also a
``STRIP_WORK`` input.  The other two need
a line that is not at the exact midpoint: the midpoint of 1 and 2**53
rounds to 2**52, 2**52 from the right point and 2**52 - 1 from the left
one, so the near right point's gap is on the window while the near left
point is inside it, and the mirror image puts the near left point's gap on
the window.  Each of the path's ``>=`` and ``<`` window tests changes a
row here when made strict or loose, the y gaps' in ``STRIP_WORK_PINS``
only: a left point exactly one window from the right run meets no right
point, so only the strip sizes show it.
"""

import itertools

import pytest

from closepair.experiments import gen_uniform_points
from closepair.geometry import OpCounter, Point, PointSet
from closepair.solvers import closest_pair_2way, closest_pair_kway

from conftest import differential


def _coords(n, seed):
    return [(p.x, p.y) for p in gen_uniform_points(n, seed)]


def _signed_zeros():
    zeros = [
        (0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0),
        (0.0, 1.0), (-0.0, 1.0), (1.0, -0.0), (-1.0, 0.0),
        (-0.0, 0.5), (0.5, -0.0), (0.0, 2.0), (-0.0, 3.0),
    ]
    spread = [(x - 0.5, y - 0.5) for x, y in _coords(12, 14)]
    return zeros + spread + [(-0.0, y) for _, y in spread[:4]]


def _corpus():
    cases = {f"uniform n={n} seed={seed}": _coords(n, seed) for n, seed in
             [(2, 1), (3, 2), (5, 3), (17, 4), (40, 5), (64, 6), (200, 7)]}
    cases["two columns n=48"] = [(float(k % 2), y) for k, (_, y) in enumerate(_coords(48, 11))]
    cases["vertical line n=40"] = [(0.5, y) for _, y in _coords(40, 12)]
    cases["duplicate grid 5x4 x3"] = [(float(k % 5), float((k // 5) % 4)) for k in range(60)]
    cases["repeated x n=50"] = [(float(int(x * 6)), y) for x, y in _coords(50, 13)]
    cases["signed zeros n=28"] = _signed_zeros()
    return {name: PointSet(Point(x, y) for x, y in coords) for name, coords in cases.items()}


CORPUS = _corpus()


DEGENERATE = {
    f"{name} n=512": PointSet.from_coords(coords) for name, coords in differential.degenerate_coords().items()
}

# Drawn from its own generator, so the benchmark inputs above stay byte-identical.
TINY_X = {"tiny x n=512": PointSet.from_coords(differential.tiny_x_coords(512))}
SLIDING_WINDOW = {"sliding window n=512": PointSet.from_coords(differential.sliding_window_coords(512))}

SOLVERS = {
    "2way": lambda ps, c: closest_pair_2way(ps, c),
    "kway a=2": lambda ps, c: closest_pair_kway(ps, 2, c),
    "kway a=3": lambda ps, c: closest_pair_kway(ps, 3, c),
    "kway a=4": lambda ps, c: closest_pair_kway(ps, 4, c),
    "kway a=16": lambda ps, c: closest_pair_kway(ps, 16, c),
    "kway a=n": lambda ps, c: closest_pair_kway(ps, len(ps), c),
}


def pinned_row(solver, ps):
    with differential.recorded_spans() as (spans, _):
        r = SOLVERS[solver](ps, OpCounter())
    return (r.i, r.j, r.dist_sq.hex(), r.dc_used, sum(spans))


PINS = {
    "uniform n=2 seed=1": {
        "kway a=2": (0, 1, "0x1.0488d4728d63ap-2", 1, 0),
        "kway a=3": (0, 1, "0x1.0488d4728d63ap-2", 1, 0),
        "kway a=4": (0, 1, "0x1.0488d4728d63ap-2", 1, 0),
        "kway a=16": (0, 1, "0x1.0488d4728d63ap-2", 1, 0),
        "kway a=n": (0, 1, "0x1.0488d4728d63ap-2", 1, 0),
    },
    "uniform n=3 seed=2": {
        "kway a=2": (0, 1, "0x1.2a4d725476158p-12", 3, 0),
        "kway a=3": (0, 1, "0x1.2a4d725476158p-12", 3, 0),
        "kway a=4": (0, 1, "0x1.2a4d725476158p-12", 3, 0),
        "kway a=16": (0, 1, "0x1.2a4d725476158p-12", 3, 0),
        "kway a=n": (0, 1, "0x1.2a4d725476158p-12", 3, 0),
    },
    "uniform n=5 seed=3": {
        "kway a=2": (0, 2, "0x1.e2138f86acafap-7", 4, 0),
        "kway a=3": (0, 2, "0x1.e2138f86acafap-7", 3, 1),
        "kway a=4": (0, 2, "0x1.e2138f86acafap-7", 2, 1),
        "kway a=16": (0, 2, "0x1.e2138f86acafap-7", 2, 1),
        "kway a=n": (0, 2, "0x1.e2138f86acafap-7", 2, 1),
    },
    "uniform n=17 seed=4": {
        "kway a=2": (8, 11, "0x1.625af4458b9bcp-10", 13, 3),
        "kway a=3": (8, 11, "0x1.625af4458b9bcp-10", 11, 3),
        "kway a=4": (8, 11, "0x1.625af4458b9bcp-10", 7, 3),
        "kway a=16": (8, 11, "0x1.625af4458b9bcp-10", 5, 4),
        "kway a=n": (8, 11, "0x1.625af4458b9bcp-10", 5, 4),
    },
    "uniform n=40 seed=5": {
        "kway a=2": (0, 26, "0x1.51f738147773ep-12", 43, 11),
        "kway a=3": (0, 26, "0x1.51f738147773ep-12", 29, 16),
        "kway a=4": (0, 26, "0x1.51f738147773ep-12", 36, 4),
        "kway a=16": (0, 26, "0x1.51f738147773ep-12", 34, 2),
        "kway a=n": (0, 26, "0x1.51f738147773ep-12", 5, 4),
    },
    "uniform n=64 seed=6": {
        "kway a=2": (32, 47, "0x1.193ea48e0b7d0p-12", 57, 25),
        "kway a=3": (32, 47, "0x1.193ea48e0b7d0p-12", 64, 17),
        "kway a=4": (32, 47, "0x1.193ea48e0b7d0p-12", 43, 27),
        "kway a=16": (32, 47, "0x1.193ea48e0b7d0p-12", 35, 19),
        "kway a=n": (32, 47, "0x1.193ea48e0b7d0p-12", 13, 12),
    },
    "uniform n=200 seed=7": {
        "kway a=2": (123, 161, "0x1.551aab029597dp-14", 234, 50),
        "kway a=3": (123, 161, "0x1.551aab029597dp-14", 201, 44),
        "kway a=4": (123, 161, "0x1.551aab029597dp-14", 219, 43),
        "kway a=16": (123, 161, "0x1.551aab029597dp-14", 76, 60),
        "kway a=n": (123, 161, "0x1.551aab029597dp-14", 9, 8),
    },
    "two columns n=48": {
        "kway a=2": (4, 26, "0x1.272a79711ebb1p-20", 50, 2),
        "kway a=3": (4, 26, "0x1.272a79711ebb1p-20", 27, 6),
        "kway a=4": (4, 26, "0x1.272a79711ebb1p-20", 50, 2),
        "kway a=16": (4, 26, "0x1.272a79711ebb1p-20", 48, 0),
        "kway a=n": (4, 26, "0x1.272a79711ebb1p-20", 5, 4),
    },
    "vertical line n=40": {
        "kway a=2": (2, 33, "0x1.a3b166d0caa84p-21", 32, 0),
        "kway a=3": (2, 33, "0x1.a3b166d0caa84p-21", 21, 8),
        "kway a=4": (2, 33, "0x1.a3b166d0caa84p-21", 32, 0),
        "kway a=16": (2, 33, "0x1.a3b166d0caa84p-21", 33, 1),
        "kway a=n": (2, 33, "0x1.a3b166d0caa84p-21", 3, 2),
    },
    "duplicate grid 5x4 x3": {
        "kway a=2": (0, 20, "0x0.0p+0", 36, 0),
        "kway a=3": (0, 20, "0x0.0p+0", 39, 0),
        "kway a=4": (0, 20, "0x0.0p+0", 28, 4),
        "kway a=16": (0, 20, "0x0.0p+0", 28, 4),
        "kway a=n": (0, 20, "0x0.0p+0", 1, 0),
    },
    "repeated x n=50": {
        "kway a=2": (7, 23, "0x1.5e299cd95bd9cp-15", 47, 1),
        "kway a=3": (7, 23, "0x1.5e299cd95bd9cp-15", 29, 6),
        "kway a=4": (7, 23, "0x1.5e299cd95bd9cp-15", 47, 3),
        "kway a=16": (7, 23, "0x1.5e299cd95bd9cp-15", 45, 1),
        "kway a=n": (7, 23, "0x1.5e299cd95bd9cp-15", 6, 5),
    },
    "signed zeros n=28": {
        "kway a=2": (1, 2, "0x0.0p+0", 24, 4),
        "kway a=3": (0, 1, "0x0.0p+0", 31, 6),
        "kway a=4": (1, 2, "0x0.0p+0", 17, 5),
        "kway a=16": (0, 1, "0x0.0p+0", 12, 0),
        "kway a=n": (0, 1, "0x0.0p+0", 5, 4),
    },
}


DEGENERATE_PINS = {
    "two columns n=512": {
        "kway a=2": (342, 485, "0x1.0000000000000p+1", 767, 511),
        "kway a=16": (342, 485, "0x1.0000000000000p+1", 767, 511),
        "kway a=n": (342, 485, "0x1.0000000000000p+1", 512, 511),
    },
    "vertical line n=512": {
        "kway a=2": (276, 290, "0x1.0000000000000p+0", 256, 0),
        "kway a=16": (276, 290, "0x1.0000000000000p+0", 256, 0),
        "kway a=n": (276, 290, "0x1.0000000000000p+0", 1, 0),
    },
    "duplicate grid n=512": {
        "kway a=2": (177, 483, "0x0.0p+0", 256, 0),
        "kway a=16": (177, 483, "0x0.0p+0", 256, 0),
        "kway a=n": (177, 483, "0x0.0p+0", 1, 0),
    },
    "tiny x n=512": {
        "kway a=2": (66, 67, "0x1.0000000000000p+0", 444, 188),
        "kway a=16": (66, 67, "0x1.0000000000000p+0", 307, 51),
        "kway a=n": (66, 67, "0x1.0000000000000p+0", 9, 8),
    },
    "sliding window n=512": {
        "kway a=2": (14, 97, "0x1.5748000000000p+1", 1303, 1047),
        "kway a=16": (1, 84, "0x1.5748000000000p+1", 1088, 832),
        "kway a=n": (1, 84, "0x1.5748000000000p+1", 512, 511),
    },
}


def _tie_corpus(cases=(66, 67, 759, 3616)):
    coords = list(itertools.islice(differential.corpus(), max(cases) + 1))
    out = {f"differential case {c}": PointSet.from_coords(coords[c]) for c in cases}
    lattice = [(x, y) for x in range(4) for y in range(4)]
    inner = [(x, y) for x in (1, 2) for y in (1, 2)]
    out["lattice 4x4, inner points twice"] = PointSet.from_coords(lattice + inner)
    # A four-point node is never the root, so each sits in an eight-point
    # input: two tie nodes side by side, or one beside four points on a
    # far-left x.
    plain = [(-2.0**60, float(k)) for k in range(4)]
    out["four-point far x and y gaps"] = PointSet.from_coords(
        [(0, 0), (0, 2), (2, 10), (3, 0), (8, 0), (8, 6), (9, 2), (9, 4)])
    out["four-point near x gap, right"] = PointSet.from_coords(
        plain + [(0, -2**53), (1, 0), (2**53, 0), (2**53, 2**52)])
    out["four-point near x gap, left"] = PointSet.from_coords(
        plain + [(-2**53, -2**52), (-2**53, 0), (-1, 0), (0, 2**53)])
    return out


TIES = _tie_corpus()

TIE_PINS = {
    "differential case 66": {  # signed zeros, n=25
        "kway a=2": (5, 7, "0x0.0p+0", 27, 4),
        "kway a=16": (5, 7, "0x0.0p+0", 9, 0),
        "kway a=n": (2, 5, "0x0.0p+0", 2, 1),
    },
    "differential case 67": {  # grid, n=9
        "kway a=2": (2, 6, "0x1.0000000000000p+0", 6, 0),
        "kway a=16": (2, 6, "0x1.0000000000000p+0", 4, 3),
        "kway a=n": (2, 6, "0x1.0000000000000p+0", 4, 3),
    },
    "differential case 759": {  # signed zeros, n=23
        "kway a=2": (3, 6, "0x0.0p+0", 22, 0),
        "kway a=16": (3, 6, "0x0.0p+0", 7, 0),
        "kway a=n": (1, 3, "0x0.0p+0", 6, 5),
    },
    "differential case 3616": {  # grid, n=19
        "kway a=2": (5, 18, "0x0.0p+0", 18, 4),
        "kway a=16": (5, 18, "0x0.0p+0", 6, 3),
        "kway a=n": (5, 18, "0x0.0p+0", 5, 4),
    },
    "lattice 4x4, inner points twice": {
        "kway a=2": (5, 16, "0x0.0p+0", 16, 0),
        "kway a=16": (5, 16, "0x0.0p+0", 7, 3),
        "kway a=n": (5, 16, "0x0.0p+0", 3, 2),
    },
    "four-point far x and y gaps": {  # window 4 in both nodes
        "kway a=2": (0, 1, "0x1.0000000000000p+2", 4, 0),
        "kway a=16": (0, 1, "0x1.0000000000000p+2", 1, 0),
        "kway a=n": (0, 1, "0x1.0000000000000p+2", 1, 0),
    },
    "four-point near x gap, right": {  # window 2**104 in the four-point node
        "kway a=2": (0, 1, "0x1.0000000000000p+0", 4, 0),
        "kway a=16": (0, 1, "0x1.0000000000000p+0", 1, 0),
        "kway a=n": (0, 1, "0x1.0000000000000p+0", 1, 0),
    },
    "four-point near x gap, left": {  # window 2**104 in the four-point node
        "kway a=2": (0, 1, "0x1.0000000000000p+0", 4, 0),
        "kway a=16": (0, 1, "0x1.0000000000000p+0", 1, 0),
        "kway a=n": (0, 1, "0x1.0000000000000p+0", 1, 0),
    },
}


STRIP_WORK = {
    "uniform n=2048 seed=8": gen_uniform_points(2048, 8), **DEGENERATE, **TINY_X, **SLIDING_WINDOW,
    "four-point far x and y gaps": TIES["four-point far x and y gaps"],
}

STRIP_WORK_PINS = {
    "uniform n=2048 seed=8": {"kway a=2": (5443, 807), "kway a=16": (2431, 742), "kway a=n": (29, 14)},
    "two columns n=512": {"kway a=2": (512, 1), "kway a=16": (519, 8), "kway a=n": (767, 256)},
    "vertical line n=512": {"kway a=2": (0, 0), "kway a=16": (0, 0), "kway a=n": (0, 0)},
    "duplicate grid n=512": {"kway a=2": (0, 0), "kway a=16": (0, 0), "kway a=n": (0, 0)},
    "tiny x n=512": {"kway a=2": (3731, 217), "kway a=16": (5871, 227), "kway a=n": (17, 8)},
    "sliding window n=512": {"kway a=2": (3295, 241), "kway a=16": (3002, 250), "kway a=n": (1022, 510)},
    "four-point far x and y gaps": {"kway a=2": (0, 0), "kway a=16": (0, 0), "kway a=n": (0, 0)},
}


@pytest.mark.parametrize("case", sorted(CORPUS))
@pytest.mark.parametrize("solver", list(SOLVERS))
def test_pinned_output(case, solver):
    assert pinned_row(solver, CORPUS[case]) == PINS[case]["kway a=2" if solver == "2way" else solver]


@pytest.mark.parametrize("case", sorted(DEGENERATE_PINS))
@pytest.mark.parametrize("solver", ["kway a=2", "kway a=16", "kway a=n"])
def test_pinned_benchmark_inputs(case, solver):
    assert pinned_row(solver, STRIP_WORK[case]) == DEGENERATE_PINS[case][solver]


@pytest.mark.parametrize("case", sorted(TIE_PINS))
@pytest.mark.parametrize("solver", ["kway a=2", "kway a=16", "kway a=n"])
def test_pinned_ties(case, solver):
    assert pinned_row(solver, TIES[case]) == TIE_PINS[case][solver]


@pytest.mark.parametrize("case", sorted(STRIP_WORK))
@pytest.mark.parametrize("solver", ["kway a=2", "kway a=16", "kway a=n"])
def test_pinned_strip_work(case, solver):
    with differential.recorded_spans() as (_, sizes):
        SOLVERS[solver](STRIP_WORK[case], OpCounter())
    assert (sum(sizes), len(sizes)) == STRIP_WORK_PINS[case][solver]


# The corpus stops at n = 200, where a solve reuses a carried left list on at
# most 148 lines and deletes from it at most 102 times; the strip-work inputs
# reach 1,272 and 544.
@pytest.mark.parametrize("solver,case", [
    *itertools.product([s for s in SOLVERS if s != "2way"], sorted(CORPUS)),
    *itertools.product(["kway a=2", "kway a=16", "kway a=n"], sorted(STRIP_WORK)),
])
def test_each_pair_evaluated_at_most_once(solver, case, core_work):
    ps = CORPUS[case] if case in CORPUS else STRIP_WORK[case]
    r = SOLVERS[solver](ps, OpCounter())
    assert len(core_work.pairs) == r.dc_used
    assert len(set(core_work.pairs)) == len(core_work.pairs)
    assert r.dc_used <= len(ps) * (len(ps) - 1) // 2


# At a = n - 1 the leftmost region holds two points and every other region
# one.  A node never splits into more regions than that, so a = n - 1, n and
# n + 5 must run the same sweep from the same leftmost pair: the same pairs
# in the same order, hence the same spans and strip sizes.
LEFTMOST_SWEEP = {
    **{name: ps for name, ps in CORPUS.items() if len(ps) >= 3},
    **DEGENERATE,
    **TINY_X,
    **SLIDING_WINDOW,
    "uniform n=2048 seed=8": STRIP_WORK["uniform n=2048 seed=8"],
}


@pytest.mark.parametrize("case", sorted(LEFTMOST_SWEEP))
def test_a_at_least_n_minus_1_runs_one_sweep(case):
    ps = LEFTMOST_SWEEP[case]
    n = len(ps)
    rows = []
    for a in (n - 1, n, n + 5):
        with differential.recorded_spans() as (spans, sizes):
            r = closest_pair_kway(ps, a, OpCounter())
        rows.append((r.i, r.j, r.dist_sq.hex(), r.dc_used, spans, sizes))
    assert rows[0] == rows[1] == rows[2]

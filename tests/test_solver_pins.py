"""Pinned solver outputs on a fixed corpus, degenerate inputs included.

Each entry records ``(i, j, dist_sq.hex(), dc_used, sum of scan spans)`` for
one solver on one instance.  The values were recorded before the 2-way solver
became the k-way core at ``a = 2``; any change to which pairs a solver
evaluates, in what order, or how ties resolve shows up here as a diff.
"""

import pytest

from closepair.experiments import gen_uniform_points
from closepair.geometry import OpCounter, Point, PointSet
from closepair.solvers import closest_pair_2way, closest_pair_kway


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

SOLVERS = {
    "2way": lambda ps, c: closest_pair_2way(ps, c),
    "kway a=2": lambda ps, c: closest_pair_kway(ps, 2, c),
    "kway a=3": lambda ps, c: closest_pair_kway(ps, 3, c),
    "kway a=4": lambda ps, c: closest_pair_kway(ps, 4, c),
    "kway a=16": lambda ps, c: closest_pair_kway(ps, 16, c),
    "kway a=n": lambda ps, c: closest_pair_kway(ps, len(ps), c),
}


def pinned_row(solver, ps):
    counter = OpCounter(scan_spans=[])
    r = SOLVERS[solver](ps, counter)
    return (r.i, r.j, r.dist_sq.hex(), r.dc_used, sum(counter.scan_spans))


PINS = {
    "uniform n=2 seed=1": {
        "2way": (0, 1, "0x1.0488d4728d63ap-2", 1, 0),
        "kway a=2": (0, 1, "0x1.0488d4728d63ap-2", 1, 0),
        "kway a=3": (0, 1, "0x1.0488d4728d63ap-2", 1, 0),
        "kway a=4": (0, 1, "0x1.0488d4728d63ap-2", 1, 0),
        "kway a=16": (0, 1, "0x1.0488d4728d63ap-2", 1, 0),
        "kway a=n": (0, 1, "0x1.0488d4728d63ap-2", 1, 0),
    },
    "uniform n=3 seed=2": {
        "2way": (0, 1, "0x1.2a4d725476158p-12", 3, 0),
        "kway a=2": (0, 1, "0x1.2a4d725476158p-12", 3, 0),
        "kway a=3": (0, 1, "0x1.2a4d725476158p-12", 3, 0),
        "kway a=4": (0, 1, "0x1.2a4d725476158p-12", 3, 0),
        "kway a=16": (0, 1, "0x1.2a4d725476158p-12", 3, 0),
        "kway a=n": (0, 1, "0x1.2a4d725476158p-12", 3, 0),
    },
    "uniform n=5 seed=3": {
        "2way": (0, 2, "0x1.e2138f86acafap-7", 4, 0),
        "kway a=2": (0, 2, "0x1.e2138f86acafap-7", 4, 0),
        "kway a=3": (0, 2, "0x1.e2138f86acafap-7", 3, 1),
        "kway a=4": (0, 2, "0x1.e2138f86acafap-7", 2, 1),
        "kway a=16": (0, 2, "0x1.e2138f86acafap-7", 3, 2),
        "kway a=n": (0, 2, "0x1.e2138f86acafap-7", 3, 2),
    },
    "uniform n=17 seed=4": {
        "2way": (8, 11, "0x1.625af4458b9bcp-10", 14, 4),
        "kway a=2": (8, 11, "0x1.625af4458b9bcp-10", 14, 4),
        "kway a=3": (8, 11, "0x1.625af4458b9bcp-10", 16, 8),
        "kway a=4": (8, 11, "0x1.625af4458b9bcp-10", 19, 15),
        "kway a=16": (8, 11, "0x1.625af4458b9bcp-10", 16, 15),
        "kway a=n": (8, 11, "0x1.625af4458b9bcp-10", 17, 16),
    },
    "uniform n=40 seed=5": {
        "2way": (0, 26, "0x1.51f738147773ep-12", 51, 19),
        "kway a=2": (0, 26, "0x1.51f738147773ep-12", 51, 19),
        "kway a=3": (0, 26, "0x1.51f738147773ep-12", 40, 27),
        "kway a=4": (0, 26, "0x1.51f738147773ep-12", 43, 11),
        "kway a=16": (0, 26, "0x1.51f738147773ep-12", 36, 4),
        "kway a=n": (0, 26, "0x1.51f738147773ep-12", 68, 67),
    },
    "uniform n=64 seed=6": {
        "2way": (32, 47, "0x1.193ea48e0b7d0p-12", 70, 38),
        "kway a=2": (32, 47, "0x1.193ea48e0b7d0p-12", 70, 38),
        "kway a=3": (32, 47, "0x1.193ea48e0b7d0p-12", 77, 30),
        "kway a=4": (32, 47, "0x1.193ea48e0b7d0p-12", 83, 67),
        "kway a=16": (32, 47, "0x1.193ea48e0b7d0p-12", 74, 58),
        "kway a=n": (32, 47, "0x1.193ea48e0b7d0p-12", 72, 71),
    },
    "uniform n=200 seed=7": {
        "2way": (123, 161, "0x1.551aab029597dp-14", 267, 83),
        "kway a=2": (123, 161, "0x1.551aab029597dp-14", 267, 83),
        "kway a=3": (123, 161, "0x1.551aab029597dp-14", 242, 85),
        "kway a=4": (123, 161, "0x1.551aab029597dp-14", 280, 104),
        "kway a=16": (123, 161, "0x1.551aab029597dp-14", 230, 214),
        "kway a=n": (123, 161, "0x1.551aab029597dp-14", 63, 62),
    },
    "two columns n=48": {
        "2way": (4, 26, "0x1.272a79711ebb1p-20", 50, 2),
        "kway a=2": (4, 26, "0x1.272a79711ebb1p-20", 50, 2),
        "kway a=3": (4, 26, "0x1.272a79711ebb1p-20", 27, 6),
        "kway a=4": (4, 26, "0x1.272a79711ebb1p-20", 50, 2),
        "kway a=16": (4, 26, "0x1.272a79711ebb1p-20", 48, 0),
        "kway a=n": (4, 26, "0x1.272a79711ebb1p-20", 5, 4),
    },
    "vertical line n=40": {
        "2way": (2, 33, "0x1.a3b166d0caa84p-21", 32, 0),
        "kway a=2": (2, 33, "0x1.a3b166d0caa84p-21", 32, 0),
        "kway a=3": (2, 33, "0x1.a3b166d0caa84p-21", 21, 8),
        "kway a=4": (2, 33, "0x1.a3b166d0caa84p-21", 32, 0),
        "kway a=16": (2, 33, "0x1.a3b166d0caa84p-21", 33, 1),
        "kway a=n": (2, 33, "0x1.a3b166d0caa84p-21", 3, 2),
    },
    "duplicate grid 5x4 x3": {
        "2way": (0, 20, "0x0.0p+0", 36, 0),
        "kway a=2": (0, 20, "0x0.0p+0", 36, 0),
        "kway a=3": (0, 20, "0x0.0p+0", 39, 0),
        "kway a=4": (0, 20, "0x0.0p+0", 28, 4),
        "kway a=16": (0, 20, "0x0.0p+0", 28, 4),
        "kway a=n": (0, 20, "0x0.0p+0", 1, 0),
    },
    "repeated x n=50": {
        "2way": (7, 23, "0x1.5e299cd95bd9cp-15", 47, 1),
        "kway a=2": (7, 23, "0x1.5e299cd95bd9cp-15", 47, 1),
        "kway a=3": (7, 23, "0x1.5e299cd95bd9cp-15", 29, 6),
        "kway a=4": (7, 23, "0x1.5e299cd95bd9cp-15", 47, 3),
        "kway a=16": (7, 23, "0x1.5e299cd95bd9cp-15", 45, 1),
        "kway a=n": (7, 23, "0x1.5e299cd95bd9cp-15", 6, 5),
    },
    "signed zeros n=28": {
        "2way": (1, 2, "0x0.0p+0", 26, 6),
        "kway a=2": (1, 2, "0x0.0p+0", 26, 6),
        "kway a=3": (0, 1, "0x0.0p+0", 35, 10),
        "kway a=4": (1, 2, "0x0.0p+0", 23, 11),
        "kway a=16": (0, 1, "0x0.0p+0", 12, 0),
        "kway a=n": (0, 1, "0x0.0p+0", 13, 12),
    },
}


@pytest.mark.parametrize("case", sorted(CORPUS))
@pytest.mark.parametrize("solver", list(SOLVERS))
def test_pinned_output(case, solver):
    assert pinned_row(solver, CORPUS[case]) == PINS[case][solver]

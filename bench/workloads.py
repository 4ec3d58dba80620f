"""The benchmark's workloads: seeded inputs, timed items, oracles and checks.

A workload builds its inputs and oracle answers in ``setup`` and then offers a
fixed *block* of items.  The runner times items, cycling through the block, and
checks every output against the oracle outside the timed region.  Outputs are
deterministic for a seed, so the first output of each block item also feeds
the output digest and the exact ``dc_per_item``.

Every call into the package goes through a module attribute looked up at call
time (``pkg.solvers.closest_pair_kway``), so the tracer can swap timing
wrappers onto those attributes without touching the package.
"""

import contextlib
import io
import math
import random
import sys
from collections import Counter


class BenchError(Exception):
    """The benchmark itself could not run or found an inconsistency in its own counts."""


def squared(p, q):
    """Squared distance in the package's fixed expression order (bit-identical results)."""
    dx = p[0] - q[0]
    dy = p[1] - q[1]
    return dx * dx + dy * dy


def format_number(value):
    """Shortest round-trip decimal, integral values without ".0" (the CLI's output format)."""
    s = repr(float(value))
    return s[:-2] if s.endswith(".0") else s


def grid_closest_dist_sq(coords):
    """Exact closest-pair squared distance by grid bucketing; independent of the package.

    Cells of side h hold the points; each point is compared with the points of
    its own and the eight surrounding cells.  The answer is exact once it is at
    most (h/2)**2: a closer pair then lies within one cell of each other even
    after rounding in x/h.  Otherwise h doubles and the scan repeats.
    """
    xs = [c[0] for c in coords]
    ys = [c[1] for c in coords]
    extent = max(max(xs) - min(xs), max(ys) - min(ys), 1e-300)
    h = extent / max(1.0, math.sqrt(len(coords)))
    while True:
        cells = {}
        for k, (x, y) in enumerate(coords):
            cells.setdefault((math.floor(x / h), math.floor(y / h)), []).append(k)
        best = math.inf
        for (cx, cy), members in cells.items():
            for dx, dy in ((0, 0), (1, -1), (1, 0), (1, 1), (0, 1)):
                other = members if dx == dy == 0 else cells.get((cx + dx, cy + dy))
                if other is None:
                    continue
                for u, ku in enumerate(members):
                    p = coords[ku]
                    start = u + 1 if other is members else 0
                    for kv in other[start:]:
                        d = squared(p, coords[kv])
                        if d < best:
                            best = d
        if best <= (h / 2) ** 2:
            return best
        h *= 2


def points_bytes(points):
    """Computed size of a solve's working set: the point objects and the presort lists."""
    n = len(points)
    objects = sum(sys.getsizeof(p) + sys.getsizeof(p.x) + sys.getsizeof(p.y) for p in points)
    # _presort builds four n-element lists (points, order, xs, ys); order holds n ints.
    return objects + 4 * sys.getsizeof([None] * n) + n * sys.getsizeof(n)


class TrialsN50:
    """Sequential trials at n=50, each exactly what ``run_trials`` does for one seed."""

    name = "trials_n50"
    whole_blocks = False
    setup_reps = 5

    def __init__(self, n=50, block=512):
        self.n = n
        self.block = block

    def setup(self, pkg, seed, workdir):
        self.pkg = pkg
        ex = pkg.experiments
        # The block is run_trials(n, block, base): trial t uses splitmix64_mix(base + t).
        # Mixing the seed into base keeps the blocks of neighbouring seeds disjoint.
        self.base = ex.splitmix64_mix(seed)
        self.seeds = [ex.splitmix64_mix(self.base + t) for t in range(self.block)]
        self.oracle = []
        for s in self.seeds:
            ps = ex.gen_uniform_points(self.n, s)
            self.oracle.append(math.sqrt(pkg.solvers.brute_force(ps, pkg.geometry.OpCounter()).dist_sq))

    def items(self):
        def item(s):
            def run():
                ex = self.pkg.experiments
                records = ex.run_sweep(self.n, s, 2, self.n)
                return records, ex.argmin_partition(records)
            return run
        return [item(s) for s in self.seeds]

    def check(self, idx, out):
        records, best = out
        if [r.a for r in records] != list(range(2, self.n + 1)):
            return "sweep does not cover a=2..n"
        if any(r.dist != self.oracle[idx] for r in records):
            return "sweep distance differs from brute force"
        if best != max(records, key=lambda r: (-r.dc_measured, r.a)).a:
            return "argmin is not the smallest count with ties to the largest a"
        return None

    def dc(self, out):
        return sum(r.dc_measured for r in out[0])

    def canon(self, out):
        records, best = out
        return repr(([(r.a, r.dc_measured, r.dist.hex()) for r in records], best)).encode()

    def finish(self, first):
        """Summed per-trial argmins must equal one run_trials call over the same block."""
        hist = Counter(first[t][1] for t in range(self.block))
        ref = self.pkg.experiments.run_trials(self.n, self.block, self.base, jobs=1).wins
        mine = {a: hist.get(a, 0) for a in range(2, self.n + 1)}
        extra = repr(sorted(mine.items())).encode()
        if mine != dict(ref):
            return ["trial histogram differs from run_trials over the same block"], extra
        return [], extra

    def fanout(self, jobs):
        """Run the block through run_trials' process pool; returns the trial count."""
        self.pkg.experiments.run_trials(self.n, self.block, self.base, jobs=jobs)
        return self.block

    def working_set_bytes(self):
        return points_bytes(self.pkg.experiments.gen_uniform_points(self.n, self.seeds[0]).points)


class UniformLarge:
    """`closepair solve` through cli.main on a 65,536-point file, one item per solver.

    The point set is always ``closepair gen --seed 1``; the benchmark seed
    shuffles its lines.  The solvers presort, so the shuffle changes the
    reported indices but not the work.  A fresh point set per seed would not
    do: the DC count of one instance moves by about 20% with where its closest
    pair lies along the left-to-right sweep, more than any useful bound.
    """

    name = "uniform_large"
    whole_blocks = True
    setup_reps = 5
    gen_seed = 1

    def __init__(self, n=65536, a=16):
        self.n = n
        self.solves = [["--algo", "two"], ["--algo", "kway", "--a", str(a)], ["--algo", "kway", "--a", str(n)]]

    def setup(self, pkg, seed, workdir):
        self.pkg = pkg
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = pkg.cli.main(["gen", "--n", str(self.n), "--seed", str(self.gen_seed)])
        if rc != 0:
            raise BenchError(f"closepair gen exited {rc}")
        lines = buf.getvalue().splitlines(keepends=True)
        random.Random(seed).shuffle(lines)
        self.path = workdir / f"uniform_{self.n}.txt"
        with open(self.path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(lines)
        self.coords = [tuple(map(float, line.split())) for line in lines]
        self.oracle = grid_closest_dist_sq(self.coords)
        self.expected_distance = format_number(math.sqrt(self.oracle))

    def items(self):
        def item(extra):
            argv = ["solve", "--input", str(self.path), *extra]
            def run():
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    rc = self.pkg.cli.main(argv)
                return rc, buf.getvalue()
            return run
        return [item(extra) for extra in self.solves]

    def check(self, idx, out):
        rc, text = out
        fields = text.split()
        if rc != 0 or len(fields) != 4 or text != " ".join(fields) + "\n":
            return f"unexpected CLI output (exit {rc}): {text!r}"
        i, j = int(fields[0]), int(fields[1])
        if not 0 <= i < j < self.n:
            return f"pair ({i}, {j}) out of range"
        if fields[2] != self.expected_distance:
            return f"distance {fields[2]} differs from the oracle's {self.expected_distance}"
        if squared(self.coords[i], self.coords[j]) != self.oracle:
            return "reported pair is not at the closest distance"
        return None

    def dc(self, out):
        return int(out[1].split()[3])

    def canon(self, out):
        return out[1].encode()

    def finish(self, first):
        distances = {first[k][1].split()[2] for k in range(len(self.solves))}
        if len(distances) != 1:
            return ["the three solves print different distances"], b""
        return [], b""

    def working_set_bytes(self):
        return points_bytes(self.pkg.geometry.PointSet.from_coords(self.coords).points)


def two_columns(n):
    return [(k % 2, k) for k in range(n)]


def vertical_line(n):
    return [(0, k) for k in range(n)]


def grid_duplicates(n):
    side = max(2, math.isqrt(n // 2))
    cells = [(x, y) for x in range(side) for y in range(side)]
    return [cells[k % len(cells)] for k in range(n)]


class DegenerateMix:
    """Library solves of three adversarial families x {2way, kway a=16, kway a=n}.

    The seed shuffles the input order and translates each family by an integer
    offset; both keep the coordinates and distances exact.
    """

    name = "degenerate_mix"
    whole_blocks = True
    setup_reps = 7
    families = (two_columns, vertical_line, grid_duplicates)

    def __init__(self, n=512, a=16):
        self.n = n
        self.a = a

    def setup(self, pkg, seed, workdir):
        self.pkg = pkg
        geometry = pkg.geometry
        rng = random.Random(seed)
        self.sets = []
        self.oracle = []
        for family in self.families:
            coords = family(self.n)
            rng.shuffle(coords)
            ox, oy = rng.randint(-1000, 1000), rng.randint(-1000, 1000)
            ps = geometry.PointSet.from_coords((x + ox, y + oy) for x, y in coords)
            self.sets.append(ps)
            self.oracle.append(pkg.solvers.brute_force(ps, geometry.OpCounter()).dist_sq)

    def items(self):
        def two(ps):
            return lambda: self.pkg.solvers.closest_pair_2way(ps, self.pkg.geometry.OpCounter())

        def kway(ps, a):
            return lambda: self.pkg.solvers.closest_pair_kway(ps, a, self.pkg.geometry.OpCounter())

        out = []
        for ps in self.sets:
            out += [two(ps), kway(ps, self.a), kway(ps, len(ps))]
        return out

    def check(self, idx, out):
        ps = self.sets[idx // 3]
        if out.dist_sq.hex() != self.oracle[idx // 3].hex():
            return f"dist_sq {out.dist_sq!r} differs from brute force {self.oracle[idx // 3]!r}"
        if not 0 <= out.i < out.j < len(ps):
            return f"pair ({out.i}, {out.j}) out of range"
        p, q = ps[out.i], ps[out.j]
        if squared((p.x, p.y), (q.x, q.y)) != out.dist_sq:
            return "reported pair is not at the reported distance"
        return None

    def dc(self, out):
        return out.dc_used

    def canon(self, out):
        return repr((out.i, out.j, out.dist_sq.hex(), out.dc_used)).encode()

    def finish(self, first):
        return [], b""

    def working_set_bytes(self):
        return max(points_bytes(ps.points) for ps in self.sets)


WORKLOADS = {w.name: w for w in (TrialsN50, UniformLarge, DegenerateMix)}

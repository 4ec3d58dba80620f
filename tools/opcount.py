"""Bytecode operations the package executes on a fixed set of cases.

Usage: python3 tools/opcount.py <src>

Imports ``closepair`` from the source directory <src>, runs each case below
under ``sys.settrace`` with per-opcode events, and prints one line per case:
its name and the number of opcodes executed in frames of the modules whose
name starts with ``closepair.``.  The last line is the total.  Counts depend
only on the code and the Python version, not on the machine's load, so two
source trees can be compared case by case where wall time is too noisy to
tell.

A call into C counts as the one opcode that makes it, whatever it costs: a
slice, ``sorted``, ``bisect_left``, ``len`` and a list display each read as
one opcode, however many entries they copy or allocate.  So a change that
removes allocations reads much smaller here than in wall time.  Holding a
one-point right run as its rank instead of a one-element list, building
each strip as one list and folding 2- and 3-point regions by straight-line
code cut the n=50 sweeps from 2,365,086 to 2,318,495 opcodes (-2.0%), while
the same solves ran about 7% faster in process (2-vCPU VM, Python 3.11.7).
Both readings counted frames of ``closepair.solvers`` and
``closepair.geometry`` only.

Frames are selected by their globals' ``__name__``, not by file name: the
methods ``dataclass`` generates, such as ``ClosestPairResult.__init__``, are
compiled from a string (file ``<string>``) but run in their class's module,
so they count.

Cases: five n=50 sweeps (seeds 1 to 5, a = 2..50); uniform n=2,048 (seed 8)
at a = 2, 16 and n; and the n=512 degenerate inputs at a = 2, 16 and n: the
three of the benchmark's ``degenerate_mix`` (two columns, vertical line,
duplicate grid, shuffled and translated by ``random.Random(1)``), tiny x
(``x = random() * 1e-9, y = k``, ``random.Random(5)``) and sliding window
(``x = k / 64, y = (37 k) mod n``), built by ``tools/differential.py``.
Only the sweeps build their instances inside the count, so only they count
``run_sweep`` and the generator; every other case counts one solve.
Standard library only; exits 2 on a usage error.
"""

import sys

import differential


def count(run):
    """Opcodes executed in the package's modules while ``run()`` runs."""
    ops = [0]

    def local(frame, event, arg):
        if event == "opcode":
            ops[0] += 1
        return local

    def calls(frame, event, arg):
        if frame.f_globals.get("__name__", "").startswith("closepair."):
            frame.f_trace_opcodes = True
            return local
        return None

    sys.settrace(calls)
    try:
        run()
    finally:
        sys.settrace(None)
    return ops[0]


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    sys.path.insert(0, argv[1])
    from closepair.experiments import gen_uniform_points, run_sweep
    from closepair.geometry import OpCounter, PointSet
    from closepair.solvers import closest_pair_kway

    def solve(coords, a):
        # A fresh set per case, so every solve counts its own presort.
        ps = PointSet.from_coords(coords)
        return lambda: closest_pair_kway(ps, a, OpCounter())

    cases = [("sweeps n=50 seeds 1-5", lambda: [run_sweep(50, seed, 2, 50) for seed in range(1, 6)])]
    uniform = [(p.x, p.y) for p in gen_uniform_points(2048, 8)]
    cases += [(f"uniform n=2048 a={a}", solve(uniform, a)) for a in (2, 16, 2048)]
    degenerate = {
        **differential.degenerate_coords(),
        "tiny x": differential.tiny_x_coords(512),
        "sliding window": differential.sliding_window_coords(512),
    }
    for name, coords in degenerate.items():
        cases += [(f"{name} n=512 a={a}", solve(coords, a)) for a in (2, 16, 512)]
    total = 0
    for name, run in cases:
        ops = count(run)
        total += ops
        print(f"{name:32} {ops:>10,}")
    print(f"{'total':32} {total:>10,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

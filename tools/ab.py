"""In-process A/B timing of two source trees on one benchmark workload.

Usage: python3 tools/ab.py TREE_A TREE_B WORKLOAD [--seed S] [--rounds R] [--repeat K] [--item I]

TREE_A and TREE_B are source directories holding ``closepair/``, such
as a checkout's ``src/``, as the other tools take.  Each tree's package
is imported into this one process under its own name, and WORKLOAD, a
name from ``bench/workloads.py``, is built on each from ``--seed``
(default 1), with its oracle answers.  Every block item then runs once on
each tree: its output must pass the workload's check and its ``canon``
bytes must be equal on both trees, or nothing is timed.  Then ``--rounds``
rounds (default 15) each time both trees on the same work: ``--repeat``
passes (default 1) over the whole block, or over block item ``--item``
only.  Which tree goes first alternates from round to round, and the
garbage collector runs before each timed pass.  The tool prints each
tree's median round time, the median of the per-round ratio B/A, its
quartiles and the rounds B won (ratio below 1).  One process and
interleaved rounds put both trees on the same machine state, which
separate benchmark runs on a shared machine do not.  Imports
``bench/workloads.py`` and writes nothing outside a temporary directory.
Standard library only.  Exits 1 when an output differs or fails its
check, and 2 on a usage error.
"""

import argparse
import gc
import importlib
import importlib.util
import statistics
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

from workloads import WORKLOADS  # noqa: E402

LAYERS = ("cli", "experiments", "solvers", "geometry")


def load_tree(tree, name):
    """Import the ``closepair`` package of source directory ``tree`` as ``name``; returns its layers.

    Any earlier import under ``name`` is dropped first, so that its
    submodules are not reused.
    """
    for key in [m for m in sys.modules if m == name or m.startswith(name + ".")]:
        del sys.modules[key]
    pkg = Path(tree) / "closepair"
    init = pkg / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return SimpleNamespace(**{layer: importlib.import_module(f"{name}.{layer}") for layer in LAYERS})


def equal_outputs(workloads):
    """Run every block item once per tree; returns the error lines, empty when all agree."""
    errors = []
    runs = [w.items() for w in workloads]
    for k in range(len(runs[0])):
        outs = [items[k]() for items in runs]
        for tree, (w, out) in zip("AB", zip(workloads, outs)):
            reason = w.check(k, out)
            if reason is not None:
                errors.append(f"item {k}, tree {tree}: {reason}")
        if workloads[0].canon(outs[0]) != workloads[1].canon(outs[1]):
            errors.append(f"item {k}: the trees' outputs differ")
    return errors


def timed(items, repeat):
    """Seconds to run ``items`` ``repeat`` times over, after a collection."""
    gc.collect()
    start = time.perf_counter()
    for _ in range(repeat):
        for item in items:
            item()
    return time.perf_counter() - start


def compare(work_a, work_b, rounds, repeat):
    """Alternate the two trees' timed passes; returns the per-round ``(a_seconds, b_seconds)``."""
    times = []
    for r in range(rounds):
        if r % 2:
            b = timed(work_b, repeat)
            a = timed(work_a, repeat)
        else:
            a = timed(work_a, repeat)
            b = timed(work_b, repeat)
        times.append((a, b))
    return times


def summary(times):
    """Median round times, the median B/A ratio with its quartiles, and B's wins."""
    ratios = [b / a for a, b in times]
    q1, median, q3 = statistics.quantiles(ratios, n=4)
    return (
        f"A median {statistics.median(a for a, _ in times) * 1e3:.3f} ms  "
        f"B median {statistics.median(b for _, b in times) * 1e3:.3f} ms\n"
        f"B/A median {median:.3f}  quartiles {q1:.3f}-{q3:.3f}  "
        f"B faster in {sum(x < 1 for x in ratios)} of {len(ratios)} rounds"
    )


def main(argv):
    parser = argparse.ArgumentParser(prog="tools/ab.py", description="A/B timing of two trees in one process.")
    parser.add_argument("tree_a")
    parser.add_argument("tree_b")
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=15)
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--item", type=int, default=None)
    args = parser.parse_args(argv)
    if args.rounds < 2 or args.repeat < 1:
        parser.error("--rounds must be at least 2 and --repeat at least 1")
    for tree in (args.tree_a, args.tree_b):
        if not (Path(tree) / "closepair" / "__init__.py").is_file():
            parser.error(f"no closepair package in {tree}")
    pkgs = [load_tree(args.tree_a, "closepair_a"), load_tree(args.tree_b, "closepair_b")]
    with tempfile.TemporaryDirectory() as tmp:
        workloads = []
        for tree, pkg in zip("ab", pkgs):
            w = WORKLOADS[args.workload]()
            workdir = Path(tmp) / tree
            workdir.mkdir()
            w.setup(pkg, args.seed, workdir)
            workloads.append(w)
        block = len(workloads[0].items())
        if args.item is not None and not 0 <= args.item < block:
            parser.error(f"--item must be in 0..{block - 1}")
        errors = equal_outputs(workloads)
        if errors:
            print("\n".join(errors), file=sys.stderr)
            return 1
        picked = [w.items() for w in workloads]
        if args.item is not None:
            picked = [items[args.item:args.item + 1] for items in picked]
        times = compare(*picked, args.rounds, args.repeat)
    scope = "the block" if args.item is None else f"item {args.item}"
    print(f"{args.workload} seed {args.seed}: outputs equal on {block} block items; "
          f"{args.rounds} rounds of {args.repeat} pass(es) over {scope}")
    print(summary(times))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

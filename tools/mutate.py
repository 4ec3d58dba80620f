"""Mutation run of the solver core, the point parser and constructor, the CLI commands, the harnesses and the local cost.

Usage: python3 tools/mutate.py <src>

Parses five files of <src>/closepair with ``ast`` and makes one mutant per
site of a fixed operator set: ``<`` and ``<=`` swapped, ``>`` and ``>=``
swapped, an int constant from 0 to 3 raised by one, ``break`` and
``continue`` swapped, a ``+ 1`` or ``- 1`` dropped, ``and`` and ``or``
swapped, a ``not`` dropped, one ``except`` clause of a ``try`` dropped
(the ``try`` becomes its body when that was its only clause), and a
conditional expression ``A if C else B`` replaced by ``A`` and, as a
second mutant, by ``B``.  The targets and the tests each runs against:

- all of ``solvers.py``: ``tests/test_solver_pins.py`` and ``tests/test_solvers.py``;
- ``parse_points_text`` in ``cli.py`` and ``Point.__init__`` in
  ``geometry.py``: ``tests/test_cli.py`` and ``tests/test_geometry.py``;
- the command handlers ``_cmd_solve``, ``_cmd_sweep``, ``_cmd_trials``,
  ``_cmd_model`` and ``_cmd_gen``, the range check ``_check_a_range`` and
  ``main`` in ``cli.py``, the file errors, argument checks, output lines
  and the exit-code mapping: ``tests/test_cli.py``;
- ``run_sweep``, ``argmin_partition``, ``run_trials`` and ``growth_check``
  in ``experiments.py``, the harnesses' argument checks, tie rule, worker
  count and sweep row: ``tests/test_experiments.py`` and ``tests/test_cli.py``.
- ``gen_uniform_points`` and its block kernel ``_splitmix64_block`` in
  ``experiments.py``, the block bounds and the lane layout:
  ``tests/test_experiments.py``;
- ``exact_local_cost`` in ``cost_model.py``, which restates the solver's
  region rule: ``tests/test_solvers.py`` and ``tests/test_cost_model.py``.

Each mutant is written with ``ast.unparse`` into a copy of <src> in a
temporary directory, next to copies of this repository's ``tests/``,
``tools/differential.py`` and ``bench/workloads.py``, which the tests load,
and its tests run against it.  A mutant that fails them, or runs more than
twice as long as the unmutated file plus 2 s (a swapped ``break`` often
never ends), is killed.  Each survivor then runs the differential, under
the same limit; it is killed there when the run reports a mismatch or its
output differs from the unmutated file's.  The unmutated file runs each
of its test sets twice, the limit taking the slower time, and the
differential once, however many targets share it, and a target with no site
runs nothing.  Runs go to one worker per CPU this process may run on (its
affinity mask where the platform has one), each worker with its own copy of
the tree.  Prints each survivor with its file, line and column and whether
the differential killed it, in site order, then one line of totals per
target, so the output does not depend on the number of workers.  Writes
nothing outside the temporary directory.  Exits 1 when
an unmutated file fails its tests or the differential, and 2 on a usage
error.  Standard library only.
"""

import ast
import concurrent.futures
import functools
import os
import queue
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PARSE_TESTS = ("tests/test_cli.py", "tests/test_geometry.py")
# (file in <src>/closepair, qualified name of the function to mutate or None
# for the whole file, tests that must kill its mutants)
TARGETS = (
    ("solvers.py", None, ("tests/test_solver_pins.py", "tests/test_solvers.py")),
    ("cli.py", "parse_points_text", PARSE_TESTS),
    ("geometry.py", "Point.__init__", PARSE_TESTS),
    *(("cli.py", name, ("tests/test_cli.py",))
      for name in ("_cmd_solve", "_cmd_sweep", "_cmd_trials", "_check_a_range", "_cmd_model", "_cmd_gen", "main")),
    *(("experiments.py", name, ("tests/test_experiments.py", "tests/test_cli.py"))
      for name in ("run_sweep", "argmin_partition", "run_trials", "growth_check")),
    *(("experiments.py", name, ("tests/test_experiments.py",)) for name in ("gen_uniform_points", "_splitmix64_block")),
    ("cost_model.py", "exact_local_cost", ("tests/test_solvers.py", "tests/test_cost_model.py")),
)
FLIP = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt}
SYMBOL = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">="}


class Mutator(ast.NodeTransformer):
    """Numbers the mutation sites in visiting order and applies the one numbered ``target``.

    Only sites inside the function whose qualified name is ``scope`` count,
    or every site when ``scope`` is None.  ``sites`` collects ``(line,
    column, change)`` of each site met.  Once the target is mutated, a later
    site on the same node can go unmet (a ``+ 1`` whose 1 was raised, a
    conditional's second replacement), so only with a target of -1, which
    mutates nothing, is that every site in scope; ``sites()`` reads it there.
    """

    def __init__(self, target, scope=None):
        self.target = target
        self.scope = scope
        self.names = []
        self.sites = []

    def _hit(self, node, change):
        if self.scope not in (None, ".".join(self.names)):
            return False
        self.sites.append((node.lineno, node.col_offset, change))
        return len(self.sites) - 1 == self.target

    def _named(self, node):
        self.names.append(node.name)
        self.generic_visit(node)
        self.names.pop()
        return node

    visit_ClassDef = visit_FunctionDef = _named

    def visit_Compare(self, node):
        self.generic_visit(node)
        for k, op in enumerate(node.ops):
            flipped = FLIP.get(type(op))
            if flipped and self._hit(node, f"{SYMBOL[type(op)]} -> {SYMBOL[flipped]}"):
                node.ops[k] = flipped()
        return node

    def visit_Constant(self, node):
        if type(node.value) is int and 0 <= node.value <= 3 and self._hit(node, f"{node.value} -> {node.value + 1}"):
            return ast.Constant(node.value + 1)
        return node

    def visit_Break(self, node):
        return ast.Continue() if self._hit(node, "break -> continue") else node

    def visit_Continue(self, node):
        return ast.Break() if self._hit(node, "continue -> break") else node

    def visit_BinOp(self, node):
        self.generic_visit(node)
        one = isinstance(node.right, ast.Constant) and type(node.right.value) is int and node.right.value == 1
        if one and isinstance(node.op, (ast.Add, ast.Sub)):
            if self._hit(node, f"drop {'+' if isinstance(node.op, ast.Add) else '-'} 1"):
                return node.left
        return node

    def visit_BoolOp(self, node):
        self.generic_visit(node)
        swapped = ast.Or if isinstance(node.op, ast.And) else ast.And
        if self._hit(node, f"{type(node.op).__name__.lower()} -> {swapped.__name__.lower()}"):
            node.op = swapped()
        return node

    def visit_UnaryOp(self, node):
        self.generic_visit(node)
        if isinstance(node.op, ast.Not) and self._hit(node, "drop not"):
            return node.operand
        return node

    def visit_IfExp(self, node):
        self.generic_visit(node)
        if self._hit(node, "if-else -> if"):
            return node.body
        if self._hit(node, "if-else -> else"):
            return node.orelse
        return node

    def visit_Try(self, node):
        self.generic_visit(node)
        for handler in list(node.handlers):
            if self._hit(handler, f"drop except {ast.unparse(handler.type) if handler.type else ''}"):
                node.handlers.remove(handler)
                if not node.handlers and not node.finalbody:
                    return node.body + node.orelse
        return node


def sites(source, scope=None):
    """``(line, column, change)`` of every site in ``scope``, numbered as ``mutant`` numbers them."""
    mutator = Mutator(-1, scope)
    mutator.visit(ast.parse(source))
    return mutator.sites


def mutant(source, target, scope=None):
    """Source of mutant number ``target`` in ``scope``; target -1 gives the unmutated source."""
    return ast.unparse(Mutator(target, scope).visit(ast.parse(source))) + "\n"


def run(command, cwd, timeout):
    """``(exit code or None on timeout, seconds)`` of ``command`` run in ``cwd`` on the copied source."""
    env = dict(os.environ, PYTHONPATH=str(cwd / "src"), PYTHONDONTWRITEBYTECODE="1")
    began = time.perf_counter()
    try:
        code = subprocess.run(command, cwd=cwd, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        code = None
    return code, time.perf_counter() - began


def copy_tree(src, work):
    """Copy <src> and what its tests load from this repository into ``work``; returns ``work``."""
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(src, work / "src", ignore=ignore)
    shutil.copytree(ROOT / "tests", work / "tests", ignore=ignore)
    (work / "tools").mkdir()
    shutil.copy(ROOT / "tools" / "differential.py", work / "tools")
    (work / "bench").mkdir()
    shutil.copy(ROOT / "bench" / "workloads.py", work / "bench")
    return work


def in_copy(trees, name, text, job):
    """``job(work)`` in a free copy ``work`` of the tree whose ``closepair/name`` reads ``text``.

    ``trees`` is a queue of the copies; the copy is taken from it for the
    call, then restored and put back.
    """
    work = trees.get()
    target = work / "src" / "closepair" / name
    original = target.read_text()
    try:
        target.write_text(text)
        return job(work)
    finally:
        target.write_text(original)
        trees.put(work)


def tests_command(tests):
    return [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]


def differential(work, timeout):
    """``(exit code or None on timeout, seconds, output or None)`` of the differential run in ``work``."""
    code, seconds = run([sys.executable, "tools/differential.py", "src", "out.txt"], work, timeout)
    return code, seconds, (work / "out.txt").read_bytes() if code == 0 else None


def plain_runs(pool, trees, sources, targets):
    """Run each unmutated file twice per test set and once through the differential.

    The unmutated file, unparsed like every mutant, sets the time limits and
    the differential output each survivor must match.  Its text does not
    depend on the scope, so one run serves every target of the file, and a
    target with no site needs none.  The two test runs share the CPUs with
    the file's other runs, so each reads its own time; the slower one counts.
    Returns ``{(name, tests): test seconds}`` and ``{name: (differential
    seconds, output)}``, a value being None when a run failed.
    """
    tests_runs, diff_runs = {}, {}
    for name, _, tests, found in targets:
        if not found:
            continue
        plain = mutant(sources[name], -1)
        if (name, tests) not in tests_runs:
            job = functools.partial(run, tests_command(tests), timeout=None)
            tests_runs[name, tests] = [pool.submit(in_copy, trees, name, plain, job) for _ in range(2)]
        if name not in diff_runs:
            job = functools.partial(differential, timeout=None)
            diff_runs[name] = pool.submit(in_copy, trees, name, plain, job)
    tests_s = {}
    for key, futures in tests_runs.items():
        readings = [future.result() for future in futures]
        tests_s[key] = None if any(code for code, _ in readings) else max(seconds for _, seconds in readings)
    diffs = {}
    for name, future in diff_runs.items():
        code, seconds, out = future.result()
        diffs[name] = None if code else (seconds, out)
    return tests_s, diffs


def limit(seconds):
    """How long a mutant's run may take when the unmutated file's took ``seconds``.

    For a test run, ``seconds`` is the slower of the unmutated file's two
    runs.  On 2 vCPUs the slowest mutant test run that finished took 9.8 s
    against a single unmutated reading of 6.3 s on the solver tests (1.54
    times), and the slowest survivor's differential 1.13 times the
    unmutated one.  At 6.3 s this limit is 14.7 s, about 1.5 times that
    slowest run.
    """
    return 2 * seconds + 2


def verdict(trees, name, text, tests, tests_s, diff):
    """The fate of one mutant, ``text`` in place of ``name``, as the totals and survivor lines name it.

    A mutant is killed when it fails its tests or runs past ``limit`` of
    the unmutated file's time.  A survivor is caught when the differential
    reports a mismatch or prints other output.
    """
    diff_s, reference = diff

    def job(work):
        code, _ = run(tests_command(tests), work, limit(tests_s))
        if code != 0:
            return "killed" if code is not None else "timed out"
        if differential(work, limit(diff_s))[2] != reference:
            return "killed by the differential"
        return "same differential output"

    return in_copy(trees, name, text, job)


def report(name, scope, found, fates, lines):
    """Print each survivor in site order as its fate arrives; return the target's totals line."""
    killed = timeouts = by_differential = 0
    for (line, column, change), future in zip(found, fates):
        fate = future.result()
        if fate in ("killed", "timed out"):
            killed += 1
            timeouts += fate == "timed out"
            continue
        by_differential += fate == "killed by the differential"
        where = f"{name}:{line}:{column + 1}"
        print(f"survivor {where:18} {change:18} {fate}  | {lines[line - 1].strip()}", flush=True)
    survivors = len(found) - killed
    return (f"{name + (f' {scope}' if scope else ''):29} mutants {len(found)}  killed by tests {killed} "
            f"({timeouts} timed out)  survivors {survivors}  killed by the differential {by_differential}  "
            f"left {survivors - by_differential}")


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    src = Path(argv[1])
    sources = {name: (src / "closepair" / name).read_text() for name, _, _ in TARGETS}
    # (name, scope, tests, sites) of every target
    targets = [(name, scope, tests, sites(sources[name], scope)) for name, scope, tests in TARGETS]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    trees = queue.Queue()
    with tempfile.TemporaryDirectory() as tmp, concurrent.futures.ThreadPoolExecutor(cpus) as pool:
        try:
            for k in range(cpus):
                trees.put(copy_tree(src, Path(tmp) / str(k)))
            tests_s, diffs = plain_runs(pool, trees, sources, targets)
            for name, _, tests, found in targets:
                if found and None in (tests_s[name, tests], diffs[name]):
                    print(f"the unmutated {name} fails its tests or the differential", file=sys.stderr)
                    return 1
            fates = [[pool.submit(verdict, trees, name, mutant(sources[name], k, scope), tests,
                                  tests_s[name, tests], diffs[name]) for k in range(len(found))]
                     for name, scope, tests, found in targets]
            totals = [report(name, scope, found, futures, sources[name].splitlines())
                      for (name, scope, _, found), futures in zip(targets, fates)]
        finally:
            pool.shutdown(cancel_futures=True)
    print("\n".join(totals))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

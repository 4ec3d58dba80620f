"""Per-layer measurement from outside the package.

Both passes swap wrappers onto the package's module attributes and restore the
originals afterwards; no package file changes.  ``SpanTimer`` times calls at
each layer boundary and aggregates them per span as they close (keeping every
strip-scan span of a run would cost millions of records).  ``DcLedger`` is a
separate counting pass with a wrapper on every distance computation, so its
cost never shows in the layer times.

A site whose attribute no longer exists is skipped, and a span that is never
entered is reported as absent by the runner.
"""

import contextlib
from collections import Counter
from time import perf_counter_ns

SOLVE_SITES = [
    ("solvers", "closest_pair_2way"),
    ("solvers", "closest_pair_kway"),
    ("experiments", "closest_pair_2way"),
    ("experiments", "closest_pair_kway"),
    ("cli", "closest_pair_2way"),
    ("cli", "closest_pair_kway"),
]

# Span name -> the module attributes that enter it.  Every module binds the
# functions it imports under its own name, so each binding is wrapped.
TIMED_SPANS = {
    "cli.main": [("cli", "main")],
    "cli.parse": [("cli", "parse_points_text")],
    "experiments.run_sweep": [("experiments", "run_sweep")],
    "experiments.gen": [("experiments", "gen_uniform_points"), ("cli", "gen_uniform_points")],
    "solvers.solve": SOLVE_SITES,
    "solvers.partition": [("solvers", "balanced_partition")],
    "solvers.strip_scan": [("solvers", "strip_scan")],
}


@contextlib.contextmanager
def swapped(pkg, sites, make_wrapper):
    """Replace each existing ``module.attr`` in ``sites`` by ``make_wrapper(fn)``; restore on exit."""
    saved = []
    try:
        for mod_name, attr in sites:
            mod = getattr(pkg, mod_name)
            fn = getattr(mod, attr, None)
            if fn is not None:
                saved.append((mod, attr, fn))
                setattr(mod, attr, make_wrapper(fn))
        yield
    finally:
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)


class SpanTimer:
    """Inclusive time, child time and calls per span name.

    A span's self time is its inclusive time minus the time of the spans it
    directly encloses.  A span entered again while already open (one public
    function calling another that maps to the same span) counts once.
    """

    def __init__(self):
        self.incl = Counter()
        self.child = Counter()
        self.calls = Counter()
        self._stack = []

    def wrap(self, span, fn):
        stack = self._stack
        incl = self.incl
        child = self.child
        calls = self.calls

        def timed(*args, **kwargs):
            if span in stack:
                return fn(*args, **kwargs)
            stack.append(span)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                stack.pop()
                incl[span] += dt
                calls[span] += 1
                if stack:
                    child[stack[-1]] += dt

        return timed

    @contextlib.contextmanager
    def installed(self, pkg, spans=TIMED_SPANS):
        with contextlib.ExitStack() as stack:
            for span, sites in spans.items():
                stack.enter_context(swapped(pkg, sites, lambda fn, span=span: self.wrap(span, fn)))
            yield

    def self_ns(self, span):
        return self.incl[span] - self.child[span]


class DcLedger:
    """Exact counts from one pass: DCs by phase, repeated pairs, strip sizes, partitions.

    ``strip_dc`` is the OpCounter delta across each ``strip_scan`` call;
    ``local_dc`` counts ``squared_distance`` calls made outside any strip scan;
    ``geometry_dc`` sums the solvers' own ``dc_used``.  The three come from
    different mechanisms, so ``strip_dc + local_dc == geometry_dc`` is a check.
    A repeat is a DC on a pair of Point objects already evaluated in the same
    solve.
    """

    def __init__(self, op_counter_type):
        self._op_counter_type = op_counter_type
        self.geometry_dc = 0
        self.dc_calls = 0
        self.local_dc = 0
        self.repeats = 0
        self.strip_dc = 0
        self.strip_calls = 0
        self.strip_points = 0
        self.strip_empty = 0
        self.strip_counted = True
        self.partition_calls = 0
        self._in_solve = False
        self._in_strip = 0
        self._seen = set()

    @contextlib.contextmanager
    def installed(self, pkg):
        with contextlib.ExitStack() as stack:
            stack.enter_context(swapped(pkg, SOLVE_SITES, self._wrap_solve))
            stack.enter_context(swapped(pkg, [("solvers", "squared_distance")], self._wrap_dc))
            stack.enter_context(swapped(pkg, [("solvers", "strip_scan")], self._wrap_strip))
            stack.enter_context(swapped(pkg, [("solvers", "balanced_partition")], self._wrap_partition))
            yield

    def _wrap_solve(self, fn):
        def solve(*args, **kwargs):
            if self._in_solve:
                return fn(*args, **kwargs)
            self._in_solve = True
            self._seen = set()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._in_solve = False
            self.geometry_dc += result.dc_used
            return result

        return solve

    def _wrap_dc(self, fn):
        def dc(p, q, counter):
            self.dc_calls += 1
            key = (id(p), id(q)) if id(p) < id(q) else (id(q), id(p))
            if key in self._seen:
                self.repeats += 1
            else:
                self._seen.add(key)
            if not self._in_strip:
                self.local_dc += 1
            return fn(p, q, counter)

        return dc

    def _wrap_strip(self, fn):
        def strip_scan(*args, **kwargs):
            strip = args[0] if args else kwargs["strip"]
            counter = next(
                (v for v in (*args, *kwargs.values()) if isinstance(v, self._op_counter_type)), None
            )
            self.strip_calls += 1
            self.strip_points += len(strip)
            self.strip_empty += len(strip) < 2
            if counter is None:
                self.strip_counted = False
                return fn(*args, **kwargs)
            before = counter.dc
            self._in_strip += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._in_strip -= 1
                self.strip_dc += counter.dc - before

        return strip_scan

    def _wrap_partition(self, fn):
        def balanced_partition(*args, **kwargs):
            self.partition_calls += 1
            return fn(*args, **kwargs)

        return balanced_partition

"""Wall time scaled to a reference interpreter speed.

Shared machines, such as the 2-vCPU KVM guest (Intel Xeon) the benchmark was
defined on, run the same pure-Python loop up to twice as slow for anything
from milliseconds to tens of seconds, and process CPU time slows with it.  Raw wall time therefore varies between runs
by more than any useful regression bound.

``Sampler`` measures the machine's speed throughout the timed work: a
``SIGALRM`` interval timer runs a small fixed probe kernel every few
milliseconds, between the bytecodes of whatever is running.  An interval's
time, less the probes that ran inside it, is scaled by
``REF_KERNEL_NS / mean probe time`` over the samples around it.  The probe
never touches the package, so a change to the package moves the scaled time
as it would move the raw time on a machine at a steady speed.
"""

import signal
from bisect import bisect_left, bisect_right
from itertools import accumulate
from time import perf_counter_ns

# Typical probe kernel time, sampled on the timer, on the machine the benchmark
# was defined on (context.json), so scaled times read roughly as its wall time.
REF_KERNEL_NS = 25_000
PERIOD_S = 0.002
WINDOW_NS = 10_000_000  # samples within this distance of an interval describe it
MIN_SAMPLES = 5

_POINTS = [((k * 7919) % 101 / 101.0, (k * 104729) % 103 / 103.0) for k in range(20)]


def _ykey(p):
    return p[1], p[0]


def kernel():
    """Fixed interpreter work in the solvers' style: sort points, scan pairs, keep a minimum."""
    pts = sorted(_POINTS, key=_ykey)
    best = 9.0
    for i, (xi, yi) in enumerate(pts):
        for xj, yj in pts[i + 1 :]:
            dx = xi - xj
            dy = yi - yj
            d = dx * dx + dy * dy
            if d < best:
                best = d
    return best


class Sampler:
    """Probe samples taken on a timer while active, and the time they took.

    Use as a context manager around timed work; ``probe_ns`` is the running
    total of probe time, so an interval's own time is its wall time less the
    growth of ``probe_ns`` across it.
    """

    def __init__(self):
        self.times = []
        self.costs = []
        self.probe_ns = 0
        self._saved = None

    def _sample(self, signum, frame):
        t0 = perf_counter_ns()
        kernel()
        dt = perf_counter_ns() - t0
        self.times.append(t0)
        self.costs.append(dt)
        self.probe_ns += dt

    def __enter__(self):
        kernel()  # warm up before the first sample
        self._saved = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._saved)
        return False

    def mark(self):
        """The start of an interval, for ``interval``."""
        return perf_counter_ns(), self.probe_ns

    def interval(self, mark):
        """(start ns, end ns, own ns) of the interval begun at ``mark``, probes excluded."""
        t0, p0 = mark
        t1 = perf_counter_ns()
        return t0, t1, t1 - t0 - (self.probe_ns - p0)

    def scale(self, intervals):
        """Scaled ns for each (start, end, own ns), from the mean probe cost around it.

        The window around an interval widens until it holds MIN_SAMPLES samples
        (or every sample there is).
        """
        if not self.costs:
            self._sample(None, None)
        prefix = [0, *accumulate(self.costs)]
        out = []
        for t0, t1, own in intervals:
            pad = WINDOW_NS
            while True:
                lo = bisect_left(self.times, t0 - pad)
                hi = bisect_right(self.times, t1 + pad)
                if hi - lo >= min(MIN_SAMPLES, len(self.costs)):
                    break
                pad *= 2
            mean = (prefix[hi] - prefix[lo]) / (hi - lo)
            out.append(own * REF_KERNEL_NS / mean)
        return out

"""The paper's closed-form estimate of the k-way solver's distance computations.

The model splits the count into a strip term, 2 * ((a-1) * n / a) * log_a(n),
and a local term, a * C(ceil(n/a), 2), the cost of brute-forcing each region
once.  At a = n every region is a single point, the local term vanishes, and
the total collapses to 2 * (n - 1).  The model predicts counts; it never
touches an OpCounter.  The solver recurses inside its regions instead, and
``exact_local_cost`` gives the local DCs it really spends; its strip DCs are
the rest of its count.

It is an estimate, not a bound on the solver's count.  A sheared hexagonal
lattice exceeds it at a = n: with s = ceil(sqrt(n)), point i at column
c = i mod s and row t = i div s sits at (c + (t mod 2)/2 + 1e-6 * i,
t * sqrt(3)/2 + 1e-6 * c), and at n = 4,096 the solver spends 12,064 DCs
against the model's 8,190, 1.47 times as many.
"""

import functools
import math
from dataclasses import dataclass

from .errors import InvalidPartition


@dataclass(frozen=True, slots=True)
class CostBreakdown:
    n: int
    a: int
    strip_cost: float
    local_cost: float
    total: float


def _check_args(n: int, a: int) -> None:
    if n < 2:
        raise InvalidPartition(f"need n >= 2, got {n}")
    if not 2 <= a <= n:
        raise InvalidPartition(f"need 2 <= a <= n, got a={a} with n={n}")


def analytic_strip_cost(n: int, a: int) -> float:
    """The paper's strip-scan estimate: 2 * ((a-1) * n / a) * log_a(n)."""
    _check_args(n, a)
    return 2.0 * ((a - 1) * n / a) * (math.log(n) / math.log(a))


def analytic_local_cost(n: int, a: int) -> float:
    """The paper's intra-region estimate: each of a regions brute-forced at ceil(n/a) points."""
    _check_args(n, a)
    m = -(-n // a)
    return float(a * (m * (m - 1) // 2))


def analytic_total_cost(n: int, a: int) -> CostBreakdown:
    """Strip and local terms with their sum; local is exactly 0 at a = n."""
    strip = analytic_strip_cost(n, a)
    local = analytic_local_cost(n, a)
    return CostBreakdown(n, a, strip, local, strip + local)


@functools.cache
def exact_local_cost(n: int, a: int) -> int:
    """The DCs that k-way at ``a`` spends inside the regions of a node of ``n`` points, strips not counted.

    The node has k = min(a, n - 1) regions: r of q + 1 points and k - r of
    q, with q, r = divmod(n, k).  A region of four or more points recurses,
    and a node of three or fewer points is one region and costs C(n, 2),
    that is 0, 0, 1 or 3 DCs.  Any a >= 2 is accepted, as the solver
    accepts it: a > n acts as a = n.  Memoised on (n, a).
    """
    if a < 2:
        raise InvalidPartition(f"need a >= 2, got {a}")
    if n <= 3:
        return n * (n - 1) // 2
    k = min(a, n - 1)
    q, r = divmod(n, k)
    return r * exact_local_cost(q + 1, a) + (k - r) * exact_local_cost(q, a)

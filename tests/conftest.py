import itertools
import sys
from bisect import bisect_right, insort
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import strategies as st

from closepair import solvers
from closepair.cli import main
from closepair.geometry import Point, PointSet

# tools/ and bench/ are not packages: their directories go on the path, so
# that the differential's tier-1 gate and the tie pins share the tool's
# corpus and rows, the large-input gate shares the benchmark's oracle, and
# the mutation pins import the mutation tool.
ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "tools"), str(ROOT / "bench")]

import differential  # noqa: E402
import workloads  # noqa: E402


def oracle_min_dist_sq(points):
    """Independent exhaustive recomputation: combinations-based, no counter.

    Squares via multiplication, matching the solvers' fixed expression order
    (this platform's pow() is not correctly rounded for exponent 2).
    """
    best = None
    for p, q in itertools.combinations(points, 2):
        dx = p.x - q.x
        dy = p.y - q.y
        d = dx * dx + dy * dy
        if best is None or d < best:
            best = d
    return best


def point_set(coords):
    return PointSet(Point(x, y) for x, y in coords)


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def core_work(monkeypatch):
    """Count the k-way core's work that the DC meter does not see, from now on.

    Returns running totals over every solve in the test: ``x_reads``, reads
    of the presort's x values; ``lines``, each partition's stops but one;
    ``sorted``, every entry of every list the core orders, counted in the
    presort's two calls of ``sorted`` and in ``sort`` on each run sliced
    from the y-ranks (the 2-way solver's four-point path orders at most two
    ranks it unpacked into a new list, which is not counted); ``inserted``,
    one per ``insort``; ``shifted``, the entries an ``insort`` or a delete
    from a rank run moves by one place; ``pairs``, each DC's pair of point
    ids, the smaller first; and ``x_reads_at_zero``, the x reads made when a
    DC first returned 0, or None.  Besides ``recorded_spans`` of
    ``tools/differential.py``, which records the spans, this is the only
    place the tests watch the core by swapping its module globals.
    """
    work = SimpleNamespace(
        x_reads=0, lines=0, sorted=0, inserted=0, shifted=0, pairs=[], x_reads_at_zero=None
    )
    presort = solvers._presort
    partition = solvers.balanced_partition
    measure = solvers.squared_distance

    class CountingList(list):
        def __getitem__(self, k):
            work.x_reads += 1
            return super().__getitem__(k)

    # The core orders and edits runs it slices from ``rank`` in place, so
    # the slices come back as lists that count that work.
    class RankRun(list):
        def sort(self):
            work.sorted += len(self)
            super().sort()

        def __delitem__(self, k):
            work.shifted += len(self) - 1 - k
            super().__delitem__(k)

    class RankList(list):
        def __getitem__(self, k):
            item = super().__getitem__(k)
            return RankRun(item) if type(k) is slice else item

    def counting_presort(ps):
        xs, rank, ypts, yidx = presort(ps)
        return CountingList(xs), RankList(rank), ypts, yidx

    def counting_partition(lo, hi, regions):
        stops = partition(lo, hi, regions)
        work.lines += len(stops) - 1
        return stops

    def counting_sorted(iterable, **kwargs):
        items = list(iterable)
        work.sorted += len(items)
        return sorted(items, **kwargs)

    def counting_insort(seq, x):
        work.inserted += 1
        work.shifted += len(seq) - bisect_right(seq, x)
        insort(seq, x)

    def recording_distance(p, q, counter):
        d = measure(p, q, counter)
        work.pairs.append((id(p), id(q)) if id(p) < id(q) else (id(q), id(p)))
        if d == 0 and work.x_reads_at_zero is None:
            work.x_reads_at_zero = work.x_reads
        return d

    monkeypatch.setattr(solvers, "_presort", counting_presort)
    monkeypatch.setattr(solvers, "balanced_partition", counting_partition)
    # A module global shadows the builtin ``sorted`` inside the module, where
    # only the presort calls it; a core that does not import ``insort`` has
    # no inserts to count.
    monkeypatch.setattr(solvers, "sorted", counting_sorted, raising=False)
    monkeypatch.setattr(solvers, "insort", counting_insort, raising=False)
    monkeypatch.setattr(solvers, "squared_distance", recording_distance)
    return work


finite_coord = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)

coord_pairs = st.tuples(finite_coord, finite_coord)

# dyadic grid coordinates: differences and squares stay exact, far from
# under/overflow, so power-of-two rescaling is bit-exact
dyadic_coord = st.integers(min_value=-(2**20), max_value=2**20).map(lambda v: v / 1024.0)

dyadic_pairs = st.tuples(dyadic_coord, dyadic_coord)

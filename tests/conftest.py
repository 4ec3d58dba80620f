import importlib.util
import itertools
from pathlib import Path

from hypothesis import strategies as st

from closepair.geometry import Point, PointSet


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


def _load(relative):
    # tools/ and bench/ are not packages: load a module from its file, so
    # that the differential's tier-1 gate and the tie pins share the tool's
    # corpus and rows, and the large-input gate shares the benchmark's oracle.
    path = Path(__file__).resolve().parents[1] / relative
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


differential = _load("tools/differential.py")
workloads = _load("bench/workloads.py")


def point_set(coords):
    return PointSet(Point(x, y) for x, y in coords)


finite_coord = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)

coord_pairs = st.tuples(finite_coord, finite_coord)

# dyadic grid coordinates: differences and squares stay exact, far from
# under/overflow, so power-of-two rescaling is bit-exact
dyadic_coord = st.integers(min_value=-(2**20), max_value=2**20).map(lambda v: v / 1024.0)

dyadic_pairs = st.tuples(dyadic_coord, dyadic_coord)

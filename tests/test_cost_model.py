import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from closepair.cost_model import analytic_local_cost, analytic_strip_cost, analytic_total_cost, exact_local_cost
from closepair.errors import InvalidPartition


def test_strip_cost_at_a_equals_n_50():
    assert analytic_strip_cost(50, 50) == 98.0


@pytest.mark.parametrize("n", [2, 3, 10, 64, 1000])
def test_strip_cost_at_a_equals_n_general(n):
    assert analytic_strip_cost(n, n) == 2.0 * (n - 1)


def test_strip_cost_direct_evaluation():
    # 2 * (1*8/2) * log2(8) = 24
    assert analytic_strip_cost(8, 2) == pytest.approx(24.0, rel=1e-9)


def test_local_cost_values():
    assert analytic_local_cost(50, 50) == 0.0
    assert analytic_local_cost(8, 2) == 12.0  # 2 * C(4,2)
    assert analytic_local_cost(9, 3) == 9.0  # 3 * C(3,2)


def test_local_cost_uses_ceiling_region_size():
    # 10 points in 3 regions: ceil(10/3) = 4, so 3 * C(4,2) = 18
    assert analytic_local_cost(10, 3) == 18.0


def test_total_cost_composition():
    c = analytic_total_cost(50, 50)
    assert (c.strip_cost, c.local_cost, c.total) == (98.0, 0.0, 98.0)
    c = analytic_total_cost(2, 2)
    assert (c.strip_cost, c.local_cost, c.total) == (2.0, 0.0, 2.0)
    c = analytic_total_cost(8, 2)
    assert c.total == pytest.approx(36.0, rel=1e-9)
    assert c.total == c.strip_cost + c.local_cost


@given(st.integers(min_value=2, max_value=400))
def test_total_at_a_equals_n_is_2n_minus_2(n):
    c = analytic_total_cost(n, n)
    assert c.local_cost == 0.0
    assert c.total == 2.0 * (n - 1)


@given(st.integers(min_value=2, max_value=120))
def test_total_is_exact_sum(n):
    for a in range(2, n + 1):
        c = analytic_total_cost(n, a)
        assert c.total == c.strip_cost + c.local_cost
        assert c.strip_cost >= 0.0 and c.local_cost >= 0.0


@pytest.mark.parametrize("n", [10, 50, 100])
def test_model_argmin_is_n(n):
    totals = {a: analytic_total_cost(n, a).total for a in range(2, n + 1)}
    best = min(totals.values())
    winners = [a for a, t in totals.items() if t == best]
    assert max(winners) == n


@pytest.mark.parametrize(
    "n,a",
    [(50, 1), (50, 51), (50, 0), (50, -2), (2, 3), (1, 2), (0, 2)],
)
def test_out_of_range_rejected(n, a):
    for fn in (analytic_strip_cost, analytic_local_cost, analytic_total_cost):
        with pytest.raises(InvalidPartition):
            fn(n, a)


def test_exact_local_cost_edges():
    # the solver's own DCs are checked against it in tests/test_solvers.py (TestLocalCost)
    assert [exact_local_cost(n, 2) for n in range(4)] == [0, 0, 1, 3]
    for n in (2, 3, 4, 50, 65_536):
        assert exact_local_cost(n, n + 7) == exact_local_cost(n, n)
    # unguarded, a = 1 recurses without end and a = 0 divides by zero
    for a in (1, 0):
        with pytest.raises(InvalidPartition):
            exact_local_cost(50, a)


def test_strip_cost_formula_shape():
    # spot-check the general term against a transparent recomputation
    for n, a in [(30, 4), (100, 17), (81, 3)]:
        expected = 2.0 * ((a - 1) * n / a) * (math.log(n) / math.log(a))
        assert analytic_strip_cost(n, a) == expected

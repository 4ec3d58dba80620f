"""Instrumented closest-pair solvers with exact distance-computation counting."""

from .cost_model import CostBreakdown, analytic_local_cost, analytic_strip_cost, analytic_total_cost, exact_local_cost
from .errors import ClosepairError, DistanceOverflow, EmptySweep, InsufficientPoints, InvalidPartition
from .experiments import (
    SweepRecord,
    TrialHistogram,
    argmin_partition,
    gen_uniform_points,
    growth_check,
    run_sweep,
    run_trials,
    splitmix64_mix,
    splitmix64_stream,
)
from .geometry import ClosestPairResult, OpCounter, Point, PointSet, final_distance, squared_distance
from .solvers import balanced_partition, brute_force, closest_pair_2way, closest_pair_kway

__all__ = [
    "ClosepairError",
    "ClosestPairResult",
    "CostBreakdown",
    "DistanceOverflow",
    "EmptySweep",
    "InsufficientPoints",
    "InvalidPartition",
    "OpCounter",
    "Point",
    "PointSet",
    "SweepRecord",
    "TrialHistogram",
    "analytic_local_cost",
    "analytic_strip_cost",
    "analytic_total_cost",
    "argmin_partition",
    "balanced_partition",
    "brute_force",
    "closest_pair_2way",
    "closest_pair_kway",
    "exact_local_cost",
    "final_distance",
    "gen_uniform_points",
    "growth_check",
    "run_sweep",
    "run_trials",
    "splitmix64_mix",
    "splitmix64_stream",
    "squared_distance",
]

__version__ = "0.1.0"

"""Seeded instance generation and the two measurement harnesses.

Point coordinates come from a splitmix64 stream so that identical (n, seed)
arguments produce bit-identical instances everywhere.  The generator
computes its draws lane-parallel, in blocks of at most 2,048, bit-identical
to ``splitmix64_stream``: splitmix64's output k is mix(seed + k * golden),
so no draw depends on another.  The two harnesses
mirror each other: ``run_sweep`` measures one instance across a range of
partition parameters, ``run_trials`` repeats that over many derived seeds and
tallies which parameter won.
"""

import concurrent.futures
import math
import os
import sys
from array import array
from collections import Counter
from dataclasses import dataclass
from itertools import repeat

from .errors import ClosepairError, EmptySweep, InsufficientPoints, InvalidPartition
from .geometry import OpCounter, Point, PointSet, final_distance
from .solvers import closest_pair_kway

_U64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB
# Draws per _splitmix64_block call: one int for a whole 65,536-point instance
# would hold about 6 MiB of transient ints.
_BLOCK = 2048
# One 128-bit lane per draw: a 1 in every lane, and lane i's state offset i * golden.
_LANES = int.from_bytes((1).to_bytes(16, "little") * _BLOCK, "little")
_STRIDES = int.from_bytes(b"".join((i * _GOLDEN).to_bytes(16, "little") for i in range(_BLOCK)), "little")


def splitmix64_mix(value: int) -> int:
    """The splitmix64 output mix: a 64-bit bijection used to derive seeds."""
    z = value & _U64
    z = ((z ^ (z >> 30)) * _MUL1) & _U64
    z = ((z ^ (z >> 27)) * _MUL2) & _U64
    return z ^ (z >> 31)


def splitmix64_stream(seed: int):
    """Yield the splitmix64 output sequence for ``seed``, forever."""
    state = seed & _U64
    while True:
        state = (state + _GOLDEN) & _U64
        yield splitmix64_mix(state)


def _splitmix64_block(seed: int, lo: int, k: int) -> array:
    """Outputs lo+1 .. lo+k of ``splitmix64_stream(seed)``, each shifted right by 11 to its top 53 bits.

    Needs k <= _BLOCK.  Output lo+i is the mix of seed + (lo+i) * golden,
    so one int holds every state, draw i in the low 64 bits of the 128-bit
    lane i-1, and each mix step runs on all lanes at once.  A right shift
    moves a lane's low bits into the top of the lane below, and a product
    fills a lane's top half, so each is masked back to the low halves
    before the next product or shift.  The final shifts need no mask: a
    lane's bits 64..96 stay clear, and the unpacking keeps only each lane's
    low 64 bits.
    """
    keep = (1 << 128 * k) - 1
    lanes = _LANES & keep
    low = lanes * _U64
    z = (((seed + (lo + 1) * _GOLDEN) & _U64) * lanes + (_STRIDES & keep)) & low
    z = ((z ^ z >> 30) & low) * _MUL1 & low
    z = ((z ^ z >> 27) & low) * _MUL2 & low
    z = (z ^ z >> 31) >> 11
    draws = array("Q", z.to_bytes(16 * k, "little"))
    if sys.byteorder == "big":
        draws.byteswap()
    return draws[::2]


def gen_uniform_points(n: int, seed: int) -> PointSet:
    """n points uniform in [0,1)^2, two stream outputs per point (x then y).

    Each 64-bit output maps to [0,1) as its top 53 bits over 2**53, so the
    coordinates are exactly representable and reproducible bit for bit.
    The outputs are computed lane-parallel, at most 2,048 at a time, and are
    bit-identical to ``splitmix64_stream(seed)``'s.
    """
    if n < 0:
        raise ClosepairError(f"point count must be >= 0, got {n}")
    scale = 2.0 ** -53
    pts = []
    for lo in range(0, 2 * n, _BLOCK):
        coords = map(scale.__mul__, _splitmix64_block(seed, lo, min(_BLOCK, 2 * n - lo)))
        # Both arguments draw from one iterator, so each point takes x, then y.
        pts.extend(map(Point, coords, coords))
    return PointSet(pts)


@dataclass(frozen=True, slots=True)
class SweepRecord:
    """One partition parameter's measured cost on a fixed instance."""

    a: int
    dc_measured: int
    dist: float


@dataclass(frozen=True)
class TrialHistogram:
    """Win counts per partition parameter over repeated random trials."""

    n: int
    trials: int
    wins: dict


def run_sweep(n: int, seed: int, a_lo: int, a_hi: int) -> list:
    """Solve one seeded instance with every a in [a_lo, a_hi]; fresh counter per run."""
    if n < 2:
        raise InsufficientPoints(f"need at least 2 points, got {n}")
    if not 2 <= a_lo <= a_hi <= n:
        raise InvalidPartition(f"need 2 <= a_lo <= a_hi <= n, got [{a_lo}, {a_hi}] with n={n}")
    instance = gen_uniform_points(n, seed)
    records = []
    for a in range(a_lo, a_hi + 1):
        counter = OpCounter()
        result = closest_pair_kway(instance, a, counter)
        records.append(SweepRecord(a, result.dc_used, final_distance(result.dist_sq)))
    return records


def argmin_partition(records) -> int:
    """The a with the smallest measured count; ties go to the largest a."""
    if not records:
        raise EmptySweep("no sweep records to take an argmin over")
    return min(records, key=lambda r: (r.dc_measured, -r.a)).a


def run_trials(n: int, trials: int, base_seed: int, jobs: int = 1) -> TrialHistogram:
    """Tally the argmin parameter over ``trials`` independently seeded sweeps.

    Trial t uses seed splitmix64_mix(base_seed + t), so the tally does not
    depend on execution order: the trials run on at most ``jobs`` worker
    processes, and no more than ``trials`` or the CPUs this process may run
    on (``len(os.sched_getaffinity(0))`` where the platform has it, else
    ``os.cpu_count()``), each given one contiguous chunk of them; with one
    worker they run in this process.  The histogram is byte-identical to
    the sequential run.
    """
    if n < 2:
        raise InsufficientPoints(f"need at least 2 points, got {n}")
    if trials < 1:
        raise ClosepairError(f"trial count must be >= 1, got {trials}")
    if jobs < 1:
        raise ClosepairError(f"job count must be >= 1, got {jobs}")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(jobs, trials, cpus)
    seeds = (splitmix64_mix(base_seed + t) for t in range(trials))
    if workers == 1:
        winners = map(_trial, repeat(n), seeds)
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            winners = list(pool.map(_trial, repeat(n), seeds, chunksize=math.ceil(trials / workers)))
    counts = Counter(winners)
    return TrialHistogram(n, trials, {a: counts[a] for a in range(2, n + 1)})


def growth_check(sizes, seed: int) -> list:
    """Measured 2-way counts per instance size, for growth-ratio analysis; a one-row sweep at a = 2."""
    return [(n, run_sweep(n, seed, 2, 2)[0].dc_measured) for n in sizes]


def _trial(n: int, seed: int) -> int:
    """The winning a of one seeded sweep over a = 2..n."""
    return argmin_partition(run_sweep(n, seed, 2, n))

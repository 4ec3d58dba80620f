import sys
import tracemalloc
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from closepair import experiments
from closepair.errors import ClosepairError, EmptySweep, InsufficientPoints, InvalidPartition
from closepair.experiments import (
    SweepRecord,
    argmin_partition,
    gen_uniform_points,
    growth_check,
    run_sweep,
    run_trials,
    splitmix64_mix,
    splitmix64_stream,
)
from closepair.geometry import OpCounter, final_distance
from closepair.solvers import brute_force


class TestSplitmix64:
    def test_reference_vector_seed_zero(self):
        # first outputs of the published reference implementation for seed 0
        s = splitmix64_stream(0)
        assert next(s) == 0xE220A8397B1DCDAF
        assert next(s) == 0x6E789E6AA1B965F4
        assert next(s) == 0x06C45D188009454F

    def test_mix_is_pinned(self):
        assert splitmix64_mix(0) == 0
        # mix of the golden increment equals the stream's first output for seed 0
        assert splitmix64_mix(0x9E3779B97F4A7C15) == 0xE220A8397B1DCDAF

    def test_mix_wraps_to_64_bits(self):
        assert splitmix64_mix(2**64 + 5) == splitmix64_mix(5)
        assert 0 <= splitmix64_mix(2**63) < 2**64

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    def test_outputs_are_64_bit(self, seed):
        assert 0 <= next(splitmix64_stream(seed)) < 2**64


class TestSplitmix64Block:
    """The lane-parallel kernel against the scalar stream, across block edges."""

    B = experiments._BLOCK

    @classmethod
    def kernel_draws(cls, seed, count):
        draws = []
        for lo in range(0, count, cls.B):
            draws += experiments._splitmix64_block(seed, lo, min(cls.B, count - lo))
        return draws

    @pytest.mark.parametrize("count", [1, 2, B - 1, B, B + 1, 2 * B + 2])
    @pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1, -1, 2**64 + 5])
    def test_kernel_equals_stream(self, seed, count):
        stream = list(islice(splitmix64_stream(seed), count))
        assert self.kernel_draws(seed, count) == [u >> 11 for u in stream]

    def test_other_byte_order_swaps_each_word(self, monkeypatch):
        # The kernel unpacks little-endian bytes into native words and swaps
        # them on a big-endian machine, so patching in the opposite byte
        # order must swap every word.
        other = "big" if sys.byteorder == "little" else "little"
        stream = list(islice(splitmix64_stream(5), 3))
        monkeypatch.setattr(sys, "byteorder", other)
        words = experiments._splitmix64_block(5, 0, 3)
        assert list(words) == [int.from_bytes((u >> 11).to_bytes(8, "little"), "big") for u in stream]

    @pytest.mark.parametrize("n", [0, 1, B // 2, B // 2 + 1, 3 * B // 2 + 1])
    def test_gen_equals_the_per_point_loop(self, n):
        stream = splitmix64_stream(99)
        expected = []
        for _ in range(n):
            x = (next(stream) >> 11) * 2.0**-53
            y = (next(stream) >> 11) * 2.0**-53
            expected.append((x.hex(), y.hex()))
        assert [(p.x.hex(), p.y.hex()) for p in gen_uniform_points(n, 99)] == expected

    def test_transient_memory_is_per_block(self):
        # All 131,072 draws in one block would hold 6.3 MiB of transient
        # ints; the list that PointSet copies is 0.5 MiB.
        tracemalloc.start()
        try:
            points = gen_uniform_points(65536, 1)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(points) == 65536
        assert peak - retained < 2**20


class TestGenUniformPoints:
    # The points themselves, n = 0 and the x-then-y draw order included, are
    # TestSplitmix64Block.test_gen_equals_the_per_point_loop's.
    def test_range_and_mean(self):
        ps = gen_uniform_points(1000, 0xABCDEF)
        assert all(0.0 <= p.x < 1.0 and 0.0 <= p.y < 1.0 for p in ps)
        mean_x = sum(p.x for p in ps) / 1000
        assert abs(mean_x - 0.5) < 0.05

    def test_different_seeds_differ(self):
        assert gen_uniform_points(8, 1) != gen_uniform_points(8, 2)

    def test_negative_count_rejected(self):
        with pytest.raises(ClosepairError):
            gen_uniform_points(-1, 0)


class TestRunSweep:
    def test_smallest_instance(self):
        records = run_sweep(2, 5, 2, 2)
        assert len(records) == 1
        assert records[0].a == 2
        assert records[0].dc_measured >= 1

    def test_full_sweep_shape_and_answer_invariance(self):
        records = run_sweep(50, 13, 2, 50)
        assert [r.a for r in records] == list(range(2, 51))
        assert len({r.dist for r in records}) == 1
        oracle = brute_force(gen_uniform_points(50, 13), OpCounter())
        assert records[0].dist == final_distance(oracle.dist_sq)

    def test_deterministic(self):
        assert run_sweep(20, 3, 2, 20) == run_sweep(20, 3, 2, 20)

    @pytest.mark.parametrize(
        "n,a_lo,a_hi,err",
        [
            (1, 2, 2, InsufficientPoints),
            (10, 1, 5, InvalidPartition),
            (10, 5, 3, InvalidPartition),
            (10, 2, 11, InvalidPartition),
        ],
    )
    def test_precondition_errors(self, n, a_lo, a_hi, err):
        with pytest.raises(err):
            run_sweep(n, 0, a_lo, a_hi)


class TestArgminPartition:
    def test_simple_min(self):
        assert argmin_partition([SweepRecord(2, 90, 1.0), SweepRecord(3, 80, 1.0)]) == 3

    def test_tie_goes_to_largest_a(self):
        assert argmin_partition([SweepRecord(2, 80, 1.0), SweepRecord(3, 80, 1.0)]) == 3
        assert argmin_partition([SweepRecord(9, 80, 1.0), SweepRecord(3, 80, 1.0)]) == 9

    def test_single_record(self):
        assert argmin_partition([SweepRecord(7, 5, 1.0)]) == 7

    def test_empty_rejected(self):
        with pytest.raises(EmptySweep):
            argmin_partition([])


class TestRunTrials:
    def test_only_one_possible_a(self):
        hist = run_trials(2, 5, 31)
        assert hist.wins == {2: 5}

    def test_conservation_and_keys(self):
        hist = run_trials(10, 40, 7)
        assert sum(hist.wins.values()) == 40
        assert set(hist.wins) == set(range(2, 11))

    def test_zero_win_parameters_present(self):
        hist = run_trials(12, 3, 0)
        assert set(hist.wins) == set(range(2, 13))
        assert sum(1 for v in hist.wins.values() if v == 0) >= 12 - 3

    def test_parallel_equals_sequential(self):
        seq = run_trials(9, 30, 1234, jobs=1)
        par = run_trials(9, 30, 1234, jobs=2)
        assert seq == par

    def test_seed_derivation_is_per_trial(self):
        # trial t is a pure function of base_seed + t: shifting the base by
        # one drops the first trial and appends a new one
        a = run_trials(6, 5, 100).wins
        b = run_trials(6, 5, 101).wins
        first = argmin_partition(run_sweep(6, splitmix64_mix(100), 2, 6))
        last = argmin_partition(run_sweep(6, splitmix64_mix(105), 2, 6))
        a[first] -= 1
        b[last] -= 1
        assert a == b

    @staticmethod
    def fake_pool(monkeypatch):
        """Swap in an in-process stand-in for the pool; returns the list it logs to.

        No process is started, however many jobs are asked for.  The log gets
        the pool's worker count and then its chunk size, and stays empty when
        no pool is made.
        """
        made = []

        class FakePool:
            def __init__(self, max_workers):
                made.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize):
                made.append(chunksize)
                return map(fn, *iterables)

        monkeypatch.setattr(experiments.concurrent.futures, "ProcessPoolExecutor", FakePool)
        return made

    @pytest.mark.parametrize("cpus,workers", [(2, 2), (None, 1), (1, 1)])
    def test_pool_is_capped_at_cpu_count(self, cpus, workers, monkeypatch):
        # Where the platform has no affinity mask, os.cpu_count() caps the
        # pool; with one worker no pool is made at all.
        made = self.fake_pool(monkeypatch)
        monkeypatch.delattr(experiments.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: cpus)
        hist = run_trials(3, 5000, 9, jobs=5000)
        # two workers, each given one chunk of 2500 trials
        assert made == ([2, 2500] if workers > 1 else [])
        assert hist == run_trials(3, 5000, 9, jobs=1)

    @pytest.mark.parametrize("mask,made", [({3}, []), ({0, 5}, [2, 2500])])
    def test_pool_is_capped_at_affinity(self, mask, made, monkeypatch):
        # Where the platform has an affinity mask, it caps the pool, not the
        # machine's CPU count: --jobs 8 under a one-CPU mask runs in-process.
        log = self.fake_pool(monkeypatch)
        # only the calling process's own mask, pid 0, is known
        monkeypatch.setattr(experiments.os, "sched_getaffinity", {0: mask}.__getitem__, raising=False)
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 8)
        hist = run_trials(3, 5000, 9, jobs=8)
        assert log == made
        assert hist == run_trials(3, 5000, 9, jobs=1)

    def test_default_runs_in_this_process(self, monkeypatch):
        def no_pool(max_workers):
            raise AssertionError(f"a pool of {max_workers} workers was made")

        monkeypatch.setattr(experiments.concurrent.futures, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 4)
        assert sum(run_trials(5, 8, 2).wins.values()) == 8

    def test_one_trial(self):
        # the smallest valid trial count, on both sides of the worker check
        winner = argmin_partition(run_sweep(4, splitmix64_mix(7), 2, 4))
        for jobs in (1, 2):
            assert run_trials(4, 1, 7, jobs=jobs).wins == {a: int(a == winner) for a in range(2, 5)}

    @pytest.mark.parametrize("n,trials,jobs", [(1, 5, 1), (5, 0, 1), (5, 5, 0)])
    def test_argument_errors(self, n, trials, jobs):
        with pytest.raises(ClosepairError):
            run_trials(n, trials, 0, jobs=jobs)


class TestGrowthCheck:
    def test_single_size(self):
        rows = growth_check([2], 0)
        assert rows[0][0] == 2 and rows[0][1] >= 1

    def test_repeated_size_same_seed(self):
        rows = growth_check([4, 4], 9)
        assert rows[0] == rows[1]

    def test_pinned_counts(self):
        # criterion 6's instances, recorded when the 2-way solver was called
        # directly instead of as a one-row sweep at a = 2
        rows = growth_check([1000, 2000, 4000, 8000], 0x60061)
        assert rows == [(1000, 947), (2000, 1860), (4000, 3719), (8000, 7486)]

    def test_subquadratic_ratios(self):
        rows = growth_check([1000, 2000, 4000], 2026)
        for (_, d1), (_, d2) in zip(rows, rows[1:]):
            assert d2 / d1 < 2.6

    def test_propagates_insufficient_points(self):
        with pytest.raises(InsufficientPoints):
            growth_check([1], 0)


@given(st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=2**64 - 1))
@settings(max_examples=60, deadline=None)
def test_sweep_records_all_report_oracle_distance(n, seed):
    records = run_sweep(n, seed, 2, n)
    oracle = brute_force(gen_uniform_points(n, seed), OpCounter())
    expected = final_distance(oracle.dist_sq)
    assert all(r.dist == expected for r in records)

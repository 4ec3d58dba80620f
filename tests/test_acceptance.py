"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and the full trial histogram.
"""

import os
import random
import time

from closepair.cost_model import analytic_total_cost
from closepair.experiments import (
    argmin_partition,
    gen_uniform_points,
    growth_check,
    run_sweep,
    run_trials,
    splitmix64_mix,
    splitmix64_stream,
)
from closepair.geometry import OpCounter, Point, PointSet
from closepair.solvers import brute_force, closest_pair_2way, closest_pair_kway

from conftest import differential, run_cli


def _report(num, label, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num} ({label}): {status} ({detail})")
    assert ok, f"criterion {num} ({label}): {detail}"


def _a_values(n):
    return sorted({2, 3, max(2, (n + 1) // 2), n})


def test_criterion_1_oracle_equivalence():
    t0 = time.perf_counter()
    stream = splitmix64_stream(0xACC1)
    mismatches = 0
    for _ in range(1000):
        n = 2 + next(stream) % 63
        ps = gen_uniform_points(n, next(stream))
        expected = brute_force(ps, OpCounter()).dist_sq
        if closest_pair_2way(ps, OpCounter()).dist_sq != expected:
            mismatches += 1
        for a in _a_values(n):
            if closest_pair_kway(ps, a, OpCounter()).dist_sq != expected:
                mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 30.0
    _report(1, "oracle equivalence", ok, f"1000 instances, {mismatches} mismatches, {elapsed:.1f}s")


def test_criterion_2_counter_exactness():
    bad = []
    for n in (2, 10, 100, 500):
        r = brute_force(gen_uniform_points(n, n), OpCounter())
        if r.dc_used != n * (n - 1) // 2:
            bad.append((n, r.dc_used))
    _report(2, "counter exactness", not bad, f"n in {{2,10,100,500}}, deviations: {bad or 'none'}")


def test_criterion_3_analytic_model():
    t0 = time.perf_counter()
    problems = []
    c = analytic_total_cost(50, 50)
    if not (c.total == 98.0 and c.local_cost == 0.0):
        problems.append(f"(50,50) gave total={c.total}, local={c.local_cost}")
    for n in (2, 10, 1000):
        if analytic_total_cost(n, n).total != 2.0 * (n - 1):
            problems.append(f"({n},{n}) total != 2(n-1)")
    for n in range(2, 201):
        totals = [(analytic_total_cost(n, a).total, a) for a in range(2, n + 1)]
        best_total = min(t for t, _ in totals)
        winner = max(a for t, a in totals if t == best_total)
        if winner != n:
            problems.append(f"argmin at n={n} is {winner}")
    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 1.0
    _report(3, "analytic model", ok, f"{problems or 'all exact'}, {elapsed:.2f}s")


def test_criterion_4_sweep_argmin():
    t0 = time.perf_counter()
    argmin_wins = 0
    top3_hits = 0
    histogram = {}
    for i in range(100):
        records = run_sweep(50, splitmix64_mix(0xF1604 + i), 2, 50)
        winner = argmin_partition(records)
        histogram[winner] = histogram.get(winner, 0) + 1
        if winner == 50:
            argmin_wins += 1
        lowest_three = sorted(records, key=lambda r: (r.dc_measured, -r.a))[:3]
        if any(r.a == 50 for r in lowest_three):
            top3_hits += 1
    elapsed = time.perf_counter() - t0
    ok = argmin_wins >= 50 and top3_hits >= 80 and elapsed < 60.0
    print(f"[acceptance] criterion 4 argmin histogram: {dict(sorted(histogram.items()))}")
    _report(
        4,
        "sweep argmin at a=n",
        ok,
        f"argmin=50 in {argmin_wins}/100 seeds (need >=50), "
        f"50 in lowest three in {top3_hits}/100 (need >=80), {elapsed:.1f}s",
    )


def test_criterion_5_trials_histogram():
    t0 = time.perf_counter()
    jobs = min(os.cpu_count() or 1, 8)
    hist = run_trials(50, 10_000, 0xF1605, jobs=jobs)
    elapsed = time.perf_counter() - t0
    mode = max(hist.wins, key=lambda a: (hist.wins[a], a))
    mode_freq = hist.wins[mode] / hist.trials
    top_band = sum(hist.wins[a] for a in range(46, 51)) / hist.trials
    ok = mode in {48, 49, 50} and mode_freq >= 0.35 and top_band >= 0.70 and elapsed < 300.0
    print("[acceptance] criterion 5 full histogram (a: wins):")
    for a in range(2, 51):
        print(f"  {a},{hist.wins[a]}")
    _report(
        5,
        "trials histogram",
        ok,
        f"mode={mode} (need in {{48,49,50}}), mode freq={mode_freq:.4f} (need >=0.35), "
        f"wins 46..50={top_band:.4f} (need >=0.70), {elapsed:.1f}s",
    )


def test_criterion_6_growth_property():
    t0 = time.perf_counter()
    rows = growth_check([1000, 2000, 4000, 8000], 0x60061)
    ratios = [d2 / d1 for (_, d1), (_, d2) in zip(rows, rows[1:])]
    elapsed = time.perf_counter() - t0
    ok = all(r < 2.6 for r in ratios) and elapsed < 30.0
    _report(
        6,
        "subquadratic growth",
        ok,
        f"counts={rows}, ratios={[round(r, 3) for r in ratios]} (need each < 2.6), {elapsed:.1f}s",
    )


def test_criterion_7a_strip_scan_span_bound():
    stream = splitmix64_stream(0x7A)
    configs = {
        "2way": lambda ps, c: closest_pair_2way(ps, c),
        "kway a=2": lambda ps, c: closest_pair_kway(ps, 2, c),
        "kway a=n/2": lambda ps, c: closest_pair_kway(ps, max(2, len(ps) // 2), c),
        "kway a=n": lambda ps, c: closest_pair_kway(ps, len(ps), c),
    }
    worst = {name: 0 for name in configs}
    for _ in range(200):
        n = 2 + next(stream) % 63
        ps = gen_uniform_points(n, next(stream))
        assert len(set(ps.points)) == n  # distinct-point instances
        for name, run in configs.items():
            with differential.recorded_spans() as (spans, _):
                run(ps, OpCounter())
            if spans:
                worst[name] = max(worst[name], max(spans))
    _report(
        "7a",
        "strip-scan span bound",
        max(worst.values()) <= 7,
        f"200 cases, max successors compared per config: {worst} (need each <= 7)",
    )


def test_criterion_7b_permutation_invariance():
    stream = splitmix64_stream(0x7B)
    bad = 0
    for case in range(200):
        n = 2 + next(stream) % 47
        ps = gen_uniform_points(n, next(stream))
        expected = brute_force(ps, OpCounter()).dist_sq
        shuffled = list(ps.points)
        random.Random(case).shuffle(shuffled)
        sps = PointSet(shuffled)
        for solve in (
            lambda: brute_force(sps, OpCounter()),
            lambda: closest_pair_2way(sps, OpCounter()),
            lambda: closest_pair_kway(sps, max(2, min(5, n)), OpCounter()),
        ):
            if solve().dist_sq != expected:
                bad += 1
    _report("7b", "permutation invariance", bad == 0, f"200 cases, {bad} mismatches")


def test_criterion_7c_power_of_two_scaling():
    stream = splitmix64_stream(0x7C)
    bad = 0
    for _ in range(200):
        n = 2 + next(stream) % 31
        k = next(stream) % 17 - 8
        s = 2.0 ** k
        ps = gen_uniform_points(n, next(stream))
        scaled = PointSet(Point(p.x * s, p.y * s) for p in ps)
        for solve in (
            lambda q, c: brute_force(q, c),
            lambda q, c: closest_pair_2way(q, c),
            lambda q, c: closest_pair_kway(q, max(2, n // 2), c),
        ):
            c0, c1 = OpCounter(), OpCounter()
            r0 = solve(ps, c0)
            r1 = solve(scaled, c1)
            if r1.dist_sq != (s * s) * r0.dist_sq or r1.dc_used != r0.dc_used:
                bad += 1
    _report("7c", "power-of-two scaling", bad == 0, f"200 cases, {bad} mismatches")


def test_criterion_7d_csv_repeat_determinism(capsys):
    stream = splitmix64_stream(0x7D)
    bad = 0
    for case in range(200):
        seed = str(next(stream))
        n = 2 + next(stream) % 15
        kind = case % 4
        if kind == 0:
            argv = ["sweep", "--n", str(n), "--seed", seed, "--a-min", "2", "--a-max", str(n)]
        elif kind == 1:
            argv = ["model", "--n", str(n), "--a-min", "2", "--a-max", str(n)]
        elif kind == 2:
            argv = ["gen", "--n", str(n), "--seed", seed]
        else:
            argv = ["trials", "--n", str(n), "--trials", str(1 + case % 6), "--seed", seed]
        runs = [run_cli(argv, capsys) for _ in range(2)]
        for code, out, _ in runs:
            assert code == 0 and "\r" not in out and out.endswith("\n")
        if runs[0] != runs[1]:
            bad += 1
    _report("7d", "CSV determinism under repetition", bad == 0, f"200 cases, {bad} diffs")


def test_criterion_7e_csv_determinism_under_jobs(capsys):
    stream = splitmix64_stream(0x7E)
    bad = 0
    for case in range(200):
        n = 2 + next(stream) % 7
        trials = 1 + next(stream) % 10
        seed = str(next(stream))
        base = ["trials", "--n", str(n), "--trials", str(trials), "--seed", seed]
        sequential = run_cli(base + ["--jobs", "1"], capsys)
        parallel = run_cli(base + ["--jobs", str(2 + case % 2)], capsys)
        assert sequential[0] == parallel[0] == 0
        if sequential != parallel:
            bad += 1
    _report("7e", "CSV determinism under --jobs", bad == 0, f"200 cases, {bad} diffs")

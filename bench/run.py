"""Run one closepair benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the package is imported from ``src/`` beside
this directory, and scratch files go to ``.bench_build/`` there.  Human-readable
lines come first; the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer ones (see README.md in this directory).
"""

import argparse
import hashlib
import importlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

from calibrate import Sampler
from tracing import TIMED_SPANS, DcLedger, SpanTimer
from workloads import WORKLOADS, BenchError

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_build" / "closepair"
LAYERS = ("cli", "experiments", "solvers", "geometry")
GEN_SPAN = {"experiments.gen": TIMED_SPANS["experiments.gen"]}


def load_package():
    """Import the package's layers from the checkout's src/, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "closepair" or m.startswith("closepair.")]:
        del sys.modules[name]
    pkg = SimpleNamespace(**{layer: importlib.import_module(f"closepair.{layer}") for layer in LAYERS})
    if not Path(pkg.cli.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"closepair was imported from {pkg.cli.__file__}, not from {SRC}")
    return pkg


def measure_setup(workload, seed, gen_timer=None):
    """Median scaled seconds of the workload's set-up (package import, inputs, oracle answers).

    Set-up repeats ``workload.setup_reps`` times; the last repetition's state is
    kept.  With ``gen_timer``, the last repetition also times instance generation.
    """
    intervals = []
    with Sampler() as sampler:
        for rep in range(workload.setup_reps):
            mark = sampler.mark()
            pkg = load_package()
            if gen_timer is not None and rep == workload.setup_reps - 1:
                with gen_timer.installed(pkg, GEN_SPAN):
                    workload.setup(pkg, seed, WORKDIR)
            else:
                workload.setup(pkg, seed, WORKDIR)
            intervals.append(sampler.interval(mark))
    return statistics.median(sampler.scale(intervals)) / 1e9, pkg


class Tally:
    """Items attempted and failed, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def record(self, reason):
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(reason)


def run_item(workload, block, idx, tally, first, sampler=None):
    """Run one item, then check its output; returns the item's (start, end, own ns)."""
    sampler = sampler or Sampler()
    mark = sampler.mark()
    try:
        out = block[idx]()
    except Exception as exc:  # a raising item is a failed item, not a failed run
        reason = f"item {idx} raised {type(exc).__name__}: {exc}"
    else:
        reason = None
    interval = sampler.interval(mark)
    if reason is None:
        reason = workload.check(idx, out)
        if reason is None:
            first.setdefault(idx, out)
        else:
            reason = f"item {idx}: {reason}"
    tally.record(reason)
    return interval


class Loop:
    """Latencies of one timed loop: scaled to the reference speed, and raw."""

    def __init__(self):
        self.lat = []
        self.raw_ns = 0

    def items_per_s(self):
        return len(self.lat) / (sum(self.lat) / 1e9)

    def raw_items_per_s(self):
        return len(self.lat) / (self.raw_ns / 1e9)


def timed_loop(workload, block, seconds, tally, first):
    """Time items, cycling through the block until ``seconds`` of raw item time.

    Whole-block workloads stop only at a block boundary, so each item kind is
    sampled equally often and the percentiles do not depend on where time ran out.
    """
    budget = seconds * 1_000_000_000
    loop = Loop()
    intervals = []
    with Sampler() as sampler:
        while loop.raw_ns < budget or (workload.whole_blocks and len(intervals) % len(block)):
            interval = run_item(workload, block, len(intervals) % len(block), tally, first, sampler)
            intervals.append(interval)
            loop.raw_ns += interval[2]
    loop.lat = sampler.scale(intervals)
    return loop


def p90(values):
    return values[0] if len(values) < 2 else statistics.quantiles(values, n=10)[-1]


def read_caches():
    """Cache sizes by level from /sys (read-only); empty where unavailable."""
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    out = {}
    try:
        for index in sorted(base.glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                out[f"L{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return out


def print_metric(name, value, unit, note=""):
    print(f"  {name:<32} {value:>14.6g} {unit:<6} {note}".rstrip())


def finish_block(workload, block, tally, first):
    """Complete the block's first outputs (untimed, if time ran out) and run the block checks."""
    for idx in range(len(block)):
        if idx not in first:
            run_item(workload, block, idx, tally, first)
    if len(first) < len(block):
        return ["some block items never produced a correct output"], b""
    return workload.finish(first)


def output_digest(workload, block, first, extra):
    h = hashlib.sha256()
    for idx in range(len(block)):
        h.update(workload.canon(first[idx]) + b"\n")
    h.update(extra)
    return h.hexdigest()


def end_to_end(loop, setup_s, dc_per_item):
    lat_ms = [ns / 1e6 for ns in loop.lat]
    return {
        "items_per_s": (loop.items_per_s(), "1/s"),
        "item_ms_p50": (statistics.median(lat_ms), "ms"),
        "item_ms_p90": (p90(lat_ms), "ms"),
        "dc_per_item": (dc_per_item, "count"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(workload, block, seconds, tally, first, seed_gen_timer):
    """Untraced loop, traced loop, counting pass and (trials only) the process fan-out.

    Returns {name: (value or None when absent, unit)}.  Span times are scaled
    by the traced loop's overall reference-speed factor.  The fan-out figures
    are raw wall time: the probe runs in the parent and cannot see the workers.
    """
    untraced = timed_loop(workload, block, seconds, tally, first)
    timer = SpanTimer()
    with timer.installed(workload.pkg):
        traced = timed_loop(workload, block, seconds, tally, first)

    ledger = DcLedger(workload.pkg.geometry.OpCounter)
    with ledger.installed(workload.pkg):
        for idx in range(len(block)):
            run_item(workload, block, idx, tally, first)

    if ledger.dc_calls and ledger.strip_counted and ledger.strip_dc + ledger.local_dc != ledger.geometry_dc:
        raise BenchError(
            f"strip_dc {ledger.strip_dc} + local_dc {ledger.local_dc} != geometry.dc {ledger.geometry_dc}"
        )

    factor = sum(traced.lat) / traced.raw_ns

    def ms_per_item(ns, span):
        return ns * factor / len(traced.lat) / 1e6 if timer.calls[span] else None

    def per_block_item(count, present):
        return count / len(block) if present else None

    gen_calls = timer.calls["experiments.gen"] + seed_gen_timer.calls["experiments.gen"]
    gen_ns = timer.incl["experiments.gen"] + seed_gen_timer.incl["experiments.gen"]
    fanout_s = fanout_eff = None
    if hasattr(workload, "fanout"):
        jobs = min(2, os.cpu_count() or 1)
        t0 = time.perf_counter()
        trials = workload.fanout(jobs)
        fanout_s = time.perf_counter() - t0
        fanout_eff = trials / fanout_s / untraced.raw_items_per_s() / jobs

    strips = ledger.strip_calls > 0
    dcs = ledger.dc_calls > 0
    return {
        "solvers.solve_ms": (ms_per_item(timer.incl["solvers.solve"], "solvers.solve"), "ms"),
        "solvers.self_ms": (ms_per_item(timer.self_ns("solvers.solve"), "solvers.solve"), "ms"),
        "solvers.partition_ms": (ms_per_item(timer.incl["solvers.partition"], "solvers.partition"), "ms"),
        "solvers.partition_calls": (per_block_item(ledger.partition_calls, ledger.partition_calls), "count"),
        "solvers.strip_scan_ms": (ms_per_item(timer.incl["solvers.strip_scan"], "solvers.strip_scan"), "ms"),
        "solvers.strip_scan_calls": (per_block_item(ledger.strip_calls, strips), "count"),
        "solvers.strip_points": (per_block_item(ledger.strip_points, strips), "count"),
        "solvers.strip_empty_ratio": (ledger.strip_empty / ledger.strip_calls if strips else None, "ratio"),
        "solvers.strip_dc": (per_block_item(ledger.strip_dc, strips and ledger.strip_counted), "count"),
        "solvers.local_dc": (per_block_item(ledger.local_dc, dcs), "count"),
        "geometry.dc": (per_block_item(ledger.geometry_dc, True), "count"),
        "geometry.dc_repeat_ratio": (ledger.repeats / ledger.dc_calls if dcs else None, "ratio"),
        "experiments.gen_ms": (gen_ns * factor / gen_calls / 1e6 if gen_calls else None, "ms"),
        "experiments.sweep_self_ms": (
            ms_per_item(timer.self_ns("experiments.run_sweep"), "experiments.run_sweep"),
            "ms",
        ),
        "experiments.fanout_s": (fanout_s, "s"),
        "experiments.fanout_efficiency": (fanout_eff, "ratio"),
        "cli.parse_ms": (ms_per_item(timer.incl["cli.parse"], "cli.parse"), "ms"),
        "cli.self_ms": (ms_per_item(timer.self_ns("cli.main"), "cli.main"), "ms"),
        "trace.overhead_ratio": (traced.items_per_s() / untraced.items_per_s(), "ratio"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description="closepair benchmark: one workload per run")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "closepair" / "__init__.py").is_file():
        print(f"error: no closepair package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORKDIR.mkdir(parents=True, exist_ok=True)

    workload = WORKLOADS[args.workload]()
    try:
        return run(workload, args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run(workload, args):
    seed_gen_timer = SpanTimer()
    setup_s, pkg = measure_setup(workload, args.seed, seed_gen_timer if args.trace else None)
    block = workload.items()
    caches = ", ".join(f"{k} {v}" for k, v in read_caches().items()) or "unknown"
    print(f"closepair benchmark: workload {workload.name}, seed {args.seed}, {args.seconds:g} s per loop")
    print(f"context: nproc {os.cpu_count()}, Python {sys.version.split()[0]}, caches per core: {caches}")
    print("context: timing is process-level wall clock (perf_counter_ns), scaled to a reference speed")
    print("context: by calibrate.py's timer-driven probe kernel; no hardware counters")
    print(f"context: working set {workload.working_set_bytes()} bytes (computed from object sizes)")

    tally = Tally()
    first = {}
    if args.trace:
        metrics = per_layer(workload, block, args.seconds, tally, first, seed_gen_timer)
    else:
        loop = timed_loop(workload, block, args.seconds, tally, first)
    errors, extra = finish_block(workload, block, tally, first)
    if len(first) == len(block):
        dc_per_item = sum(workload.dc(first[idx]) for idx in range(len(block))) / len(block)
        print(f"digest sha256:{output_digest(workload, block, first, extra)} over {len(block)} block items")
    else:
        dc_per_item = 0.0

    if args.trace:
        absent = sorted(name for name, (value, _) in metrics.items() if value is None)
        metrics = {name: (0.0 if value is None else value, unit) for name, (value, unit) in metrics.items()}
        print("per-layer metrics (times per timed item, counts per block item):")
        for name, (value, unit) in metrics.items():
            print_metric(name, value, unit, "(absent: not on this workload's call path)" if name in absent else "")
    else:
        metrics = end_to_end(loop, setup_s, dc_per_item)
        samples = f"({len(loop.lat)} samples)"
        notes = {"item_ms_p50": samples, "item_ms_p90": samples, "setup_s": f"(median of {workload.setup_reps})",
                 "items_per_s": f"(raw wall clock: {loop.raw_items_per_s():.6g})"}
        print("end-to-end metrics:")
        for name, (value, unit) in metrics.items():
            print_metric(name, value, unit, notes.get(name, ""))
    print_metric("fail_ratio", tally.failed / tally.attempted, "ratio", f"({tally.failed}/{tally.attempted})")
    for reason in tally.reasons + errors:
        print(f"FAIL {reason}")

    result = {
        "correct": tally.failed == 0 and not errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

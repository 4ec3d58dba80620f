"""Self-tests of the benchmark, on small inputs.

    python3 -m pytest bench/test_bench.py -q
"""

import argparse
import contextlib
import io
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(run.SRC))

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

SMALL = {
    "trials_n50": (workloads.TrialsN50, {"n": 12, "block": 4}),
    "uniform_large": (workloads.UniformLarge, {"n": 400, "a": 4}),
    "degenerate_mix": (workloads.DegenerateMix, {"n": 40, "a": 4}),
}


def small(name, cls=None):
    base, kwargs = SMALL[name]
    return (cls or base)(**kwargs)


def run_small(workload, trace=0, seconds=0.05):
    """Run ``run.run`` in-process; returns (exit code, stdout lines, result object)."""
    args = argparse.Namespace(seed=3, seconds=seconds, trace=trace)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.run(workload, args)
    lines = out.getvalue().splitlines()
    return code, lines, json.loads(lines[-1])


@pytest.fixture(autouse=True)
def _workdir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORKDIR", tmp_path)


@pytest.mark.parametrize("name", sorted(SMALL))
@pytest.mark.parametrize("trace", [0, 1])
def test_unmodified_package_passes_and_reports_every_metric(name, trace):
    code, lines, result = run_small(small(name), trace)
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {k: v["unit"] for k, v in result["metrics"].items()}
    assert any(line.startswith("digest sha256:") for line in lines)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_counting_pass_phases_sum_to_the_counter(name):
    _, _, result = run_small(small(name), trace=1)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["geometry.dc"] > 0
    assert m["solvers.strip_dc"] + m["solvers.local_dc"] == pytest.approx(m["geometry.dc"], rel=1e-12)


def test_layers_off_the_call_path_are_reported_absent():
    _, lines, result = run_small(small("trials_n50"), trace=1)
    assert result["metrics"]["cli.parse_ms"]["value"] == 0.0
    assert any("cli.parse_ms" in line and "absent" in line for line in lines)
    assert result["metrics"]["experiments.fanout_s"]["value"] > 0


def test_swapping_skips_attributes_that_no_longer_exist():
    mod = SimpleNamespace(kept=lambda: 1)
    pkg = SimpleNamespace(solvers=mod)
    with tracing.swapped(pkg, [("solvers", "kept"), ("solvers", "removed")], lambda fn: lambda: 2):
        assert mod.kept() == 2 and not hasattr(mod, "removed")
    assert mod.kept() == 1


def _with_wrong_answer(cls, corrupt):
    class Wrong(cls):
        def setup(self, *args):
            super().setup(*args)
            corrupt(self)

    return Wrong


WRONG = {
    "trials_n50": lambda w: w.oracle.__setitem__(0, w.oracle[0] * 2),
    "uniform_large": lambda w: setattr(w, "expected_distance", "0.5"),
    "degenerate_mix": lambda w: w.oracle.__setitem__(0, w.oracle[0] + 1.0),
}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_a_wrong_expected_answer_is_counted_as_a_failure(name):
    code, lines, result = run_small(small(name, _with_wrong_answer(SMALL[name][0], WRONG[name])))
    assert code == 0
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]
    assert any(line.startswith("FAIL ") for line in lines)


def test_a_raising_item_is_counted_as_a_failure():
    class Raising(workloads.DegenerateMix):
        def items(self):
            block = super().items()

            def boom():
                raise ValueError("injected")

            return [boom] + block[1:]

    code, lines, result = run_small(Raising(n=40, a=4))
    assert code == 0 and not result["correct"]
    assert result["failed"] >= 1
    assert any("injected" in line for line in lines)


def test_grid_oracle_matches_exhaustive_search():
    rng = random.Random(5)
    for n in (2, 3, 50, 300):
        coords = [(rng.random(), rng.random()) for _ in range(n)]
        if n == 300:
            coords.append(coords[150])  # a duplicate: distance 0
        exhaustive = min(
            workloads.squared(p, q) for k, p in enumerate(coords) for q in coords[k + 1 :]
        )
        assert workloads.grid_closest_dist_sq(coords) == exhaustive


def test_fails_without_a_result_outside_a_checkout(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "trials_n50", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

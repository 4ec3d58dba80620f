"""``tools/ab.py``: two trees' packages in one process, their outputs compared before any timing."""

import shutil

from conftest import ROOT

import ab


def copy_src(dest):
    shutil.copytree(ROOT / "src", dest, ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def test_same_tree_twice(tmp_path, capsys):
    a = copy_src(tmp_path / "a")
    b = copy_src(tmp_path / "b")
    assert ab.main([str(a), str(b), "degenerate_mix", "--rounds", "4"]) == 0
    head, times, ratio = capsys.readouterr().out.splitlines()
    assert head == "degenerate_mix seed 1: outputs equal on 9 block items; 4 rounds of 1 pass(es) over the block"
    assert times.startswith("A median ") and ratio.startswith("B/A median ")
    assert ratio.endswith(" of 4 rounds")


def test_different_outputs_are_not_timed(tmp_path, capsys):
    # The copy's 2-way solver runs at a = 3: the same distances, other DC
    # counts, so the three 2-way items' outputs differ.
    a = copy_src(tmp_path / "a")
    b = copy_src(tmp_path / "b")
    solvers = b / "closepair" / "solvers.py"
    text = solvers.read_text()
    solvers.write_text(text.replace("return closest_pair_kway(point_set, 2, counter)",
                                    "return closest_pair_kway(point_set, 3, counter)"))
    assert ab.main([str(a), str(b), "degenerate_mix", "--item", "0"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [f"item {k}: the trees' outputs differ" for k in (0, 3, 6)]

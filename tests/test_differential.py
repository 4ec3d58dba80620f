"""Tier-1 gate on the differential run of ``tools/differential.py``, and on its span recorder.

The first 2,000 inputs of the tool's corpus, solved exactly as the tool
solves them, must match brute force everywhere, spend exactly
``exact_local_cost(n, a)`` DCs plus the sum of their spans, and write the
same bytes as when they were recorded, before 2- and 3-point regions were
solved inside their node's region loop.  The rows hold every solve's pair, distance, DC
count and nonzero scan spans, so a change to which pairs any solver
evaluates, or in what order, changes the digest.  The prefix holds
duplicate, grid and signed-zero inputs on which each x-window walk's
stopping test changes DC counts when made strict or loose; the full corpus
is the tool's to run.

The solver does not log spans: the tool's ``recorded_spans`` observes them
from outside, by wrapping ``solvers.strip_scan`` and
``solvers.squared_distance`` while its block runs, and the originals must be
back after a solve that raises.  Its spans on hand-built strips are checked
in ``tests/test_solvers.py`` (``TestStripScan``).
"""

import hashlib
import io
import itertools

import pytest

from closepair import solvers
from closepair.errors import DistanceOverflow
from closepair.geometry import OpCounter, squared_distance
from closepair.solvers import closest_pair_kway, strip_scan

from conftest import differential, point_set


def test_differential_prefix_is_unchanged():
    out = io.StringIO()
    prefix = itertools.islice(enumerate(differential.corpus()), 2000)
    rows, mismatches = differential.run(prefix, out)
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert (rows, mismatches) == (46059, 0)
    assert digest == "66ff855bf862be24a9105895f073913044de6913bcdbab6541e83063a07ca15e"


def test_recorded_spans_restores_the_originals_after_a_raise():
    # every pair overflows, but each gap's square alone does not, so the
    # lines are not skipped and the scans compare
    far = point_set([(k * 1e154, k * 1e154) for k in range(4)])
    with pytest.raises(DistanceOverflow):
        with differential.recorded_spans() as (spans, _):
            closest_pair_kway(far, 2, OpCounter())
    assert spans
    assert solvers.strip_scan is strip_scan
    assert solvers.squared_distance is squared_distance

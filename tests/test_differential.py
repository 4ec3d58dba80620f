"""Tier-1 gate on the differential run of ``tools/differential.py``.

The first 2,000 inputs of the tool's corpus, solved exactly as the tool
solves them, must match brute force everywhere and write the same bytes as
when they were recorded, before 2- and 3-point regions were solved inside
their node's region loop.  The rows hold every solve's pair, distance, DC
count and nonzero scan spans, so a change to which pairs any solver
evaluates, or in what order, changes the digest.  The prefix holds
duplicate, grid and signed-zero inputs on which each x-window walk's
stopping test changes DC counts when made strict or loose; the full corpus
is the tool's to run.
"""

import hashlib
import io
import itertools

from conftest import differential


def test_differential_prefix_is_unchanged():
    out = io.StringIO()
    prefix = itertools.islice(enumerate(differential.corpus()), 2000)
    rows, mismatches = differential.run(prefix, out)
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert (rows, mismatches) == (46059, 0)
    assert digest == "66ff855bf862be24a9105895f073913044de6913bcdbab6541e83063a07ca15e"

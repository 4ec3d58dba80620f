"""Byte identity of a fixed script of CLI calls.

Each call's stdout is hashed and compared with a sha256 digest recorded
before the 2-way solver became the k-way core at ``a = 2``.  A refactor that
keeps every pair, count and format passes; any change to the output bytes of
``gen``, ``solve``, ``sweep``, ``trials`` or ``model`` fails here.
"""

import contextlib
import hashlib
import io

import pytest

from closepair.cli import main

GEN = ["gen", "--n", "1500", "--seed", "20261017"]

SCRIPT = {
    "gen": GEN,
    "solve brute": ["solve", "--input", "{points}", "--algo", "brute"],
    "solve two": ["solve", "--input", "{points}", "--algo", "two"],
    "solve kway a=2": ["solve", "--input", "{points}", "--algo", "kway", "--a", "2"],
    "solve kway a=16": ["solve", "--input", "{points}", "--algo", "kway", "--a", "16"],
    "solve kway a=n": ["solve", "--input", "{points}", "--algo", "kway", "--a", "1500"],
    "sweep": ["sweep", "--n", "50", "--seed", "7", "--a-min", "2", "--a-max", "50"],
    "trials jobs=1": ["trials", "--n", "20", "--trials", "60", "--seed", "3", "--jobs", "1"],
    "trials jobs=2": ["trials", "--n", "20", "--trials", "60", "--seed", "3", "--jobs", "2"],
    "model": ["model", "--n", "50", "--a-min", "2", "--a-max", "50"],
}

DIGESTS = {
    "gen": "ba2920745ddde44c56f040628a14ddfade4cfd30d7d7b6c158f6d84629d0282f",
    "solve brute": "61e4118b0187fc28148fe580c0ff827e744b820b68e9f003637bea7268a6896d",
    "solve two": "5a67832cf3fb8f9894a399ae976e60d47610aeaa3830a0cbd10da7bcc2f733db",
    "solve kway a=2": "5a67832cf3fb8f9894a399ae976e60d47610aeaa3830a0cbd10da7bcc2f733db",
    "solve kway a=16": "26eade3985e9b69985d08b4350784fc97fcaf5a1128bb55ab4e8d00374a29566",
    "solve kway a=n": "0bd158d047951f8697bc7428353df170130153b5dba64de5b479d85bade52458",
    "sweep": "16d1add4e60e0ad63b86bd3d1507c1d234951a72f147acca0988f72624d41fb9",
    "trials jobs=1": "20025d5b1c644cb8444a4e3253c6635d152ceca4a8b956d2670e2ae625ec5441",
    "trials jobs=2": "20025d5b1c644cb8444a4e3253c6635d152ceca4a8b956d2670e2ae625ec5441",
    "model": "3041b95d09f90052cdd335f86b543e14c0909462713a47ce8ddc5553d2859829",
}


def run_stdout(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0
    return buf.getvalue()


@pytest.fixture(scope="module")
def points_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "points.txt"
    path.write_text(run_stdout(GEN), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("call", list(SCRIPT))
def test_stdout_bytes_unchanged(call, points_file):
    out = run_stdout([arg.format(points=points_file) for arg in SCRIPT[call]])
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == DIGESTS[call]

import hashlib
import subprocess
import sys

import pytest

from closepair import solvers
from closepair.cli import format_number, main, parse_points_text, PointFileError
from closepair.experiments import gen_uniform_points
from closepair.geometry import Point

from conftest import run_cli

GEN = ["gen", "--n", "1500", "--seed", "20261017"]
# the bytes of a points file that holds the stdout of ``GEN``
GENERATED = object()


def run_on_file(argv, data, tmp_path, capsys):
    """``run_cli`` on ``argv`` with each ``{points}`` in it naming a file that holds ``data``.

    ``None`` writes no file, and ``GENERATED`` writes the stdout of ``GEN``.
    The file's path reads back as ``{points}`` in stderr.
    """
    f = tmp_path / "p.txt"
    if data is GENERATED:
        data = run_cli(GEN, capsys)[1].encode()
    if data is not None:
        f.write_bytes(data)
    code, out, err = run_cli([str(f) if arg == "{points}" else arg for arg in argv], capsys)
    return code, out, err.replace(str(f), "{points}")


def run_proc(args, stdin=None):
    return subprocess.run(
        [sys.executable, "-m", "closepair", *args], capture_output=True, input=stdin
    )


class TestFormatNumber:
    @pytest.mark.parametrize(
        "value,text",
        [
            (5.0, "5"),
            (0.0, "0"),
            (0.25, "0.25"),
            (1.4142135623730951, "1.4142135623730951"),
            (98.0, "98"),
            (1e16, "1e+16"),
        ],
    )
    def test_rendering(self, value, text):
        assert format_number(value) == text

    def test_round_trips(self):
        for p in gen_uniform_points(200, 55):
            assert float(format_number(p.x)) == p.x


class TestParsePoints:
    def test_comments_and_blanks(self):
        ps = parse_points_text("# header\n\n 0 0 \n# mid\n3 4\n")
        assert len(ps) == 2 and ps[1] == Point(3.0, 4.0)

    def test_error_names_line(self):
        with pytest.raises(PointFileError, match="line 3"):
            parse_points_text("0 0\n1 1\n1.0 abc\n")

    def test_wrong_field_count(self):
        with pytest.raises(PointFileError, match="line 1"):
            parse_points_text("1.0\n")


SOLVE = ["solve", "--input", "{points}", "--algo"]


def brute(data, *expected):
    """A row that solves ``data`` with ``--algo brute``."""
    return [*SOLVE, "brute"], data, expected


def arg_error(argv, err):
    """A row whose arguments fail with exit code 3, its file holding two points."""
    return argv, b"0 0\n1 1\n", (3, "", err)


class TestInvocationPins:
    """One invocation's exit code, stdout and stderr, byte for byte, with the points file it names.

    A row is ``(argv, file bytes, (exit code, stdout, stderr))``, its bytes
    as ``run_on_file`` takes them.  An expected stdout of ``sha256:<hex>``
    is compared by its digest.
    """

    # every pair of these three points is about 1e200 apart
    FAR = b"0 0\n1e200 0\n0 -1e200\n"
    OVERFLOW = (3, "", "error: every squared distance overflows to inf: the closest pair is about 1.3e154 or more apart\n")
    CASES = {
        "solve brute": ([*SOLVE, "brute"], b"0 0\n3 4\n", (0, "0 1 5 1\n", "")),
        "solve two": ([*SOLVE, "two"], b"0 0\n1 0\n5 5\n", (0, "0 1 1 3\n", "")),
        # a = 4 splits into 3 regions; the leftmost, (0, 1), is solved as a
        # leaf and makes the window 1, so lines 2 and 3 (x = 1.5, 2.5) each
        # hold one point per side within it, one cross pair each: (1, 2) and
        # (2, 3), and the solve costs 3 DCs
        "solve kway a 4": ([*SOLVE, "kway", "--a", "4"], b"0 0\n1 0\n2 0\n3 0\n", (0, "0 1 1 3\n", "")),
        "solve one point": ([*SOLVE, "brute"], b"0 0\n", (3, "", "error: need at least 2 points, got 1\n")),
        "solve brute overflow": ([*SOLVE, "brute"], FAR, OVERFLOW),
        "solve two overflow": ([*SOLVE, "two"], FAR, OVERFLOW),
        "solve kway a 3 overflow": ([*SOLVE, "kway", "--a", "3"], FAR, OVERFLOW),
        "solve kway a 3 n 3": ([*SOLVE, "kway", "--a", "3"], b"0 0\n1 0\n2 0\n", (0, "0 1 1 3\n", "")),
        "solve kway a 4 n 3": ([*SOLVE, "kway", "--a", "4"], b"0 0\n1 0\n2 0\n",
                               (0, "0 1 1 3\n", "note: a=4 exceeds n=3, clamped to 3\n")),
        "solve kway a 99 n 3": ([*SOLVE, "kway", "--a", "99"], b"0 0\n1 0\n2 0\n",
                                (0, "0 1 1 3\n", "note: a=99 exceeds n=3, clamped to 3\n")),
        # no clamp note before an error
        "solve kway a 5 one point": ([*SOLVE, "kway", "--a", "5"], b"0 0\n",
                                     (3, "", "error: need at least 2 points, got 1\n")),
        "solve kway a 5 empty": ([*SOLVE, "kway", "--a", "5"], b"", (3, "", "error: need at least 2 points, got 0\n")),
        "trials n 2": (["trials", "--n", "2", "--trials", "5", "--seed", "3"], None, (0, "a,wins\n2,5\n", "")),
        "model a equals n": (["model", "--n", "50", "--a-min", "50", "--a-max", "50"], None,
                             (0, "a,strip_cost,local_cost,total\n50,98,0,98\n", "")),
        "model n 2": (["model", "--n", "2", "--a-min", "2", "--a-max", "2"], None,
                      (0, "a,strip_cost,local_cost,total\n2,2,0,2\n", "")),
        "gen n 0": (["gen", "--n", "0", "--seed", "1"], None, (0, "", "")),
        # awkward point files
        "one field": brute(b"0 0\n1\n", 2, "", "error: line 2: expected two numbers, got 1 fields\n"),
        "three fields": brute(b"0 0\n1 2 3\n", 2, "", "error: line 2: expected two numbers, got 3 fields\n"),
        "bad float": brute(b"0 0\n1.0 abc\n", 2, "", "error: line 2: could not convert string to float: 'abc'\n"),
        "hex float": brute(b"0x10 0\n3 4\n", 2, "", "error: line 1: could not convert string to float: '0x10'\n"),
        "byte order mark": brute(b"\xef\xbb\xbf0 0\n3 4\n", 0, "0 1 5 1\n", ""),
        "byte order mark mid-file": brute(
            b"0 0\n\xef\xbb\xbf3 4\n", 2, "", "error: line 2: could not convert string to float: '\\ufeff3'\n"
        ),
        "inf": brute(b"0 0\ninf 1\n", 2, "", "error: line 2: point coordinates must be finite, got (inf, 1.0)\n"),
        "-inf": brute(b"-inf 0\n3 4\n", 2, "", "error: line 1: point coordinates must be finite, got (-inf, 0.0)\n"),
        "nan": brute(b"0 0\n1 nan\n", 2, "", "error: line 2: point coordinates must be finite, got (1.0, nan)\n"),
        "1e999": brute(b"0 0\n1e999 0\n", 2, "", "error: line 2: point coordinates must be finite, got (inf, 0.0)\n"),
        "crlf": brute(b"0 0\r\n3 4\r\n", 0, "0 1 5 1\n", ""),
        "crlf bad line": brute(b"0 0\r\n3\r\n", 2, "", "error: line 2: expected two numbers, got 1 fields\n"),
        "indented comment": brute(b"  # header\n0 0\n\t# mid\n3 4\n", 0, "0 1 5 1\n", ""),
        "comment glued to numbers": brute(b"#1 2\n0 0\n3 4\n", 0, "0 1 5 1\n", ""),
        "trailing comment": brute(b"0 0 # c\n3 4\n", 2, "", "error: line 1: expected two numbers, got 4 fields\n"),
        "tabs": brute(b"0\t0\n3\t\t4\t\n", 0, "0 1 5 1\n", ""),
        "whitespace-only lines": brute(b" \n0 0\n \t \n3 4\n\t\n", 0, "0 1 5 1\n", ""),
        "whitespace-only then bad": brute(b"0 0\n  \n\t\n5\n", 2, "",
                                          "error: line 4: expected two numbers, got 1 fields\n"),
        "form feed breaks lines": brute(b"0 0\x0c3 4\n", 0, "0 1 5 1\n", ""),
        "form feed bad line": brute(b"0 0\x0c3\n", 2, "", "error: line 2: expected two numbers, got 1 fields\n"),
        "vertical tab breaks lines": brute(b"0 0\x0b3 4\n", 0, "0 1 5 1\n", ""),
        "no final newline": brute(b"0 0\n3 4", 0, "0 1 5 1\n", ""),
        # numbers are read by float(), and every str.splitlines boundary ends a line
        "underscore digits": brute(b"0 0\n1_000 2\n", 0, "0 1 1000.001999998 1\n", ""),
        "full-width digits": brute("0 0\n１ ２\n".encode(), 0, "0 1 2.23606797749979 1\n", ""),
        "below the smallest subnormal": brute(b"0 0\n1e-400 0\n", 0, "0 1 0 1\n", ""),
        "next line breaks lines": brute(b"0 0\xc2\x853 4\n", 0, "0 1 5 1\n", ""),
        "one point": brute(b"# only\n0 0\n", 3, "", "error: need at least 2 points, got 1\n"),
        "non utf8": brute(b"0 0\n\xff\xfe1 2\n", 2, "", "error: {points} is not UTF-8 text: 'utf-8' codec can't decode"
                          " byte 0xff in position 4: invalid start byte\n"),
        "missing file": brute(None, 2, "",
                              "error: cannot read {points}: [Errno 2] No such file or directory: '{points}'\n"),
        # the bad byte's position counts from the start of the file, mark included
        "non utf8 after byte order mark": brute(
            b"\xef\xbb\xbf0 0\n\xff1 2\n", 2, "",
            "error: {points} is not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position 7: invalid start byte\n",
        ),
        # invalid arguments
        "sweep a-min 1": arg_error(["sweep", "--n", "10", "--seed", "1", "--a-min", "1", "--a-max", "5"],
                                   "error: need 2 <= a-min <= a-max <= n, got [1, 5] with n=10\n"),
        "sweep n 1": arg_error(["sweep", "--n", "1", "--seed", "1", "--a-min", "2", "--a-max", "2"],
                               "error: need at least 2 points, got 1\n"),
        "sweep n 2 a-min 1": arg_error(["sweep", "--n", "2", "--seed", "1", "--a-min", "1", "--a-max", "2"],
                                       "error: need 2 <= a-min <= a-max <= n, got [1, 2] with n=2\n"),
        "sweep a-max above n": arg_error(["sweep", "--n", "10", "--seed", "1", "--a-min", "2", "--a-max", "11"],
                                         "error: need 2 <= a-min <= a-max <= n, got [2, 11] with n=10\n"),
        "trials n 1": arg_error(["trials", "--n", "1", "--trials", "5", "--seed", "0"],
                                "error: need at least 2 points, got 1\n"),
        "trials 0": arg_error(["trials", "--n", "5", "--trials", "0", "--seed", "0"],
                              "error: trial count must be >= 1, got 0\n"),
        "trials jobs 0": arg_error(["trials", "--n", "5", "--trials", "5", "--seed", "0", "--jobs", "0"],
                                   "error: job count must be >= 1, got 0\n"),
        "model n 1": arg_error(["model", "--n", "1", "--a-min", "2", "--a-max", "2"],
                               "error: need 2 <= a-min <= a-max <= n, got [2, 2] with n=1\n"),
        "model a-max above n": arg_error(["model", "--n", "10", "--a-min", "2", "--a-max", "11"],
                                         "error: need 2 <= a-min <= a-max <= n, got [2, 11] with n=10\n"),
        "model a-min above a-max": arg_error(["model", "--n", "10", "--a-min", "5", "--a-max", "4"],
                                             "error: need 2 <= a-min <= a-max <= n, got [5, 4] with n=10\n"),
        "gen n -1": arg_error(["gen", "--n", "-1", "--seed", "1"], "error: point count must be >= 0, got -1\n"),
        "solve kway without a": arg_error([*SOLVE, "kway"], "error: --a is required with --algo kway\n"),
        "solve brute with a": arg_error([*SOLVE, "brute", "--a", "2"],
                                        "error: --a is only valid with --algo kway, not brute\n"),
        "solve kway a 1": arg_error([*SOLVE, "kway", "--a", "1"], "error: partition parameter must be >= 2, got 1\n"),
        # digests of every subcommand's stdout at a larger size
        "gen": (GEN, None, (0, "sha256:ba2920745ddde44c56f040628a14ddfade4cfd30d7d7b6c158f6d84629d0282f", "")),
        "solve brute n 1500": ([*SOLVE, "brute"], GENERATED,
                               (0, "sha256:61e4118b0187fc28148fe580c0ff827e744b820b68e9f003637bea7268a6896d", "")),
        "solve two n 1500": ([*SOLVE, "two"], GENERATED,
                             (0, "sha256:4c1ca6b27f5a27238bc7b569cff4481fd8cead6d29cad8771d4f87a8d01db876", "")),
        "solve kway a=2": ([*SOLVE, "kway", "--a", "2"], GENERATED,
                           (0, "sha256:4c1ca6b27f5a27238bc7b569cff4481fd8cead6d29cad8771d4f87a8d01db876", "")),
        "solve kway a=16": ([*SOLVE, "kway", "--a", "16"], GENERATED,
                            (0, "sha256:936aa8aea6cd2ef6aa3f4b3e6fb6322eee49ee11e7e14013861552d0a3dcba8d", "")),
        "solve kway a=n": ([*SOLVE, "kway", "--a", "1500"], GENERATED,
                           (0, "sha256:62975d4c0f33caf6fe50f82010906094746f32b634da58485b2703e9b4dd0e87", "")),
        "sweep": (["sweep", "--n", "50", "--seed", "7", "--a-min", "2", "--a-max", "50"], None,
                  (0, "sha256:a3f51a0b33ae5b7ce0545fb995c7c3e0d7f22add3dcf4d37a6850ae011774440", "")),
        "trials jobs=1": (["trials", "--n", "20", "--trials", "60", "--seed", "3", "--jobs", "1"], None,
                          (0, "sha256:3db4769c5d7cb792b9fa1eb9f29d50fb5cbcc0fd3f6b04e8e19713159ce3d026", "")),
        "trials jobs=2": (["trials", "--n", "20", "--trials", "60", "--seed", "3", "--jobs", "2"], None,
                          (0, "sha256:3db4769c5d7cb792b9fa1eb9f29d50fb5cbcc0fd3f6b04e8e19713159ce3d026", "")),
        "model": (["model", "--n", "50", "--a-min", "2", "--a-max", "50"], None,
                  (0, "sha256:3041b95d09f90052cdd335f86b543e14c0909462713a47ce8ddc5553d2859829", "")),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_output(self, case, tmp_path, capsys):
        argv, data, expected = self.CASES[case]
        code, out, err = run_on_file(argv, data, tmp_path, capsys)
        if expected[1].startswith("sha256:"):
            out = "sha256:" + hashlib.sha256(out.encode()).hexdigest()
        assert (code, out, err) == expected


class TestSweep:
    def test_shape_and_constant_distance(self, capsys):
        code, out, _ = run_cli(
            ["sweep", "--n", "50", "--seed", "1", "--a-min", "2", "--a-max", "50"], capsys
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "a,dc_count,distance"
        assert len(lines) == 1 + 49
        distances = {line.split(",")[2] for line in lines[1:]}
        assert len(distances) == 1


class TestTrials:
    def test_conservation_with_zero_rows(self, capsys):
        code, out, _ = run_cli(["trials", "--n", "50", "--trials", "100", "--seed", "6"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "a,wins"
        assert len(lines) == 1 + 49
        assert sum(int(line.split(",")[1]) for line in lines[1:]) == 100
        assert [int(line.split(",")[0]) for line in lines[1:]] == list(range(2, 51))


class TestModel:
    def test_direct_evaluation_row(self, capsys):
        _, out, _ = run_cli(["model", "--n", "8", "--a-min", "2", "--a-max", "2"], capsys)
        row = out.splitlines()[1].split(",")
        assert row[0] == "2"
        assert float(row[1]) == pytest.approx(24.0, rel=1e-9)
        assert float(row[2]) == 12.0
        assert float(row[3]) == pytest.approx(36.0, rel=1e-9)


class TestGen:
    def test_round_trip_bit_identical(self, capsys):
        code, out, _ = run_cli(["gen", "--n", "5", "--seed", "123"], capsys)
        assert code == 0
        parsed = parse_points_text(out)
        assert parsed == gen_uniform_points(5, 123)

    def test_format(self, capsys):
        _, out, _ = run_cli(["gen", "--n", "3", "--seed", "9"], capsys)
        lines = out.splitlines()
        assert len(lines) == 3
        for line in lines:
            x, y = map(float, line.split())
            assert 0.0 <= x < 1.0 and 0.0 <= y < 1.0


class TestUsageErrors:
    def test_unknown_subcommand_exits_3(self, capsys):
        code, _, _ = run_cli(["frobnicate"], capsys)
        assert code == 3

    def test_missing_required_flag_exits_3(self, capsys):
        code, _, _ = run_cli(["sweep", "--n", "10"], capsys)
        assert code == 3


class TestErrorMapping:
    def test_unexpected_value_error_propagates(self, tmp_path, monkeypatch, capsys):
        # an internal bug inside a solver is not a usage error: no exit code 3
        def broken(p, q, counter):
            raise ValueError("internal failure")

        f = tmp_path / "pts.txt"
        f.write_text("0 0\n1 1\n2 2\n3 3\n")
        monkeypatch.setattr(solvers, "squared_distance", broken)
        with pytest.raises(ValueError, match="internal failure"):
            main(["solve", "--input", str(f), "--algo", "two"])


class TestEndToEndProcess:
    """Subprocess-level checks: real exit codes, LF bytes, stream separation."""

    def test_gen_solve_round_trip(self, tmp_path):
        gen = run_proc(["gen", "--n", "40", "--seed", "20260811"])
        assert gen.returncode == 0
        f = tmp_path / "pts.txt"
        f.write_bytes(gen.stdout)
        solve = run_proc(["solve", "--input", str(f), "--algo", "two"])
        assert solve.returncode == 0
        brute = run_proc(["solve", "--input", str(f), "--algo", "brute"])
        # same file, same reported distance across algorithms
        assert solve.stdout.split()[2] == brute.stdout.split()[2]

    def test_csv_bytes_lf_only(self):
        out = run_proc(["sweep", "--n", "10", "--seed", "4", "--a-min", "2", "--a-max", "10"]).stdout
        assert b"\r" not in out
        assert out.endswith(b"\n")

    def test_parse_error_exit_code(self, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("1.0 abc\n")
        proc = run_proc(["solve", "--input", str(f), "--algo", "brute"])
        assert proc.returncode == 2
        assert b"line 1" in proc.stderr
        assert proc.stdout == b""

    def test_non_utf8_file_exit_code(self, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_bytes(b"\xff\xfe1 2\n")
        proc = run_proc(["solve", "--input", str(f), "--algo", "brute"])
        assert proc.returncode == 2
        assert proc.stderr.startswith(b"error:")
        assert b"Traceback" not in proc.stderr
        assert proc.stdout == b""

    def test_trials_jobs_byte_identical(self):
        base = ["trials", "--n", "10", "--trials", "16", "--seed", "5"]
        seq = run_proc(base + ["--jobs", "1"])
        par = run_proc(base + ["--jobs", "2"])
        assert seq.returncode == par.returncode == 0
        assert seq.stdout == par.stdout

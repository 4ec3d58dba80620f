"""Command-line surface: solve point files, run sweeps, trials, and model tables.

Each command computes its whole result and returns its output lines.
``main`` writes every stdout line, as deterministic LF-terminated text, so
a failed command leaves stdout empty, and reports every error on stderr as
one ``error:`` line; ``_cmd_solve`` adds the kway clamp note to stderr.
Exit codes: 0 success, 2 unreadable or malformed input file, 3 invalid
arguments or violated preconditions.  Point files are UTF-8; one leading
byte-order mark is dropped, and a bad byte's position counts from the start
of the file.  Binary64 values print in shortest round-trip form (integral
values without a trailing ".0"), so output parses to bit-identical floats.
"""

import argparse
import sys

from .cost_model import analytic_total_cost
from .errors import ClosepairError, InvalidPartition
from .experiments import gen_uniform_points, run_sweep, run_trials
from .geometry import OpCounter, Point, PointSet, final_distance
from .solvers import brute_force, closest_pair_2way, closest_pair_kway

PARSE_ERROR = 2
USAGE_ERROR = 3


class PointFileError(ValueError):
    """A point file that cannot be read, is not UTF-8, or has a line that does not hold two finite numbers."""


def format_number(value: float) -> str:
    """Shortest decimal string that round-trips to the same binary64 value."""
    s = repr(float(value))
    return s[:-2] if s.endswith(".0") else s


def parse_points_text(text: str) -> PointSet:
    """Parse point-file content: two numbers per line, '#' comments and blanks skipped."""
    pts = []
    for lineno, line in enumerate(text.splitlines(), 1):
        fields = line.split()
        # A point line is the common case, so blank lines, comments and
        # errors are told apart only once it has failed: no float has a '#'.
        try:
            x, y = fields
            pts.append(Point(float(x), float(y)))
        except ValueError as exc:
            if not fields or fields[0].startswith("#"):
                continue
            if len(fields) != 2:
                raise PointFileError(f"line {lineno}: expected two numbers, got {len(fields)} fields") from None
            raise PointFileError(f"line {lineno}: {exc}") from exc
    return PointSet(pts)


def _cmd_solve(args):
    if args.algo == "kway":
        if args.a is None:
            raise ClosepairError("--a is required with --algo kway")
    elif args.a is not None:
        raise ClosepairError(f"--a is only valid with --algo kway, not {args.algo}")
    try:
        with open(args.input, "rb") as fh:
            text = fh.read().decode("utf-8")
    except OSError as exc:
        raise PointFileError(f"cannot read {args.input}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise PointFileError(f"{args.input} is not UTF-8 text: {exc}") from None
    # A leading byte-order mark is dropped; one elsewhere stays text.
    points = parse_points_text(text.removeprefix("\ufeff"))
    counter = OpCounter()
    if args.algo == "brute":
        result = brute_force(points, counter)
    elif args.algo == "two":
        result = closest_pair_2way(points, counter)
    else:
        result = closest_pair_kway(points, args.a, counter)
        # Noted only once the solve has run: a failed solve clamped nothing.
        n = len(points)
        if args.a > n:
            print(f"note: a={args.a} exceeds n={n}, clamped to {n}", file=sys.stderr)
    return [f"{result.i} {result.j} {format_number(final_distance(result.dist_sq))} {result.dc_used}"]


def _check_a_range(args):
    # ``sweep`` and ``model`` name their flags when the range is invalid.
    if not 2 <= args.a_min <= args.a_max <= args.n:
        raise InvalidPartition(
            f"need 2 <= a-min <= a-max <= n, got [{args.a_min}, {args.a_max}] with n={args.n}"
        )


def _cmd_sweep(args):
    # Too few points is ``run_sweep``'s own error, as it is for ``trials``.
    if args.n >= 2:
        _check_a_range(args)
    records = run_sweep(args.n, args.seed, args.a_min, args.a_max)
    return ["a,dc_count,distance", *(f"{r.a},{r.dc_measured},{format_number(r.dist)}" for r in records)]


def _cmd_trials(args):
    hist = run_trials(args.n, args.trials, args.seed, jobs=args.jobs)
    return ["a,wins", *(f"{a},{hist.wins[a]}" for a in range(2, args.n + 1))]


def _cmd_model(args):
    _check_a_range(args)
    costs = (analytic_total_cost(args.n, a) for a in range(args.a_min, args.a_max + 1))
    rows = (f"{c.a},{format_number(c.strip_cost)},{format_number(c.local_cost)},{format_number(c.total)}"
            for c in costs)
    return ["a,strip_cost,local_cost,total", *rows]


def _cmd_gen(args):
    points = gen_uniform_points(args.n, args.seed)
    return (f"{format_number(p.x)} {format_number(p.y)}" for p in points)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; this tool reserves 2 for input files.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="closepair", description="Instrumented closest-pair solver suite.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a point file and print `i j distance dc_count`")
    p.add_argument("--input", required=True, help="point file: `x y` per line, '#' comments")
    p.add_argument("--algo", required=True, choices=["brute", "two", "kway"])
    p.add_argument("--a", type=int, default=None, help="partition parameter (kway only)")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("sweep", help="measure one seeded instance across a range of a")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--a-min", type=int, required=True)
    p.add_argument("--a-max", type=int, required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("trials", help="histogram of the winning a over repeated trials")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument(
        "--jobs", type=int, default=1, help="max worker processes, at most one per CPU (same output bytes)"
    )
    p.set_defaults(func=_cmd_trials)

    p = sub.add_parser("model", help="the paper's analytic cost estimate table")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a-min", type=int, required=True)
    p.add_argument("--a-max", type=int, required=True)
    p.set_defaults(func=_cmd_model)

    p = sub.add_parser("gen", help="write a seeded uniform point file to stdout")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=_cmd_gen)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        lines = args.func(args)
    except (PointFileError, ClosepairError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return PARSE_ERROR if isinstance(exc, PointFileError) else USAGE_ERROR
    sys.stdout.writelines(f"{line}\n" for line in lines)
    return 0


if __name__ == "__main__":
    sys.exit(main())

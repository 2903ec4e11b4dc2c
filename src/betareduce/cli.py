"""Command-line front end: evaluation, verification, figure data, integrals,
benchmarks.

Exit codes: 0 success (verify: all points pass), 1 verification failures,
2 usage or domain errors.  Values print with round-trip-exact decimals;
grids and benchmarks emit CSV (stdout or --out), summaries go to stderr so
machine-readable output stays clean.
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import nullcontext

from .bench import PRESETS, run_bench, write_bench_csv
from .errors import BetaReduceError
from .integrals import int_power_over_linear, int_tanh_power
from .rationals import decompose_pos, parse_rational
from .reduction import MAX_TAIL_TERMS, incomplete_beta, reduce_beta_many


def _rational(text: str):
    try:
        return parse_rational(text)
    except BetaReduceError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _complex_point(text: str) -> complex:
    parts = text.split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]))
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected 're' or 're,im', got {text!r}")


def _out_stream(path: str | None):
    if path is None:
        return nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8", newline="")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="betareduce",
        description="Elementary closed forms for the mu=0 incomplete beta and "
        "the s=1 Lerch transcendent at rational parameters, with "
        "oracle verification, integral evaluation, and benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate one function at one point")
    eval_sub = p_eval.add_subparsers(dest="function", required=True)
    for name, run, helptext in (
        ("beta", _eval_beta, "B(nu, 0, z) via the closed-form reduction"),
        ("lerch", _power_over_linear, "Phi(z, 1, nu) for nu > 0"),
        ("beta-mu", _eval_beta_mu, "B(nu, mu, z) for integer mu >= 1 (finite binomial sum)"),
    ):
        p_fn = eval_sub.add_parser(name, help=helptext)
        p_fn.set_defaults(run=run)
        p_fn.add_argument("--nu", required=True, type=_rational, help="rational nu, 'p/q' or decimal")
        p_fn.add_argument(
            "--z", required=True, type=_complex_point, help="'re' or 're,im'; a negative re: --z=-1e308"
        )
        if name == "beta-mu":
            p_fn.add_argument("--mu", required=True, type=int, help="integer mu >= 1")

    p_verify = sub.add_parser("verify", help="reduction vs series oracle over a grid")
    p_verify.set_defaults(run=_cmd_verify)
    p_verify.add_argument("--side", choices=("pos", "neg", "both"), default="both")
    p_verify.add_argument("--n-max", type=int, default=6, help="max integer part (default 6)")
    p_verify.add_argument("--q-max", type=int, default=12, help="max denominator (default 12)")
    p_verify.add_argument("--tol", type=float, default=1e-10, help="relative tolerance (default 1e-10)")
    p_verify.add_argument(
        "--z-point",
        action="append",
        type=_complex_point,
        metavar="Z",
        help="use this z instead of the default grid (repeatable); a negative re: --z-point=-0.5,0.25",
    )
    p_verify.add_argument("--out", help="write CSV here instead of stdout")

    p_figure = sub.add_parser(
        "figure", help="Im B(nu,0,z) on real z > 1 against the constant -pi"
    )
    p_figure.set_defaults(run=_cmd_figure)
    p_figure.add_argument("--nu", required=True, type=_rational)
    p_figure.add_argument("--z-start", type=float, default=1.1)
    p_figure.add_argument("--z-end", type=float, default=10.0)
    p_figure.add_argument("--points", type=int, default=50)
    p_figure.add_argument("--out", help="write CSV here instead of stdout")

    p_integral = sub.add_parser("integral", help="evaluate one of the integral families")
    int_sub = p_integral.add_subparsers(dest="family", required=True)
    p_powlin = int_sub.add_parser("powlin", help="integral of t^(nu-1)/(1-z*t) over [0,1]")
    p_powlin.set_defaults(run=_power_over_linear)
    p_powlin.add_argument("--nu", required=True, type=_rational)
    p_powlin.add_argument("--z", required=True, type=_complex_point)
    p_tanh = int_sub.add_parser("tanh", help="integral of tanh^(2*lambda-1) over [0,z]")
    p_tanh.set_defaults(run=_integral_tanh)
    p_tanh.add_argument("--lambda", dest="lam", required=True, type=_rational)
    p_tanh.add_argument("--z", required=True, type=float)

    p_bench = sub.add_parser("bench", help="time reduction vs oracles, CSV output")
    p_bench.set_defaults(run=_cmd_bench)
    p_bench.add_argument("--preset", choices=sorted(PRESETS), default="near-one")
    p_bench.add_argument("--reps", type=int, default=100)
    p_bench.add_argument("--warmup", type=int, default=5)
    p_bench.add_argument("--out", help="write CSV here instead of stdout")

    return parser


# Each leaf subcommand's ``run``; library names resolve at call time, as a tracer needs.
def _print_value(v: complex) -> int:
    sign = "+" if v.imag >= 0 else "-"
    print(repr(v.real) if v.imag == 0.0 else f"{v.real!r}{sign}{abs(v.imag)!r}i")
    return 0


def _eval_beta(args) -> int:
    return _print_value(incomplete_beta(args.nu, 0, args.z))


def _eval_beta_mu(args) -> int:
    if args.mu < 1:
        raise BetaReduceError(f"--mu must be >= 1, got {args.mu}")
    return _print_value(incomplete_beta(args.nu, args.mu, args.z))


def _power_over_linear(args) -> int:
    # eval lerch and integral powlin: Phi(z, 1, nu) is this integral
    return _print_value(int_power_over_linear(args.nu, args.z))


def _integral_tanh(args) -> int:
    return _print_value(int_tanh_power(args.lam, args.z))


def _cmd_verify(args) -> int:
    from .verify import default_nu_grid, default_z_grid, run_verification, write_verify_csv
    if args.n_max < 0 or args.q_max < 2:
        _PARSER.error("need --n-max >= 0 and --q-max >= 2")
    if not 0 <= args.tol < math.inf:
        _PARSER.error("--tol must be finite and >= 0")
    nus = default_nu_grid(args.n_max, args.q_max, args.side)
    zs = args.z_point if args.z_point else default_z_grid()
    records, passed, failed, skipped = run_verification(nus, zs, args.tol)
    with _out_stream(args.out) as stream:
        write_verify_csv(records, stream)
    print(f"passed={passed} failed={failed} skipped={skipped}", file=sys.stderr)
    return 0 if failed == 0 else 1


def _cmd_figure(args) -> int:
    if not (1.0 < args.z_start < args.z_end < math.inf):
        _PARSER.error("need finite 1 < --z-start < --z-end")
    if not 2 <= args.points <= MAX_TAIL_TERMS:
        _PARSER.error(f"--points must be in [2, {MAX_TAIL_TERMS}]")
    step = (args.z_end - args.z_start) / (args.points - 1)
    zs = [args.z_start + j * step for j in range(args.points)]
    # every row is evaluated before any output, so a refused row writes nothing
    values = reduce_beta_many(decompose_pos(args.nu), zs)
    neg_pi, pi = -math.pi, repr(-math.pi)
    with _out_stream(args.out) as stream:
        # row by row: no field holds a comma or a quote, so none is quoted; a value
        # equal to -pi reuses the text of -pi
        stream.write("z,im_reduction,im_series_analytic\n")
        stream.writelines(
            f"{z!r},{pi if value.imag == neg_pi else repr(value.imag)},{pi}\n"
            for z, value in zip(zs, values)
        )
    return 0


def _cmd_bench(args) -> int:
    if not 1 <= args.reps <= MAX_TAIL_TERMS:
        _PARSER.error(f"--reps must be in [1, {MAX_TAIL_TERMS}]")
    if args.warmup < 0:
        _PARSER.error("--warmup must be >= 0")
    records = run_bench(PRESETS[args.preset], args.reps, args.warmup)
    with _out_stream(args.out) as stream:
        write_bench_csv(records, stream)
    return 0


# built once per process; parsing leaves no state on it
_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.run(args)
    except BetaReduceError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

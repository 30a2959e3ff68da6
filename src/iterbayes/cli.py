"""Command-line front end.

Subcommands: ``estimate`` (point estimates from an observation), ``table``
(the reference tables of estimates for the binomial and geometric models),
``verify`` (the exact identity suite) and ``compare`` (quadratic-risk tables).
Data goes to stdout, diagnostics to stderr; exit codes are 0 for success,
1 for a verification failure, 2 for a usage error.  Output is deterministic:
the only randomized path (Monte Carlo risk) demands an explicit --seed.
Each command imports only the modules it runs (the verifier, the risk
harness, the conjugate families, json and csv), so a process pays for no
other command's imports.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Optional, Sequence

from . import triangle
from .types import METHOD_CLOSED_FORM, BinomialObs, Characteristic, Estimate, EstimationError

FORMATS = ("plain", "csv", "json")

# Largest trial count that one command solves: --n, or the x + 1 and x + R
# trials that --geometric and --neg-binomial imply, or a table's sum over its
# solves.  A solve costs about the square of n (0.5-0.85 s for one estimate
# command at n = 10000, x = n/3 or 2n/3, and the default --tol on a 2-vCPU
# Linux host, interpreter start included) and grows as --tol shrinks, so
# trials times log2(1/tol) is bounded too, by its value at MAX_TRIALS and
# tol 1e-30 (1.0-1.8 s there).
MAX_TRIALS = 10_000
MAX_TRIAL_BITS = MAX_TRIALS * -math.log2(1e-30)

# compare sums --grid x (--n + 1) risk terms for each of its four columns
# before it prints; the default --grid at --n 1029 is the most it admits.
# --mc draws --grid x SAMPLES x --n variates for each column, and each sample
# also costs about seven draws of fixed work, so SAMPLES x (--n + 7) is counted.
MAX_RISK_TERMS = 101 * 1030
MAX_MC_DRAWS = 10**7
MC_SAMPLE_DRAWS = 7

# Largest --n-max-symbolic, --n-max-pointwise and --gould-max that verify
# runs.  At the ceilings, as commands on an unloaded 2-vCPU Linux host,
# factorization takes 1.2-1.3 s, the pointwise checks 1.4-1.5 s, gould-1.41
# 1.5-1.8 s and all three 4 s.  Factorization grows about as n^4, the
# pointwise checks as n^3 and gould-1.41 as its bound cubed.
MAX_N_SYMBOLIC = 100
MAX_N_POINTWISE = 150
MAX_GOULD = 150


def _fmt(value: float, digits: int) -> str:
    return f"{value:.{digits}f}"


def _emit(fmt: str, digits: Optional[int], header: Sequence[str], rows) -> None:
    """Print rows as a JSON list of objects keyed by header, each float
    rounded to digits, or as CSV with each float fixed to digits (None: no float)."""
    if fmt == "json":
        import json
        print(json.dumps([{key: round(v, digits) if isinstance(v, float) else v
                           for key, v in zip(header, row)} for row in rows]))
    else:
        import csv
        writer = csv.writer(sys.stdout)
        writer.writerow(header)
        writer.writerows([_fmt(v, digits) if isinstance(v, float) else v for v in row]
                         for row in rows)


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


# ---------------------------------------------------------------- estimate


def _check_trials(n: int, tol: float) -> None:
    """ValueError if one command would solve for more than MAX_TRIALS trials,
    or for trials times log2(1/tol) above MAX_TRIAL_BITS; that is computed as
    -log2(tol), since 1/5e-324 overflows to inf."""
    if n > MAX_TRIALS:
        raise ValueError(f"{n} trials is above the ceiling of {MAX_TRIALS} "
                         "that one estimate or table command solves")
    if n * -math.log2(tol) > MAX_TRIAL_BITS:
        raise ValueError(f"{n} trials at --tol {tol} is above the ceiling of {MAX_TRIAL_BITS:.0f} "
                         "for trials x log2(1/tol) that one estimate or table command solves")


def cmd_estimate(args) -> int:
    digits = args.digits
    try:
        if args.geometric:
            if args.n is not None:
                return _fail("--geometric takes only --x (the trial count is implied)")
            if args.x is None:
                return _fail("--geometric requires --x")
            _check_trials(args.x + 1, args.tol)
            est = triangle.geometric_estimate(args.x, tol=args.tol)
        elif args.neg_binomial is not None:
            if args.n is not None:
                return _fail("--neg-binomial takes only --x (n = x + r is implied)")
            if args.x is None:
                return _fail("--neg-binomial requires --x")
            _check_trials(args.x + args.neg_binomial, args.tol)
            est = triangle.negative_binomial_estimate(args.neg_binomial, args.x, tol=args.tol)
        elif args.characteristic is not None:
            if args.n is None or args.x is None:
                return _fail("--characteristic requires --n and --x")
            from .conjugate import characteristic_limit
            a, b = args.characteristic
            obs = BinomialObs(args.n, args.x)
            value = characteristic_limit(Characteristic(a, b), obs)
            est = Estimate(value=float(value), method=METHOD_CLOSED_FORM)
        else:
            if args.n is None or args.x is None:
                return _fail("estimate requires --n and --x")
            _check_trials(args.n, args.tol)
            est = triangle.solve_iterative_bayes(BinomialObs(args.n, args.x), tol=args.tol)
    except (ValueError, EstimationError) as exc:
        return _fail(str(exc))

    if args.format == "json":
        import json
        print(json.dumps({"value": round(est.value, digits), "method": est.method,
                          "iterations": est.iterations, "residual": est.residual,
                          "bracket": None if est.bracket is None
                          else [round(float(end), digits) for end in est.bracket]}))
    elif args.format == "csv":
        lo, hi = ("", "") if est.bracket is None else map(float, est.bracket)
        _emit("csv", digits,
              ["value", "method", "iterations", "residual", "bracket_lo", "bracket_hi"],
              [[est.value, est.method, est.iterations, f"{est.residual:.3e}", lo, hi]])
    else:
        print(f"value      {_fmt(est.value, digits)}")
        print(f"method     {est.method}")
        print(f"iterations {est.iterations}")
        print(f"residual   {est.residual:.3e}")
        if est.bracket is not None:
            print(f"bracket    ({_fmt(float(est.bracket[0]), digits)}, "
                  f"{_fmt(float(est.bracket[1]), digits)})")
    return 0


# ------------------------------------------------------------------- table


def cmd_table(args) -> int:
    digits = args.digits
    table2, n_max, x_max = args.which == "table2", args.n_max, args.x_max
    if table2 and n_max < 1:
        return _fail("--n-max must be >= 1")
    if not table2 and x_max < 0:
        return _fail("--x-max must be >= 0")
    try:  # n trials for each x at every n <= n_max, or x + 1 for each x <= x_max
        _check_trials(n_max * (n_max + 1) * (n_max + 2) // 3 if table2
                      else (x_max + 1) * (x_max + 2) // 2, args.tol)
    except ValueError as exc:
        return _fail(str(exc))
    if table2:
        header = ["n", "x", "estimate"]
        rows = [(n, x, value) for n in range(1, n_max + 1) for x, value in
                enumerate(triangle.mirrored_values(n, args.tol))]
    else:
        header = ["x", "estimate"]
        rows = [(x, triangle.geometric_estimate(x, tol=args.tol).value) for x in range(x_max + 1)]
    if args.format != "plain":
        _emit(args.format, digits, header, rows)
    elif table2:
        for n in range(1, n_max + 1):
            values = " ".join(_fmt(v, digits) for nn, _, v in rows if nn == n)
            print(f"n={n:<2} {values}")
    else:
        print(" ".join(_fmt(v, digits) for _, v in rows))
    return 0


# ------------------------------------------------------------------ verify


def cmd_verify(args) -> int:
    for flag, ceiling in (("n_max_symbolic", MAX_N_SYMBOLIC),
                          ("n_max_pointwise", MAX_N_POINTWISE), ("gould_max", MAX_GOULD)):
        if not 1 <= getattr(args, flag) <= ceiling:
            return _fail(f"--{flag.replace('_', '-')} must be between 1 and {ceiling}")
    from . import identities
    perturb = (1, 1, 3, 1) if args.self_test else None
    if args.self_test:
        print("self-test: perturbing one estimating-polynomial coefficient "
              "(n=1, x=1, a^3 term); the suite must catch it", file=sys.stderr)
    reports = identities.run_all(
        n_max_symbolic=args.n_max_symbolic,
        n_max_pointwise=args.n_max_pointwise,
        gould_max=args.gould_max,
        perturb=perturb,
    )
    if args.format != "plain":
        _emit(args.format, None, ["identity", "params", "cases", "passed", "counterexample"],
              [(r.name, r.params, r.cases, r.passed, r.counterexample) for r in reports])
    else:
        for r in reports:
            if r.passed:
                print(f"PASS {r.name} ({r.params}, {r.cases} cases)")
            else:
                print(f"FAIL {r.name} ({r.params}): {r.counterexample}")
    return 0 if all(r.passed for r in reports) else 1


# ----------------------------------------------------------------- compare


def cmd_compare(args) -> int:
    digits = args.digits
    if args.n < 1:
        return _fail("--n must be >= 1")
    if args.n > 1029:
        return _fail(f"--n {args.n} is above 1029, where C(n, n/2) exceeds the largest float")
    if args.grid < 2:
        return _fail("--grid must be >= 2")
    if args.grid * (args.n + 1) > MAX_RISK_TERMS:
        return _fail(f"--grid {args.grid} at --n {args.n} is {args.grid * (args.n + 1)} risk terms "
                     f"per column, above the ceiling of {MAX_RISK_TERMS}")
    if args.mc is not None and args.seed is None:
        return _fail("--mc requires an explicit --seed (deterministic output)")
    if args.mc is not None and args.mc < 2:
        return _fail("--mc needs at least 2 samples")
    if args.mc is not None and args.grid * args.mc * (args.n + MC_SAMPLE_DRAWS) > MAX_MC_DRAWS:
        return _fail(f"--mc {args.mc} at --grid {args.grid} and --n {args.n} is "
                     f"{args.grid * args.mc * (args.n + MC_SAMPLE_DRAWS)} draws per column, "
                     f"above the ceiling of {MAX_MC_DRAWS}")
    from . import risk
    table = risk.compare(args.n, args.grid)
    tags = list(table.columns)
    header = ["p"] + tags
    rows = [[p, *vals] for p, *vals in table.rows()]

    if args.mc is not None:
        specs = {spec.tag: spec for spec in risk.standard_estimators()}
        header += [f"{tag}_mc" for tag in tags]
        for row in rows:
            p = row[0]
            for k, tag in enumerate(tags):
                mean, _ = risk.monte_carlo_mse(specs[tag], args.n, p, args.mc,
                                               seed=args.seed + k)
                row.append(mean)

    if args.format != "plain":
        _emit(args.format, digits, header, rows)
    else:
        widths = [max(len(h), digits + 2) for h in header]
        print("  ".join(f"{h:>{w}}" for h, w in zip(header, widths)))
        for row in rows:
            print("  ".join(f"{_fmt(v, digits):>{w}}" for v, w in zip(row, widths)))
    return 0


# -------------------------------------------------------------------- main


def _add_common(parser: argparse.ArgumentParser, digits: bool = True) -> None:
    parser.add_argument("--format", choices=FORMATS, default="plain",
                        help="output format (default: plain)")
    if digits:
        parser.add_argument("--digits", type=int, default=6, metavar="D",
                            help="decimal digits in output, 1..15 (default: 6)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iterbayes",
        description="Iterative Bayes estimates of a success probability "
                    "from a single small sample, with exact verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser(
        "estimate", help="estimate from one observation",
        epilog=f"estimate solves for at most {MAX_TRIALS} trials (--n, or x + 1 with "
               f"--geometric, x + R with --neg-binomial) and at most {MAX_TRIAL_BITS:.0f} "
               f"trials x log2(1/tol), its value at {MAX_TRIALS} trials and --tol 1e-30; "
               f"more exits with code 2.  Time grows about as the square of the trial "
               f"count, and as --tol shrinks: under 1 s at {MAX_TRIALS} trials, default --tol.")
    p_est.add_argument("--n", type=int, help=f"number of trials (at most {MAX_TRIALS})")
    p_est.add_argument("--x", type=int, help="number of successes")
    mode = p_est.add_mutually_exclusive_group()
    mode.add_argument("--geometric", action="store_true",
                      help="geometric model: x successes before the first failure")
    mode.add_argument("--neg-binomial", type=int, metavar="R",
                      help="negative-binomial model: x successes before the R-th failure")
    mode.add_argument("--characteristic", type=float, nargs=2, metavar=("A", "B"),
                      help="closed-form characteristic-replacement limit (x+A)/(n+B)")
    p_est.add_argument("--tol", type=float, default=1e-12,
                       help="bracket-width tolerance (default: 1e-12)")
    _add_common(p_est)
    p_est.set_defaults(func=cmd_estimate)

    p_tab = sub.add_parser(
        "table", help="reference tables of estimates",
        epilog=f"table solves at most {MAX_TRIALS} trials in all and {MAX_TRIAL_BITS:.0f} trials "
               f"x log2(1/tol), as estimate does; more exits with code 2.  table2 --n-max N "
               f"solves N(N+1)(N+2)/3 trials, so N <= 30; table3 --x-max X (X+1)(X+2)/2, so X <= 139.")
    p_tab.add_argument("which", choices=("table2", "table3"),
                       help="table2: binomial grid; table3: geometric row")
    p_tab.add_argument("--n-max", type=int, default=10, help="largest n (table2, default: 10)")
    p_tab.add_argument("--x-max", type=int, default=9, help="largest x (table3, default: 9)")
    p_tab.add_argument("--tol", type=float, default=1e-12,
                       help="solver tolerance (default: 1e-12)")
    _add_common(p_tab)
    p_tab.set_defaults(func=cmd_table)

    p_ver = sub.add_parser(
        "verify", help="run the exact identity suite",
        epilog=f"verify admits --n-max-symbolic up to {MAX_N_SYMBOLIC}, --n-max-pointwise "
               f"up to {MAX_N_POINTWISE} and --gould-max up to {MAX_GOULD}; more exits with "
               f"code 2.  At its ceiling each flag's checks take at most about 2 s, and "
               f"all three at their ceilings about 4 s: the factorization check grows about "
               f"as n^4, the pointwise checks as n^3 and gould-1.41 as its bound cubed.")
    p_ver.add_argument("--n-max-symbolic", type=int, default=12,
                       help="largest n for coefficient-exact checks "
                            f"(default: 12, at most {MAX_N_SYMBOLIC})")
    p_ver.add_argument("--n-max-pointwise", type=int, default=40,
                       help="largest n for pointwise exact checks "
                            f"(default: 40, at most {MAX_N_POINTWISE})")
    p_ver.add_argument("--gould-max", type=int, default=30,
                       help="range bound for the combinatorial identities "
                            f"(default: 30, at most {MAX_GOULD})")
    p_ver.add_argument("--self-test", action="store_true",
                       help="inject a known coefficient error and require the suite to fail")
    _add_common(p_ver, digits=False)
    p_ver.set_defaults(func=cmd_verify)

    p_cmp = sub.add_parser(
        "compare", help="exact mean-squared-error comparison",
        epilog=f"compare sums at most {MAX_RISK_TERMS} risk terms per column, --grid x (--n + 1), "
               f"the default --grid at --n 1029, and --mc draws at most {MAX_MC_DRAWS} variates "
               f"per column, --grid x SAMPLES x (--n + {MC_SAMPLE_DRAWS}), counting each "
               f"sample's fixed work as {MC_SAMPLE_DRAWS} draws; more exits with code 2.")
    p_cmp.add_argument("--n", type=int, required=True,
                       help="number of trials (at most 1029: above it C(n, n/2) exceeds the largest float)")
    p_cmp.add_argument("--grid", type=int, default=101,
                       help="evenly spaced p values including endpoints (default: 101)")
    p_cmp.add_argument("--mc", type=int, metavar="SAMPLES",
                       help="also report seeded Monte Carlo MSE columns")
    p_cmp.add_argument("--seed", type=int, help="seed for --mc (required with it)")
    _add_common(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if not 1 <= getattr(args, "digits", 6) <= 15:
        return _fail("--digits must be between 1 and 15")
    if not 0 < getattr(args, "tol", 1.0) < math.inf:
        return _fail("--tol must be positive and finite")
    return args.func(args)


def entrypoint() -> None:  # console-script shim
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()

"""Command-line front end.

Subcommands: ``estimate`` (point estimates from an observation), ``table``
(the reference tables of estimates for the binomial and geometric models),
``verify`` (the exact identity suite) and ``compare`` (quadratic-risk tables).
Data goes to stdout, diagnostics to stderr; exit codes are 0 for success,
1 for a verification failure, 2 for a usage error.  Output is deterministic:
the only randomized path (Monte Carlo risk) demands an explicit --seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from typing import List, Optional, Sequence

from . import identities, risk, triangle
from .types import METHOD_CLOSED_FORM, BinomialObs, Characteristic, Estimate, EstimationError
from .conjugate import characteristic_limit

FORMATS = ("plain", "csv", "json")


def _fmt(value: float, digits: int) -> str:
    return f"{value:.{digits}f}"


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


# ---------------------------------------------------------------- estimate


def _estimate_payload(est: Estimate, digits: int) -> dict:
    payload = {
        "value": round(est.value, digits),
        "method": est.method,
        "iterations": est.iterations,
        "residual": est.residual,
        "bracket": None,
    }
    if est.bracket is not None:
        payload["bracket"] = [round(float(est.bracket[0]), digits),
                              round(float(est.bracket[1]), digits)]
    return payload


def cmd_estimate(args) -> int:
    digits = args.digits
    try:
        if args.geometric:
            if args.n is not None:
                return _fail("--geometric takes only --x (the trial count is implied)")
            if args.x is None:
                return _fail("--geometric requires --x")
            est = triangle.geometric_estimate(args.x, tol=args.tol)
        elif args.neg_binomial is not None:
            if args.n is not None:
                return _fail("--neg-binomial takes only --x (n = x + r is implied)")
            if args.x is None:
                return _fail("--neg-binomial requires --x")
            est = triangle.negative_binomial_estimate(args.neg_binomial, args.x, tol=args.tol)
        elif args.characteristic is not None:
            if args.n is None or args.x is None:
                return _fail("--characteristic requires --n and --x")
            a, b = args.characteristic
            obs = BinomialObs(args.n, args.x)
            value = characteristic_limit(Characteristic(a, b), obs)
            est = Estimate(value=float(value), method=METHOD_CLOSED_FORM)
        else:
            if args.n is None or args.x is None:
                return _fail("estimate requires --n and --x")
            est = triangle.solve_iterative_bayes(BinomialObs(args.n, args.x), tol=args.tol)
    except (ValueError, EstimationError) as exc:
        return _fail(str(exc))

    if args.format == "json":
        print(json.dumps(_estimate_payload(est, digits)))
    elif args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["value", "method", "iterations", "residual", "bracket_lo", "bracket_hi"])
        lo, hi = ("", "") if est.bracket is None else (
            _fmt(float(est.bracket[0]), digits), _fmt(float(est.bracket[1]), digits))
        writer.writerow([_fmt(est.value, digits), est.method, est.iterations,
                         f"{est.residual:.3e}", lo, hi])
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


def _binomial_table(n_max: int, tol: float) -> List[tuple]:
    rows = []
    for n in range(1, n_max + 1):
        for x in range(n + 1):
            rows.append((n, x, triangle.solve_iterative_bayes(BinomialObs(n, x), tol=tol).value))
    return rows


def cmd_table(args) -> int:
    digits = args.digits
    if args.which == "table2":
        if args.n_max < 1:
            return _fail("--n-max must be >= 1")
        rows = _binomial_table(args.n_max, args.tol)
        if args.format == "json":
            print(json.dumps([{"n": n, "x": x, "estimate": round(v, digits)}
                              for n, x, v in rows]))
        elif args.format == "csv":
            writer = csv.writer(sys.stdout)
            writer.writerow(["n", "x", "estimate"])
            for n, x, v in rows:
                writer.writerow([n, x, _fmt(v, digits)])
        else:
            for n in range(1, args.n_max + 1):
                values = " ".join(_fmt(v, digits) for nn, _, v in rows if nn == n)
                print(f"n={n:<2} {values}")
    else:
        if args.x_max < 0:
            return _fail("--x-max must be >= 0")
        values = [(x, triangle.geometric_estimate(x, tol=args.tol).value)
                  for x in range(args.x_max + 1)]
        if args.format == "json":
            print(json.dumps([{"x": x, "estimate": round(v, digits)} for x, v in values]))
        elif args.format == "csv":
            writer = csv.writer(sys.stdout)
            writer.writerow(["x", "estimate"])
            for x, v in values:
                writer.writerow([x, _fmt(v, digits)])
        else:
            print(" ".join(_fmt(v, digits) for _, v in values))
    return 0


# ------------------------------------------------------------------ verify


def cmd_verify(args) -> int:
    for flag in ("n_max_symbolic", "n_max_pointwise", "gould_max"):
        if getattr(args, flag) < 1:
            return _fail(f"--{flag.replace('_', '-')} must be >= 1")
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
    if args.format == "json":
        print(json.dumps([{
            "identity": r.name,
            "params": r.params,
            "cases": r.cases,
            "passed": r.passed,
            "counterexample": r.counterexample,
        } for r in reports]))
    elif args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["identity", "params", "cases", "passed", "counterexample"])
        for r in reports:
            writer.writerow([r.name, r.params, r.cases, r.passed, r.counterexample or ""])
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
    if args.grid < 2:
        return _fail("--grid must be >= 2")
    if args.mc is not None and args.seed is None:
        return _fail("--mc requires an explicit --seed (deterministic output)")
    if args.mc is not None and args.mc < 2:
        return _fail("--mc needs at least 2 samples")
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

    if args.format == "json":
        print(json.dumps([
            {key: round(val, digits) for key, val in zip(header, row)}
            for row in rows
        ]))
    elif args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v, digits) for v in row])
    else:
        widths = [max(len(h), digits + 2) for h in header]
        print("  ".join(f"{h:>{w}}" for h, w in zip(header, widths)))
        for row in rows:
            print("  ".join(f"{_fmt(v, digits):>{w}}" for v, w in zip(row, widths)))
    return 0


# -------------------------------------------------------------------- main


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=FORMATS, default="plain",
                        help="output format (default: plain)")
    parser.add_argument("--digits", type=int, default=6, metavar="D",
                        help="decimal digits in output, 1..15 (default: 6)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iterbayes",
        description="Iterative Bayes estimates of a success probability "
                    "from a single small sample, with exact verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser("estimate", help="estimate from one observation")
    p_est.add_argument("--n", type=int, help="number of trials")
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

    p_tab = sub.add_parser("table", help="reference tables of estimates")
    p_tab.add_argument("which", choices=("table2", "table3"),
                       help="table2: binomial grid; table3: geometric row")
    p_tab.add_argument("--n-max", type=int, default=10, help="largest n (table2, default: 10)")
    p_tab.add_argument("--x-max", type=int, default=9, help="largest x (table3, default: 9)")
    p_tab.add_argument("--tol", type=float, default=1e-12,
                       help="solver tolerance (default: 1e-12)")
    _add_common(p_tab)
    p_tab.set_defaults(func=cmd_table)

    p_ver = sub.add_parser("verify", help="run the exact identity suite")
    p_ver.add_argument("--n-max-symbolic", type=int, default=12,
                       help="largest n for coefficient-exact checks (default: 12)")
    p_ver.add_argument("--n-max-pointwise", type=int, default=40,
                       help="largest n for pointwise exact checks (default: 40)")
    p_ver.add_argument("--gould-max", type=int, default=30,
                       help="range bound for the combinatorial identities (default: 30)")
    p_ver.add_argument("--self-test", action="store_true",
                       help="inject a known coefficient error and require the suite to fail")
    _add_common(p_ver)
    p_ver.set_defaults(func=cmd_verify)

    p_cmp = sub.add_parser("compare", help="exact mean-squared-error comparison")
    p_cmp.add_argument("--n", type=int, required=True, help="number of trials")
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
    if not 1 <= args.digits <= 15:
        return _fail("--digits must be between 1 and 15")
    if not 0 < getattr(args, "tol", 1.0) < math.inf:
        return _fail("--tol must be positive and finite")
    return args.func(args)


def entrypoint() -> None:  # console-script shim
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()

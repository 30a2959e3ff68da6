"""The four benchmark workloads: seeded inputs, the timed operations and the
output checks.

Inputs depend only on the workload seed.  An operation is one call into the
library (or, for ``cli-session``, one ``python -m iterbayes`` process); its
latency is what ``op_p50_ms`` and ``op_p90_ms`` summarise.  Checks run after
the timed region and return the indices of the operations that failed, so a
wrong answer counts exactly like an exception.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

WORKLOADS = ("table-sweep", "large-n", "audit", "cli-session")

# table-sweep: the paper's Table 2 use, every (n, x) with n <= 60.
TABLE_N_MAX = 60
TABLE_TOL = 1e-12

# large-n: n over [200, 800], x over [0, n], half the solves at each
# tolerance.  Solve cost grows like n^3.7 and falls several-fold as x moves
# from 0 towards n/2, so with 24 solves a pass, uniform random draws made the
# latency percentiles differ by 30-35% between seeds.  The draw is therefore
# a jittered grid: per tolerance, [200, 800] is cut into equal strata and
# each gets one n near its centre; the i-th n is solved at the i-th of as
# many equal distances |x/n - 1/2| in [0, 1/2], near its centre, and at the
# mirror n - x.  The seed moves every n and x within a fiftieth of its
# stratum: the 90th percentile rests on the two or three largest solves, and
# with a tenth it moved by ~16% between seeds.
LARGE_N_RANGE = (200, 800)
LARGE_N_STRATA = 6
LARGE_N_JITTER = 0.02
LARGE_N_TOLS = (1e-12, 1e-30)
# The certificate check rebuilds the posterior-mean pieces from scratch, which
# takes seconds above n = 400; one solve at or below it is certified per pass.
CERTIFICATE_N_MAX = 400

# audit: run_all() at the CLI defaults plus seeded cross-checks: fixed
# points for every n <= 40 and conjugate limits for each family.  A fixed
# point costs several times less at x = n/2 (one iteration) than near the
# ends, so with one seeded x per n the latency percentiles moved by ~11%
# between seeds.  Each n instead gets one x in each of four equal strata of
# [0, n], seeded within its stratum (every x for n < 4); that moves them by
# about 3% (cost table of all n <= 40).
AUDIT_FIXED_POINT_N_MAX = 40
AUDIT_X_STRATA = 4
AUDIT_CONJUGATE_PER_FAMILY = 2
AUDIT_CASES = {
    "gould-1.41": 930,
    "gould-1.83": 31,
    "estimating-polynomial-factorization": 90,
    "core-positivity": 7740,
    "endpoint-signs": 2580,
}
CROSS_CHECK_TOL = 1e-8

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# cli-session: (name, argv, expected exit code).  Stdout of each must match
# bench/golden/<name>.out byte for byte.  The script runs these eleven once
# and the slowest, table2, a second time: with twelve operations the 90th
# percentile of the pooled latencies falls inside table2's samples, not on
# the edge between the two slowest commands, and the median falls between
# two of the cluster of estimate commands, whose latencies nearly coincide.
CLI_COMMANDS: Tuple[Tuple[str, Tuple[str, ...], int], ...] = (
    ("estimate-golden", ("estimate", "--n", "1", "--x", "1"), 0),
    ("estimate-json", ("estimate", "--n", "40", "--x", "13", "--format", "json"), 0),
    ("estimate-geometric-csv", ("estimate", "--geometric", "--x", "3", "--format", "csv"), 0),
    ("estimate-neg-binomial", ("estimate", "--neg-binomial", "2", "--x", "5", "--digits", "10"), 0),
    ("estimate-characteristic", ("estimate", "--characteristic", "1", "2", "--n", "1", "--x", "1"), 0),
    ("table2", ("table", "table2", "--n-max", "20"), 0),
    ("table3", ("table", "table3"), 0),
    ("compare", ("compare", "--n", "20"), 0),
    ("compare-mc", ("compare", "--n", "5", "--grid", "11", "--mc", "400", "--seed", "11"), 0),
    ("verify-small", ("verify", "--n-max-symbolic", "6", "--n-max-pointwise", "12",
                      "--gould-max", "10"), 0),
    ("usage-error", ("estimate", "--n", "3"), 2),
)


def make_inputs(workload: str, seed: int) -> list:
    """The operations of one pass, as plain tuples; same seed, same list."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "table-sweep":
        ops = [("solve", n, x, TABLE_TOL)
               for n in range(1, TABLE_N_MAX + 1) for x in range(n + 1)]
    elif workload == "large-n":
        lo, hi = LARGE_N_RANGE
        strata = LARGE_N_STRATA

        def near_centre(i: int) -> float:
            return i + 0.5 + LARGE_N_JITTER * (2 * rng.random() - 1)

        ops = []
        for tol in LARGE_N_TOLS:
            for i in range(strata):
                n = min(lo + math.floor(near_centre(i) * (hi - lo + 1) / strata), hi)
                x = math.floor((0.5 - near_centre(i) / (2 * strata)) * (n + 1))
                ops += [("solve", n, x, tol), ("solve", n, n - x, tol)]
    elif workload == "audit":
        k = AUDIT_X_STRATA
        ops = [("fixed_point", n, lo + rng.randrange(hi - lo))
               for n in range(1, AUDIT_FIXED_POINT_N_MAX + 1)
               for lo, hi in ((j * (n + 1) // k, (j + 1) * (n + 1) // k) for j in range(k))
               if hi > lo]
        ops += [("conjugate", family, _conjugate_case(rng, family))
                for family in ("poisson", "exponential", "normal-mean", "normal-precision")
                for _ in range(AUDIT_CONJUGATE_PER_FAMILY)]
        ops.append(("run_all",))
    elif workload == "cli-session":
        ops = [("cli", name) for name, _, _ in CLI_COMMANDS] + [("cli", "table2")]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops


# ``python -m iterbayes ARGS`` is run as ``python -s -c CLI_BOOT ARGS``: the
# same module run as __main__, plus an exit hook that appends the process's
# own peak resident set (VmHWM, kB) to stderr after PEAK_RSS_MARKER.  The
# ru_maxrss that wait4 returns cannot be used, because on Linux it starts
# from the parent's resident set at spawn time.
PEAK_RSS_MARKER = b"#bench-vmhwm-kb"
CLI_BOOT = f"""
import atexit, os, runpy
def report_peak_rss():
    with open("/proc/self/status") as status:
        peak = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    os.write(2, b"\\n{PEAK_RSS_MARKER.decode()} " + peak.encode() + b"\\n")
atexit.register(report_peak_rss)
runpy.run_module("iterbayes", run_name="__main__", alter_sys=True)
"""


def child_peak_rss_mb(stderr: bytes) -> float:
    """Peak resident set a CLI child reported at exit, in MB; 0 if none."""
    peak = stderr.rpartition(b"\n" + PEAK_RSS_MARKER + b" ")[2]
    return int(peak) / 1024 if peak.strip().isdigit() else 0.0


def peak_rss_mb() -> float:
    """Peak resident set of this process's own memory map, in MB."""
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:")) / 1024


def _conjugate_case(rng: random.Random, family: str) -> Tuple[dict, dict]:
    """Model and sample-statistics keyword arguments for one family."""
    n = rng.randint(1, 25)
    if family == "poisson":
        return (dict(alpha=rng.uniform(0.2, 6), beta=rng.uniform(0.2, 6)),
                dict(n=n, sum_x=rng.randint(0, 60)))
    if family == "exponential":
        return (dict(alpha=rng.uniform(0.2, 6), beta=rng.uniform(1.1, 7)),
                dict(n=n, sum_x=rng.uniform(0.3, 50)))
    if family == "normal-mean":
        return (dict(alpha=rng.uniform(-4, 4), beta=rng.uniform(0.2, 3),
                     sigma0_sq=rng.uniform(0.4, 5)),
                dict(n=n, sum_x=rng.uniform(-40, 40)))
    return (dict(alpha=rng.uniform(0.2, 6), beta=rng.uniform(0.2, 6), mu0=rng.uniform(-3, 3)),
            dict(n=n, sum_sq_dev=rng.uniform(0.4, 40)))


class Library:
    """The package's modules, always called through their module attributes
    so that the tracer's wrappers are the functions actually reached."""

    def __init__(self):
        import iterbayes
        from iterbayes import cli, conjugate, exact, identities, risk, triangle, types

        self.package = iterbayes
        self.cli, self.conjugate, self.exact = cli, conjugate, exact
        self.identities, self.risk, self.triangle, self.types = identities, risk, triangle, types

    def obs(self, n: int, x: int):
        return self.types.BinomialObs(n, x)

    def conjugate_args(self, family: str, case: Tuple[dict, dict]):
        c = self.conjugate
        model_kw, stats_kw = case
        return c.ConjugateModel(c.ConjugateFamily(family), **model_kw), c.SampleStats(**stats_kw)


def run_op(lib: Library, op: tuple):
    """Execute one in-process operation and return its result."""
    kind = op[0]
    if kind == "solve":
        _, n, x, tol = op
        return lib.triangle.solve_iterative_bayes(lib.obs(n, x), tol=tol)
    if kind == "fixed_point":
        return lib.triangle.fixed_point_iterate(lib.obs(op[1], op[2]))
    if kind == "conjugate":
        model, stats = lib.conjugate_args(op[1], op[2])
        return lib.conjugate.conjugate_iterative_limit(model, stats, tol=1e-13)
    if kind == "run_all":
        return lib.identities.run_all()
    raise ValueError(f"not an in-process operation: {op!r}")


# ------------------------------------------------------------------ checks


def _solve_ok(lib: Library, op: tuple, est) -> str:
    """Empty string if the estimate's bracket is strict and narrow enough.

    A reported point that is an exact root (zero residual, as at n = 2x,
    where the first midpoint is 1/2) comes with the last strict-sign
    interval as its bracket, which may be the whole starting bracket; it is
    checked by an exact zero of the estimating polynomial instead."""
    _, n, x, tol = op
    lo, hi = est.bracket
    if not lo < est.value_exact < hi:
        return "reported point outside its bracket"
    if est.residual == 0:
        coeffs = lib.triangle.estimating_polynomial(lib.obs(n, x)).int_coeffs
        if lib.exact.sign_at(coeffs, est.value_exact) != 0:
            return f"zero residual reported but {est.value_exact} is not a root"
        if not Fraction(x + 1, n + 3) < est.value_exact < Fraction(x + 2, n + 3):
            return f"exact root {est.value_exact} outside ((x+1)/(n+3), (x+2)/(n+3))"
        return ""
    if not Fraction(x + 1, n + 3) < lo < hi < Fraction(x + 2, n + 3):
        return f"bracket ({lo}, {hi}) not strictly inside ((x+1)/(n+3), (x+2)/(n+3))"
    if hi - lo > Fraction(tol):
        return f"bracket width {float(hi - lo):.3e} exceeds tol {tol}"
    return ""


def check_solves(lib: Library, ops: Sequence[tuple], results: Sequence,
                 certify: Sequence[int], failures: Dict[int, str]) -> None:
    """Brackets, symmetry, the Golden-Ratio case and the posterior-mean
    certificate on the operations listed in ``certify``; failures map an
    operation index to its first failure message."""
    by_obs = {}
    for i, (op, est) in enumerate(zip(ops, results)):
        if isinstance(est, Exception):
            continue
        message = _solve_ok(lib, op, est)
        if message:
            failures.setdefault(i, message)
        by_obs[(op[1], op[2], op[3])] = i
    for (n, x, tol), i in by_obs.items():
        j = by_obs.get((n, n - x, tol))
        if j is None or 2 * x <= n:
            continue
        a, b = results[i], results[j]
        exact_ok = a.bracket[0] + b.bracket[0] < 1 < a.bracket[1] + b.bracket[1]
        if not exact_ok or abs(a.value + b.value - 1) > tol + 1e-15:
            failures.setdefault(i, f"symmetry est({x}) + est({n - x}) != 1 at n={n}")
    i = by_obs.get((1, 1, TABLE_TOL))
    if i is not None:
        lo, hi = results[i].bracket
        golden = (math.sqrt(5) - 1) / 2
        if not (lo * lo + lo - 1 < 0 < hi * hi + hi - 1) or abs(results[i].value - golden) > TABLE_TOL:
            failures.setdefault(i, "n=1, x=1 is not 1/phi")
    for i in certify:
        if isinstance(results[i], Exception):
            continue
        _, n, x, _ = ops[i]
        lo, hi = results[i].bracket
        obs = lib.obs(n, x)
        if not (lib.triangle.posterior_mean_exact(lo, obs) > lo
                and lib.triangle.posterior_mean_exact(hi, obs) < hi):
            failures.setdefault(i, f"posterior-mean certificate fails at n={n}, x={x}")


def certificate_sample(workload: str, ops: Sequence[tuple], seed: int, pass_index: int) -> List[int]:
    """Seeded choice of the solves whose brackets are certified in this pass."""
    rng = random.Random(f"certify:{workload}:{seed}:{pass_index}")
    eligible = [i for i, op in enumerate(ops) if op[1] <= CERTIFICATE_N_MAX]
    return sorted(rng.sample(eligible, min(len(eligible), 8 if workload == "table-sweep" else 1)))


def check_audit(lib: Library, ops: Sequence[tuple], results: Sequence, failures: Dict[int, str]) -> None:
    """Identity reports and case counts, fixed points against bisection,
    conjugate limits against the closed-form MLE."""
    for i, (op, result) in enumerate(zip(ops, results)):
        kind = op[0]
        if isinstance(result, Exception):
            continue
        if kind == "run_all":
            message = check_reports(result)
            if message:
                failures.setdefault(i, message)
        elif kind == "fixed_point":
            root = lib.triangle.solve_iterative_bayes(lib.obs(op[1], op[2])).value
            if not abs(result.value - root) < CROSS_CHECK_TOL:
                failures.setdefault(i, f"fixed point {result.value} vs bisection {root} at n={op[1]}, x={op[2]}")
        elif kind == "conjugate":
            model, stats = lib.conjugate_args(op[1], op[2])
            mle = lib.conjugate.conjugate_mle(model, stats)
            if not abs(result.value - mle) < CROSS_CHECK_TOL:
                failures.setdefault(i, f"{op[1]} limit {result.value} vs MLE {mle}")


def check_reports(reports) -> str:
    """Empty string if all five reports pass with exactly the expected case counts."""
    got = {r.name: (r.passed, r.cases) for r in reports}
    want = {name: (True, cases) for name, cases in AUDIT_CASES.items()}
    if got != want:
        return f"identity reports {got} != expected {want}"
    return ""


def golden_stdout(name: str) -> bytes:
    return (GOLDEN_DIR / f"{name}.out").read_bytes()


def check_cli(name: str, code: int, stdout: bytes) -> str:
    """Empty string if a CLI command exited as expected with the golden stdout."""
    expected = {n: c for n, _, c in CLI_COMMANDS}[name]
    if code != expected:
        return f"{name}: exit code {code}, expected {expected}"
    if stdout != golden_stdout(name):
        return f"{name}: stdout differs from bench/golden/{name}.out"
    return ""

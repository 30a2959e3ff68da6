"""Acceptance suite: one test per release criterion, each printing a PASS/FAIL
line (visible with ``pytest -rA`` or ``-s``).  Tolerances are pinned here and
nowhere else."""

import random
import time
from decimal import Decimal, getcontext
from fractions import Fraction

from iterbayes.conjugate import (
    ConjugateFamily,
    ConjugateModel,
    SampleStats,
    conjugate_iterative_limit,
    conjugate_mle,
    iterate_binomial_characteristic,
)
from iterbayes.identities import run_all
from iterbayes.risk import (
    ITERATIVE_BAYES_TRIANGLE,
    MLE,
    compare,
    estimates_by_x,
    risk_at,
    standard_estimators,
)
from iterbayes.triangle import (
    fixed_point_iterate,
    geometric_estimate,
    solve_iterative_bayes,
)
from iterbayes.types import BinomialObs, BetaPrior, Characteristic

from helpers import closed_form_step_estimate, contraction_ratio, quadrature_posterior_mean
from reference_tables import PRINT_TOL, TABLE2, TABLE3

_solved = {}


def _solve(n, x, tol=1e-11):
    key = (n, x, tol)
    if key not in _solved:
        _solved[key] = solve_iterative_bayes(BinomialObs(n, x), tol=tol)
    return _solved[key]


def _report(ok: bool, label: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} - {label}")
    assert ok, label


def test_criterion_01_binomial_table_reproduction():
    start = time.perf_counter()
    errors = [abs(_solve(n, x).value - want) for (n, x), want in TABLE2.items()]
    elapsed = time.perf_counter() - start
    ok = len(errors) == 65 and max(errors) < PRINT_TOL and elapsed < 1.0
    _report(ok, f"criterion 1: binomial table, {len(errors)} entries, "
                f"max err {max(errors):.2e} (tol {PRINT_TOL}), {elapsed:.2f}s (< 1s)")


def test_criterion_02_golden_ratio_extended_precision():
    est = solve_iterative_bayes(BinomialObs(1, 1), tol=Fraction(1, 10**18))
    getcontext().prec = 50
    golden = (Decimal(5).sqrt() - 1) / 2
    mid = Decimal(est.value_exact.numerator) / Decimal(est.value_exact.denominator)
    err = abs(mid - golden)
    ok = err < Decimal("1e-12")
    _report(ok, f"criterion 2: golden-ratio estimate, |err| = {err:.3E} (< 1e-12)")


def test_criterion_03_geometric_table_and_reduction():
    table_errs = []
    map_errs = []
    for x, want in enumerate(TABLE3):
        geo = geometric_estimate(x, tol=1e-12)
        table_errs.append(abs(geo.value - want))
        binomial_route = _solve(x + 1, x, tol=1e-12)
        map_errs.append(abs(geo.value - binomial_route.value))
    ok = max(table_errs) < PRINT_TOL and max(map_errs) < 1e-10
    _report(ok, f"criterion 3: geometric table, max err {max(table_errs):.2e} "
                f"(tol {PRINT_TOL}); reduction to binomial, max gap {max(map_errs):.2e} (< 1e-10)")


def test_criterion_04_symmetry_up_to_n50():
    start = time.perf_counter()
    worst = 0.0
    for n in range(1, 51):
        values = [_solve(n, x).value for x in range(n + 1)]
        for x in range(n + 1):
            worst = max(worst, abs(values[x] + values[n - x] - 1.0))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 10.0
    _report(ok, f"criterion 4: symmetry n<=50, worst |sum-1| = {worst:.2e} "
                f"(< 1e-10), {elapsed:.2f}s (< 10s)")


def test_criterion_05_bounds_up_to_n50():
    ok = True
    worst_half = 0.0
    for n in range(1, 51):
        for x in range(n + 1):
            v = _solve(n, x).value_exact
            ok &= Fraction(x + 1, n + 3) < v < Fraction(x + 2, n + 3)
            if 2 * x < n:
                ok &= Fraction(x + 1, n + 2) < v < Fraction(x + 2, n + 3)
            elif 2 * x > n:
                ok &= Fraction(x + 1, n + 3) < v < Fraction(x + 1, n + 2)
            else:
                worst_half = max(worst_half, abs(float(v) - 0.5))
    ok &= worst_half < 1e-10
    _report(ok, f"criterion 5: strict and refined brackets n<=50 (exact); "
                f"worst |value-1/2| at n=2x: {worst_half:.2e} (< 1e-10)")


def test_criterion_06_characteristic_iteration_randomized():
    rng = random.Random(61803)
    checked = 0
    ok = True
    while checked < 20:
        a = Fraction(rng.randint(0, 8), rng.randint(1, 4))
        b = a + Fraction(rng.randint(0, 8), rng.randint(1, 4))
        n = rng.randint(1, 12)
        x = rng.randint(0, n)
        if a == b and x == n:
            continue  # ratio would be exactly 1
        alpha0 = a + Fraction(rng.randint(1, 40), rng.randint(1, 8))
        beta0 = (b - a) + Fraction(rng.randint(1, 40), rng.randint(1, 8))
        prior = BetaPrior(alpha0, beta0)
        char = Characteristic(a, b)
        obs = BinomialObs(n, x)
        trace = iterate_binomial_characteristic(prior, char, obs, 50)
        ratio = contraction_ratio(prior, char, obs)
        assert 0 < ratio < 1
        ok &= all(
            trace.estimates[m] == closed_form_step_estimate(prior, char, obs, m)
            for m in range(51)
        )
        steps = max(60, min(12000, int(-30 / float(ratio - 1))))
        long_trace = iterate_binomial_characteristic(prior, char, obs, steps)
        limit = Fraction(x + a, n + b)
        ok &= abs(float(long_trace.estimates[-1] - limit)) < 1e-8
        checked += 1
    _report(ok, "criterion 6: 20 randomized characteristic iterations: closed form "
                "exact for m<=50, limit within 1e-8 of (x+a)/(n+b)")


def test_criterion_07_conjugate_families_randomized():
    rng = random.Random(1794)
    ok = True
    for family in ConjugateFamily:
        for _ in range(8):
            n = rng.randint(1, 25)
            if family is ConjugateFamily.POISSON:
                model = ConjugateModel(family, alpha=rng.uniform(0.2, 6), beta=rng.uniform(0.2, 6))
                stats = SampleStats(n=n, sum_x=rng.randint(0, 60))
            elif family is ConjugateFamily.EXPONENTIAL:
                model = ConjugateModel(family, alpha=rng.uniform(0.2, 6), beta=rng.uniform(1.1, 7))
                stats = SampleStats(n=n, sum_x=rng.uniform(0.3, 50))
            elif family is ConjugateFamily.NORMAL_MEAN:
                model = ConjugateModel(family, alpha=rng.uniform(-4, 4), beta=rng.uniform(0.2, 3),
                                       sigma0_sq=rng.uniform(0.4, 5))
                stats = SampleStats(n=n, sum_x=rng.uniform(-40, 40))
            else:
                model = ConjugateModel(family, alpha=rng.uniform(0.2, 6), beta=rng.uniform(0.2, 6),
                                       mu0=rng.uniform(-3, 3))
                stats = SampleStats(n=n, sum_sq_dev=rng.uniform(0.4, 40))
            est = conjugate_iterative_limit(model, stats, tol=1e-13)
            ok &= abs(est.value - conjugate_mle(model, stats)) < 1e-8
    _report(ok, "criterion 7: four conjugate families, randomized stats: iterative "
                "limit within 1e-8 of the closed-form MLE")


def test_criterion_08_identity_suite():
    start = time.perf_counter()
    reports = run_all(n_max_symbolic=12, n_max_pointwise=40, gould_max=30)
    elapsed = time.perf_counter() - start
    ok = all(r.passed for r in reports) and elapsed < 30.0
    detail = ", ".join(f"{r.name}:{r.cases}" for r in reports)
    _report(ok, f"criterion 8: identity suite exact ({detail}), {elapsed:.1f}s (< 30s)")


def test_criterion_09_oracle_triangulation():
    worst = 0.0
    for n in range(1, 21):
        for x in range(n + 1):
            root = solve_iterative_bayes(BinomialObs(n, x), tol=1e-13)
            fp = fixed_point_iterate(BinomialObs(n, x))
            quad = quadrature_posterior_mean(root.value, n, x)
            worst = max(
                worst,
                abs(root.value - fp.value),
                abs(root.value - quad),
                abs(fp.value - quad),
            )
    ok = worst < 1e-8
    _report(ok, f"criterion 9: bisection / fixed point / quadrature triangulation "
                f"n<=20, worst pairwise gap {worst:.2e} (< 1e-8)")


def test_criterion_10_risk_comparison():
    golden = solve_iterative_bayes(BinomialObs(1, 1), tol=1e-15).value
    mle_mse = float(risk_at(Fraction(1, 2), (Fraction(0), Fraction(1))))
    uniform_mse = float(risk_at(Fraction(1, 2), (Fraction(1, 3), Fraction(2, 3))))
    specs = {s.tag: s for s in standard_estimators()}
    triangle_mse = risk_at(0.5, estimates_by_x(specs[ITERATIVE_BAYES_TRIANGLE], 1))
    ok = abs(mle_mse - 0.25) < 1e-9
    ok &= abs(uniform_mse - 1 / 36) < 1e-9
    ok &= abs(triangle_mse - (golden - 0.5) ** 2) < 1e-9
    beats = []
    for n in range(1, 11):
        table = compare(n, 3)
        beats.append(table.columns[ITERATIVE_BAYES_TRIANGLE][1] < table.columns[MLE][1])
    ok &= all(beats)
    _report(ok, "criterion 10: exact single-trial MSEs (1/4, 1/36, (phi^-1 - 1/2)^2) "
                "within 1e-9; triangle beats MLE at p=1/2 for n<=10")

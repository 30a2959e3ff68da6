import ast
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

import iterbayes.identities as identities
import iterbayes.triangle as triangle
from iterbayes.exact import ExactPoly, eval_rational
from iterbayes.identities import (
    GRID,
    IdentityReport,
    check_core_positivity,
    check_endpoint_signs,
    check_factorization,
    check_gould_141,
    check_gould_183,
    factorization_sides,
    gould_141_sides,
    gould_183_holds,
    positive_core_value,
    _scaled_balance,
    run_all,
)
from iterbayes.triangle import EstimatingPolynomial, estimating_polynomial
from iterbayes.types import BinomialObs

from helpers import alternating_core, reference_factorization_rhs, reference_positive_core

AUDIT_WORKLOAD = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


class TestGould141:
    def test_trivial_case(self):
        assert gould_141_sides(1, 0) == (1, 1)

    def test_small_case_exact(self):
        # r=0 term 2/2 = 1, r=1 term -2/3: lhs = 1/3 = 1/C(3,1)
        lhs, rhs = gould_141_sides(2, 1)
        assert lhs == rhs == Fraction(1, 3)

    def test_medium_case_exact(self):
        lhs, rhs = gould_141_sides(5, 4)
        assert lhs == rhs == Fraction(1, 126)

    def test_validation(self):
        with pytest.raises(ValueError):
            gould_141_sides(0, 1)
        with pytest.raises(ValueError):
            gould_141_sides(1, -1)

    def test_range_check_passes(self):
        report = check_gould_141(12)
        assert report.passed and report.cases == 12 * 13


class TestGould183:
    def test_values(self):
        assert gould_183_holds(0)   # C(1,0) = 1 = 4^0
        assert gould_183_holds(2)   # 1 + 5 + 10 = 16
        assert gould_183_holds(30)  # exact big-integer equality

    def test_direct_sum_x2(self):
        assert 1 + 5 + 10 == 16 == 4**2

    def test_range_check_passes(self):
        report = check_gould_183(30)
        assert report.passed and report.cases == 31


class TestFactorization:
    def test_one_trial_both_sides(self):
        lhs, rhs = factorization_sides(BinomialObs(1, 1))
        assert lhs == rhs == (2, -4, 0, 2)

    def test_two_trials_no_success(self):
        lhs, rhs = factorization_sides(BinomialObs(2, 0))
        assert lhs == rhs == estimating_polynomial(BinomialObs(2, 0)).int_coeffs

    def test_right_side_equals_fraction_construction_up_to_n20(self):
        for n in range(1, 21):
            for x in range(n + 1):
                obs = BinomialObs(n, x)
                assert factorization_sides(obs)[1] == reference_factorization_rhs(obs), (n, x)

    def test_range_check_passes(self):
        report = check_factorization(8)
        assert report.passed
        assert report.cases == sum(n + 1 for n in range(1, 9))

    def test_perturbation_detected(self):
        report = check_factorization(3, perturb=(2, 1, 3, 1))
        assert not report.passed
        assert "a^3" in report.counterexample

    def test_single_obs_perturbation(self):
        report = check_factorization(1, perturb=(1, 1, 0, -1))
        assert not report.passed and "a^0" in report.counterexample

    def test_perturbation_past_the_degree_names_its_index(self):
        # both sides have degree 4; the first differing coefficient is a^7
        report = check_factorization(2, perturb=(2, 1, 7, 1))
        assert report.counterexample == "n=2, x=1: coefficient of a^7 differs (1 vs 0)"


class TestCorePositivity:
    def test_one_trial_core_is_constant_one(self):
        obs = BinomialObs(1, 1)
        assert alternating_core(obs) == ExactPoly([1])
        assert positive_core_value(Fraction(1, 2), obs) == 1

    def test_near_one_positive(self):
        obs = BinomialObs(6, 2)
        assert positive_core_value(Fraction(99, 100), obs) > 0

    def test_forms_agree_on_grid(self):
        # positive_core_value is the core at a times denominator(a)^(n-x)
        for n, x in [(3, 0), (5, 5), (9, 4)]:
            obs = BinomialObs(n, x)
            core = alternating_core(obs)
            for a in GRID:
                assert core(a) * a.denominator ** (n - x) == positive_core_value(a, obs) > 0

    def test_recombination_matches_estimating_polynomial(self):
        for n, x in [(2, 1), (7, 3)]:
            obs = BinomialObs(n, x)
            jn = estimating_polynomial(obs)
            for a in (Fraction(1, 4), Fraction(2, 3)):
                pos = Fraction(positive_core_value(a, obs), a.denominator ** (n - x))
                want = (
                    2 * a ** (x + 2) * pos
                    - (n - x + 1) * (n + 3) * a
                    + (n - x + 1) * (x + 1)
                )
                assert jn.poly(a) == want

    def test_range_check_passes(self):
        assert check_core_positivity(8).passed

    def test_positive_form_equals_bernstein_weights_up_to_n60(self):
        points = GRID + (Fraction(1, 3), Fraction(99, 100), Fraction(1, 1000))
        for n in range(1, 61):
            for x in range(n + 1):
                obs = BinomialObs(n, x)
                for a in points:
                    assert positive_core_value(a, obs) == reference_positive_core(a, obs), (n, x, a)

    def test_row_built_once_per_n_and_grid_point(self, monkeypatch):
        # The check reaches positive_core_value through the module attribute
        # at each point of GRID, where the benchmark and the fault tests hook
        # it; the row behind it is built once per n and point of GRID.
        real, points = positive_core_value, []
        row = identities._positive_core_row

        def hooked(a, obs):
            points.append(a)
            assert row.cache_info().currsize <= len(GRID)
            return real(a, obs)

        monkeypatch.setattr(identities, "positive_core_value", hooked)
        row.cache_clear()
        n_max = 8
        assert check_core_positivity(n_max).passed
        n_obs = sum(n + 1 for n in range(1, n_max + 1))
        assert points == list(GRID) * n_obs
        info = row.cache_info()
        assert info.maxsize == len(GRID)
        assert info.misses == len(GRID) * n_max


class TestEndpointSigns:
    def test_balanced_case_exact_zero(self):
        # n = 2x: the uniform-prior point (x+1)/(n+2) = 1/2 is an exact root
        coeffs = estimating_polynomial(BinomialObs(2, 1)).int_coeffs
        assert eval_rational(coeffs, Fraction(1, 2)) == 0
        assert list(identities._endpoint_sign_cases(BinomialObs(2, 1))) == [None] * 3

    def test_one_trial_exact_values(self):
        coeffs = estimating_polynomial(BinomialObs(1, 1)).int_coeffs
        assert eval_rational(coeffs, Fraction(2, 4)) == Fraction(1, 4)     # lower end, > 0
        assert eval_rational(coeffs, Fraction(2, 3)) == Fraction(-2, 27)   # x > n/2 point, < 0
        assert eval_rational(coeffs, Fraction(3, 4)) == Fraction(-5, 32)   # upper end, < 0
        assert list(identities._endpoint_sign_cases(BinomialObs(1, 1))) == [None] * 3

    def test_range_check_passes(self):
        report = check_endpoint_signs(12)
        assert report.passed
        assert report.cases == 3 * sum(n + 1 for n in range(1, 13))

    def test_reads_no_dense_sign(self, monkeypatch):
        # J goes through the solver's evaluator only; the dense sign_at, and
        # the alias the benchmark tracer wraps, are never called.
        def no_dense(*args):
            raise AssertionError("sign_at called")

        monkeypatch.setattr("iterbayes.exact.sign_at", no_dense)
        monkeypatch.setattr("iterbayes.identities.sign_at", no_dense)
        report = check_endpoint_signs(12)
        assert report.passed
        assert report.cases == 3 * sum(n + 1 for n in range(1, 13))
        assert all(r.passed for r in run_all(n_max_symbolic=4, n_max_pointwise=12, gould_max=4))


class TestReportsAndRunner:
    def test_failing_report_needs_counterexample(self):
        with pytest.raises(ValueError):
            IdentityReport("x", "y", 1, False)

    def test_run_all_structure(self):
        reports = run_all(n_max_symbolic=3, n_max_pointwise=4, gould_max=4)
        assert [r.name for r in reports] == [
            "gould-1.41",
            "gould-1.83",
            "estimating-polynomial-factorization",
            "core-positivity",
            "endpoint-signs",
        ]
        assert all(r.passed for r in reports)

    @pytest.mark.parametrize("check, bounds", [
        (run_all, (0, 4, 4)),
        (run_all, (3, 0, 4)),
        (run_all, (3, 4, 0)),
        (run_all, (0, 0, -3)),
        (check_gould_141, (0,)),
        (check_gould_183, (-1,)),
        (check_factorization, (0,)),
        (check_core_positivity, (-2,)),
        (check_endpoint_signs, (0,)),
    ])
    def test_bounds_below_one_rejected(self, check, bounds):
        with pytest.raises(ValueError, match=">= 1"):
            check(*bounds)

    def test_run_all_defaults_match_the_audit_workload(self):
        # The benchmark's audit workload pins the names and case counts of
        # run_all() at its defaults; a change to them must fail here too.
        tree = ast.parse(AUDIT_WORKLOAD.read_text(encoding="utf-8"))
        pinned = next(ast.literal_eval(node.value) for node in tree.body
                      if isinstance(node, ast.Assign)
                      and [getattr(t, "id", None) for t in node.targets] == ["AUDIT_CASES"])
        got = [(r.name, r.passed, r.cases) for r in run_all()]
        assert got == [(name, True, cases) for name, cases in pinned.items()]

    def test_run_all_perturbed_fails(self):
        reports = run_all(n_max_symbolic=3, n_max_pointwise=4, gould_max=4, perturb=(2, 1, 3, 1))
        failed = [r for r in reports if not r.passed]
        assert len(failed) == 1
        assert failed[0].name == "estimating-polynomial-factorization"
        assert failed[0].counterexample


def _wrong_binomial(m, k):
    # C(3, 1) read as 4: enters gould-1.41 at x = 3, gould-1.83 at x = 1 and
    # the balance coefficients of the factorization's right side at n = 3.
    return comb(m, k) + ((m, k) == (3, 1))


def _scale_plus_one_at_n3_x1(n, x, scale):
    """_scaled_balance with the factorial scale one too large for (3, 1)."""
    return _scaled_balance(n, x, scale + ((n, x) == (3, 1)))


def _off_by_two(n, x, index):
    """estimating_polynomial with one coefficient off by 2 at (n, x)."""
    real = estimating_polynomial

    def wrong(obs):
        coeffs = list(real(obs).int_coeffs)
        if (obs.n, obs.x) == (n, x):
            coeffs[index] += 2
        return EstimatingPolynomial(tuple(coeffs))

    return wrong


def _negated_value_at_n3(obs):
    """triangle._estimating_value negated at n = 3."""
    value = triangle._estimating_value(obs)
    return (lambda u, v: -value(u, v)) if obs.n == 3 else value


def _shifted_bracket(obs):
    """triangle.solver_bracket moved up by one bracket width."""
    lo, hi = triangle.solver_bracket(obs)
    step = Fraction(1, obs.n + 3)
    return lo + step, hi + step


def _negated_at(n, x):
    """estimating_polynomial with every coefficient negated at (n, x)."""
    real = estimating_polynomial

    def wrong(obs):
        coeffs = real(obs).int_coeffs
        return EstimatingPolynomial(tuple(-c for c in coeffs) if (obs.n, obs.x) == (n, x)
                                    else coeffs)

    return wrong


def _scaled_positive_core(factor):
    real = positive_core_value
    return lambda a, obs: real(a, obs) * (factor if (obs.n, obs.x) == (3, 1) else 1)


def _mirror_off_by_one(obs):
    """triangle._estimating_value off by one on its mirrored branch, x < n/2."""
    value = triangle._estimating_value(obs)
    return (lambda u, v: value(u, v) + 1) if 2 * obs.x < obs.n else value


class TestEveryIdentityCanFail:
    """Each check of the suite turns one wrong input into a failing report
    with a counterexample.  Both pointwise checks evaluate J at x < n/2
    through the mirror identity, so a fault in J_{n,n-x} shows at (n, x)
    first: J_{3,2} at (3, 1), J_{3,3} at (3, 0)."""

    @pytest.mark.parametrize("check, target, wrong, where, cases", [
        (check_gould_141, "identities.math.comb", _wrong_binomial, "x=3", 4),
        (check_gould_183, "identities.math.comb", _wrong_binomial, "x=1", 2),
        (check_factorization, "identities.estimating_polynomial", _off_by_two(3, 1, 4),
         "n=3, x=1: coefficient of a^4", 7),
        (check_factorization, "identities.math.comb", _wrong_binomial,
         "n=3, x=0: coefficient of a^3", 6),
        (check_factorization, "identities._scaled_balance", _scale_plus_one_at_n3_x1,
         "n=3, x=1: scaled balance coefficient of a^3 for x=1 leaves remainder", 7),
        (check_core_positivity, "identities.positive_core_value", _scaled_positive_core(-1),
         "n=3, x=1, a=1/10: core not positive", 55),
        (check_core_positivity, "identities.positive_core_value",
         _scaled_positive_core(Fraction(3, 2)),
         "n=3, x=1, a=1/10: polynomial != core recombination", 55),
        (check_core_positivity, "triangle.estimating_polynomial", _off_by_two(3, 2, 4),
         "n=3, x=1, a=1/10: polynomial != core recombination", 55),
        (check_core_positivity, "triangle.estimating_polynomial", _off_by_two(3, 2, 0),
         "n=3, x=1, a=1/10: polynomial != core recombination", 55),
        (check_core_positivity, "identities._estimating_value", _mirror_off_by_one,
         "n=1, x=0, a=1/10: polynomial != core recombination", 1),
        (check_endpoint_signs, "identities._estimating_value", _negated_value_at_n3,
         "n=3, x=0: sign at lower bracket end", 16),
        (check_endpoint_signs, "identities.solver_bracket", _shifted_bracket,
         "n=1, x=0: sign at lower bracket end", 1),
        (check_endpoint_signs, "triangle.estimating_polynomial", _negated_at(3, 3),
         "n=3, x=0: sign at lower bracket end", 16),
    ], ids=["gould-1.41", "gould-1.83", "factorization", "factorization-balance-term",
            "factorization-remainder", "core-not-positive",
            "core-forms-differ", "core-J-head-off", "core-J-tail-off", "core-mirror-off",
            "endpoint-signs", "endpoint-bracket-shifted", "endpoint-mirror-flipped"])
    def test_wrong_input_fails(self, monkeypatch, check, target, wrong, where, cases):
        # cases: the count at the first failure, which the one report builder keeps
        monkeypatch.setattr(f"iterbayes.{target}", wrong)
        report = check(4)
        assert not report.passed
        assert where in report.counterexample
        assert report.cases == cases

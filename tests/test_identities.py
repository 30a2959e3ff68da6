from fractions import Fraction
from math import comb

import pytest

import iterbayes.identities as identities
from iterbayes.exact import ExactPoly, eval_rational, sign_at
from iterbayes.identities import (
    GRID,
    IdentityReport,
    check_core_positivity,
    check_endpoint_signs,
    check_endpoint_signs_at,
    check_factorization,
    check_factorization_at,
    check_gould_141,
    check_gould_183,
    factorization_sides,
    gould_141_sides,
    gould_183_holds,
    positive_core_value,
    run_all,
)
from iterbayes.triangle import EstimatingPolynomial, estimating_polynomial
from iterbayes.types import BinomialObs

from helpers import alternating_core


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
        assert lhs == rhs == ExactPoly([2, -4, 0, 2])

    def test_two_trials_no_success(self):
        lhs, rhs = factorization_sides(BinomialObs(2, 0))
        assert lhs == rhs

    def test_range_check_passes(self):
        report = check_factorization(8)
        assert report.passed
        assert report.cases == sum(n + 1 for n in range(1, 9))

    def test_perturbation_detected(self):
        report = check_factorization(3, perturb=(2, 1, 3, 1))
        assert not report.passed
        assert "a^3" in report.counterexample

    def test_single_obs_perturbation(self):
        report = check_factorization_at(BinomialObs(1, 1), perturb=(0, -1))
        assert not report.passed and "a^0" in report.counterexample


class TestCorePositivity:
    def test_one_trial_core_is_constant_one(self):
        obs = BinomialObs(1, 1)
        assert alternating_core(obs) == ExactPoly([1])
        assert positive_core_value(Fraction(1, 2), obs) == 1

    def test_near_one_positive(self):
        obs = BinomialObs(6, 2)
        assert positive_core_value(Fraction(99, 100), obs) > 0

    def test_forms_agree_on_grid(self):
        for n, x in [(3, 0), (5, 5), (9, 4)]:
            obs = BinomialObs(n, x)
            core = alternating_core(obs)
            for a in GRID:
                assert core(a) == positive_core_value(a, obs) > 0

    def test_recombination_matches_estimating_polynomial(self):
        for n, x in [(2, 1), (7, 3)]:
            obs = BinomialObs(n, x)
            jn = estimating_polynomial(obs)
            for a in (Fraction(1, 4), Fraction(2, 3)):
                want = (
                    2 * a ** (x + 2) * positive_core_value(a, obs)
                    - (n - x + 1) * (n + 3) * a
                    + (n - x + 1) * (x + 1)
                )
                assert jn.poly(a) == want

    def test_range_check_passes(self):
        assert check_core_positivity(8).passed


class TestEndpointSigns:
    def test_balanced_case_exact_zero(self):
        # n = 2x: the uniform-prior point (x+1)/(n+2) = 1/2 is an exact root
        coeffs = estimating_polynomial(BinomialObs(2, 1)).int_coeffs
        assert eval_rational(coeffs, Fraction(1, 2)) == 0
        assert check_endpoint_signs_at(BinomialObs(2, 1)).passed

    def test_one_trial_exact_values(self):
        coeffs = estimating_polynomial(BinomialObs(1, 1)).int_coeffs
        assert eval_rational(coeffs, Fraction(2, 4)) == Fraction(1, 4)     # lower end, > 0
        assert eval_rational(coeffs, Fraction(2, 3)) == Fraction(-2, 27)   # x > n/2 point, < 0
        assert eval_rational(coeffs, Fraction(3, 4)) == Fraction(-5, 32)   # upper end, < 0
        assert check_endpoint_signs_at(BinomialObs(1, 1)).passed

    def test_range_check_passes(self):
        report = check_endpoint_signs(12)
        assert report.passed
        assert report.cases == 3 * sum(n + 1 for n in range(1, 13))


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

    def test_run_all_perturbed_fails(self):
        reports = run_all(n_max_symbolic=3, n_max_pointwise=4, gould_max=4, perturb=(2, 1, 3, 1))
        failed = [r for r in reports if not r.passed]
        assert len(failed) == 1
        assert failed[0].name == "estimating-polynomial-factorization"
        assert failed[0].counterexample


def _wrong_binomial(m, k):
    # C(3, 1) read as 5: enters gould-1.41 at x = 3 and gould-1.83 at x = 1.
    return comb(m, k) + ((m, k) == (3, 1))


def _off_by_two(n, x, index):
    """estimating_polynomial with one coefficient off by 2 at (n, x)."""
    real = estimating_polynomial

    def wrong(obs):
        coeffs = list(real(obs).int_coeffs)
        if (obs.n, obs.x) == (n, x):
            coeffs[index] += 2
        return EstimatingPolynomial(tuple(coeffs))

    return wrong


def _flipped_sign_at_n3(coeffs, point):
    """sign_at with the sign flipped on the degree-5 polynomials (n = 3)."""
    sign = sign_at(coeffs, point)
    return -sign if len(coeffs) == 6 else sign


def _scaled_positive_core(factor):
    real = positive_core_value
    return lambda a, obs: real(a, obs) * (factor if (obs.n, obs.x) == (3, 1) else 1)


class TestEveryIdentityCanFail:
    """Each check of the suite turns one wrong input into a failing report
    with a counterexample."""

    @pytest.mark.parametrize("check, attr, wrong, where", [
        (check_gould_141, "binomial", _wrong_binomial, "x=3"),
        (check_gould_183, "binomial", _wrong_binomial, "x=1"),
        (check_factorization, "estimating_polynomial", _off_by_two(3, 1, 4),
         "n=3, x=1: coefficient of a^4"),
        (check_core_positivity, "positive_core_value", _scaled_positive_core(-1),
         "n=3, x=1, a=1/10: core not positive"),
        (check_core_positivity, "positive_core_value", _scaled_positive_core(Fraction(3, 2)),
         "n=3, x=1, a=1/10: polynomial != core recombination"),
        (check_core_positivity, "estimating_polynomial", _off_by_two(3, 1, 4),
         "n=3, x=1, a=1/10: polynomial != core recombination"),
        (check_core_positivity, "estimating_polynomial", _off_by_two(3, 1, 0),
         "n=3, x=1, a=1/10: polynomial != core recombination"),
        (check_endpoint_signs, "sign_at", _flipped_sign_at_n3,
         "n=3, x=0: sign at lower bracket end"),
    ], ids=["gould-1.41", "gould-1.83", "factorization", "core-not-positive",
            "core-forms-differ", "core-J-head-off", "core-J-tail-off", "endpoint-signs"])
    def test_wrong_input_fails(self, monkeypatch, check, attr, wrong, where):
        monkeypatch.setattr(identities, attr, wrong)
        report = check(4)
        assert not report.passed
        assert where in report.counterexample

import math
import random
from fractions import Fraction

import pytest

import iterbayes.triangle as triangle
from iterbayes.exact import ExactPoly, bisect_root, eval_rational, sign_at
from iterbayes.identities import factorization_sides
from iterbayes.conjugate import ConjugateFamily, ConjugateModel, SampleStats, conjugate_iterative_limit
from iterbayes.triangle import (
    balance_polynomial,
    estimating_polynomial,
    fixed_point_iterate,
    geometric_estimate,
    mirrored_values,
    negative_binomial_estimate,
    posterior_mean_exact,
    solve_iterative_bayes,
    solver_bracket,
    triangle_posterior_mean,
)
from iterbayes.types import BinomialObs, BracketFailure, NoConvergence

from helpers import (
    antiderivative,
    geometric_polynomial,
    poly_power,
    posterior_mean_one_success,
    quadrature_posterior_mean,
    reference_estimating_coeffs,
    weighted_posterior_mean,
)
from reference_tables import PRINT_TOL, TABLE2, TABLE3

GOLDEN_RATIO_RECIPROCAL = (math.sqrt(5) - 1) / 2


class TestPosteriorMeanOneSuccess:
    def test_half_mode_value(self):
        # (1 + 1/2 + 1/4) / (2 * 3/2) = 7/12, by direct substitution
        assert posterior_mean_one_success(Fraction(1, 2)) == Fraction(7, 12)

    def test_golden_fixed_point(self):
        tau = GOLDEN_RATIO_RECIPROCAL
        assert posterior_mean_one_success(tau) == pytest.approx(tau, abs=1e-15)

    def test_matches_general_path_exactly(self):
        # the closed form is the general posterior mean specialized to n = x = 1
        rng = random.Random(7)
        obs = BinomialObs(1, 1)
        for _ in range(20):
            mode = Fraction(rng.randint(1, 99), 100)
            assert posterior_mean_one_success(mode) == posterior_mean_exact(mode, obs)


class TestPosteriorMean:
    def test_symmetric_configuration_is_exact_half(self):
        for n, x in [(2, 1), (4, 2), (8, 4)]:
            assert posterior_mean_exact(Fraction(1, 2), BinomialObs(n, x)) == Fraction(1, 2)

    def test_near_fixed_point_table_value(self):
        # 0.439 is the n=5, x=2 fixed point printed to 3 decimals
        assert abs(triangle_posterior_mean(0.439, BinomialObs(5, 2)) - 0.439) < PRINT_TOL

    def test_equals_weighted_reference_exactly(self):
        modes = [Fraction(j, 10) for j in range(1, 10)] + [1e-3, 0.123, 0.61803398875, 0.999]
        for n in range(1, 13):
            for x in range(n + 1):
                obs = BinomialObs(n, x)
                for mode in modes:
                    assert posterior_mean_exact(mode, obs) == weighted_posterior_mean(mode, n, x)

    def test_mode_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            posterior_mean_exact(Fraction(0), BinomialObs(2, 1))

    def test_piece_cache_bounded(self):
        cached = triangle._mean_pieces
        maxsize = cached.cache_info().maxsize
        # Finite, and large enough for every (n, x) with n <= 40 (860 keys).
        assert maxsize is not None and maxsize >= 1024
        for n in range(1, 21):
            for x in range(n + 1):
                posterior_mean_exact(Fraction(1, 3), BinomialObs(n, x))
                assert cached.cache_info().currsize <= maxsize

    @pytest.mark.parametrize(
        "mode, n, x",
        [(0.3, 1, 1), (0.618, 3, 2), (0.5, 5, 2), (0.9, 7, 0), (0.12, 10, 10)],
    )
    def test_quadrature_oracle_agreement(self, mode, n, x):
        exact = triangle_posterior_mean(mode, BinomialObs(n, x))
        quad = quadrature_posterior_mean(mode, n, x)
        assert exact == pytest.approx(quad, abs=1e-10)

    def test_output_in_unit_interval(self):
        rng = random.Random(11)
        for _ in range(30):
            n = rng.randint(1, 15)
            x = rng.randint(0, n)
            mode = rng.uniform(0.01, 0.99)
            assert 0 < triangle_posterior_mean(mode, BinomialObs(n, x)) < 1


class TestBalanceIntegral:
    def test_zero_at_origin(self):
        assert balance_polynomial(BinomialObs(4, 2))(Fraction(0)) == 0

    def test_value_at_one(self):
        # a = 1 collapses to 1 / ((n+3) C(n+2, x+1)); n = x = 1 gives 1/12
        assert balance_polynomial(BinomialObs(1, 1))(Fraction(1)) == Fraction(1, 12)
        for n in range(1, 13):
            for x in range(n + 1):
                want = Fraction(1, (n + 3) * math.comb(n + 2, x + 1))
                assert balance_polynomial(BinomialObs(n, x))(Fraction(1)) == want

    def test_matches_defining_integral(self):
        # independent route: expand t^(x+1) (1-t) (1-a t)^(n-x) as a polynomial
        # in t and integrate over the unit interval
        t = ExactPoly([0, 1])
        for n, x in [(1, 1), (3, 1), (5, 0), (6, 6), (9, 4)]:
            obs = BinomialObs(n, x)
            for a in (Fraction(1, 3), Fraction(7, 10)):
                integrand = (poly_power(t, x + 1) * ExactPoly([1, -1])
                             * poly_power(ExactPoly([1, -a]), n - x))
                anti = antiderivative(integrand)
                want = a ** (x + 2) * (anti(Fraction(1)) - anti(Fraction(0)))
                assert balance_polynomial(obs)(a) == want

    def test_strictly_increasing(self):
        obs = BinomialObs(4, 1)
        balance = balance_polynomial(obs)
        assert balance(Fraction(3, 10)) < balance(Fraction(6, 10))

    def test_strictly_increasing_full_grid(self):
        # exact values on a 100-point grid, every observation with n <= 20
        for n in range(1, 21):
            for x in range(n + 1):
                balance = balance_polynomial(BinomialObs(n, x))
                values = [balance(Fraction(j, 100)) for j in range(101)]
                assert all(u < v for u, v in zip(values, values[1:]))


class TestEstimatingPolynomial:
    def test_one_success_one_trial(self):
        jn = estimating_polynomial(BinomialObs(1, 1))
        assert jn.poly == ExactPoly([2, -4, 0, 2])
        # factors as 2(a-1)(a^2+a-1): golden-section root inside (0,1)
        assert jn.poly(Fraction(1)) == 0

    def test_two_trials_one_success(self):
        jn = estimating_polynomial(BinomialObs(2, 1))
        assert jn.poly == ExactPoly([4, -10, 0, 10, -4])
        assert jn.poly(Fraction(1, 2)) == 0

    def test_structure_for_all_small_n(self):
        for n in range(1, 21):
            for x in range(n + 1):
                jn = estimating_polynomial(BinomialObs(n, x))
                coeffs = jn.poly.coeffs
                assert jn.poly.degree == n + 2
                assert coeffs[0] == (n - x + 1) * (x + 1)
                assert coeffs[1] == -(n - x + 1) * (n + 3)
                assert all(c.denominator == 1 for c in coeffs)

    def test_matches_fraction_reference_up_to_n60(self):
        for n in range(1, 61):
            for x in range(n + 1):
                obs = BinomialObs(n, x)
                assert estimating_polynomial(obs).int_coeffs == reference_estimating_coeffs(obs), (n, x)

    def test_bracket(self):
        assert solver_bracket(BinomialObs(9, 4)) == (Fraction(5, 12), Fraction(6, 12))


class TestSolveIterativeBayes:
    def test_golden_ratio(self):
        est = solve_iterative_bayes(BinomialObs(1, 1), tol=1e-13)
        assert est.value == pytest.approx(GOLDEN_RATIO_RECIPROCAL, abs=1e-12)
        assert est.method == "bisection"
        assert est.bracket[0] < est.value_exact < est.bracket[1]

    @pytest.mark.parametrize("n, x", [(10, 0), (9, 4), (5, 2), (7, 6)])
    def test_table_values(self, n, x):
        est = solve_iterative_bayes(BinomialObs(n, x))
        assert abs(est.value - TABLE2[(n, x)]) < PRINT_TOL

    def test_tolerance_honoured(self):
        est = solve_iterative_bayes(BinomialObs(6, 2), tol=1e-9)
        assert est.bracket[1] - est.bracket[0] < Fraction(1, 10**9)

    def test_balanced_observation_yields_exact_half(self):
        # the first midpoint of the bracket is exactly 1/2 when n = 2x
        for x in (1, 3, 10):
            est = solve_iterative_bayes(BinomialObs(2 * x, x))
            assert est.value_exact == Fraction(1, 2)
            assert est.residual == 0.0

    def test_residual_refinement(self):
        # a narrower bracket pins the exact residual at the reported point
        jn = estimating_polynomial(BinomialObs(9, 2))
        loose = solve_iterative_bayes(BinomialObs(9, 2), tol=1e-6)
        tight = solve_iterative_bayes(BinomialObs(9, 2), tol=1e-15)
        assert float(abs(jn.poly(tight.value_exact))) == tight.residual
        assert tight.residual <= 1e-12 < loose.residual
        assert tight.iterations > loose.iterations

    @pytest.mark.parametrize("tol", [0, -1e-12, float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("solve", [
        lambda tol: solve_iterative_bayes(BinomialObs(3, 1), tol=tol),
        lambda tol: geometric_estimate(3, tol=tol),
        lambda tol: geometric_estimate(0, tol=tol),
        lambda tol: negative_binomial_estimate(2, 1, tol=tol),
        lambda tol: bisect_root((-1, 1, 1), 0, 1, tol=tol),
        lambda tol: conjugate_iterative_limit(
            ConjugateModel(ConjugateFamily.POISSON, alpha=1.0, beta=1.0), SampleStats(n=3, sum_x=4), tol=tol),
    ], ids=["solve", "geometric", "geometric-x0", "negative-binomial", "bisect_root", "conjugate"])
    def test_bad_tol_rejected(self, solve, tol):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            solve(tol)

    def test_tol_checked_before_polynomial_built(self, monkeypatch):
        def unreachable(obs):
            raise AssertionError("estimating polynomial built before the tol check")

        monkeypatch.setattr(triangle, "estimating_polynomial", unreachable)
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            solve_iterative_bayes(BinomialObs(3000, 1000), tol=float("nan"))

    def test_bracket_failure_translated(self, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("no strict sign change (induced)")

        monkeypatch.setattr(triangle, "bisect_root", broken)
        with pytest.raises(BracketFailure):
            solve_iterative_bayes(BinomialObs(3, 1))

    def test_symmetry_small(self):
        for n in range(1, 13):
            values = [solve_iterative_bayes(BinomialObs(n, x), tol=1e-12).value for x in range(n + 1)]
            for x in range(n + 1):
                assert values[x] + values[n - x] == pytest.approx(1.0, abs=1e-10)
            assert all(u < v for u, v in zip(values, values[1:]))  # increasing in x

    def test_mirrored_values_equal_direct_solves(self, monkeypatch):
        # x > n/2 is 1 - the exact value at (n, n - x), rounded once; it must
        # be the direct solve's float bit for bit.  x = n/2 is solved directly.
        solved = []

        def solve(obs, tol):
            solved.append(obs.x)
            return solve_iterative_bayes(obs, tol=tol)

        monkeypatch.setattr(triangle, "solve_iterative_bayes", solve)
        for n in range(1, 61):
            direct = tuple(solve_iterative_bayes(BinomialObs(n, x), tol=1e-12).value
                           for x in range(n + 1))
            solved.clear()
            assert mirrored_values(n, 1e-12) == direct, n
            assert solved == list(range(n // 2 + 1))

    def test_refined_bounds_small(self):
        for n in range(1, 13):
            for x in range(n + 1):
                v = solve_iterative_bayes(BinomialObs(n, x), tol=1e-12).value_exact
                assert Fraction(x + 1, n + 3) < v < Fraction(x + 2, n + 3)
                if 2 * x < n:
                    assert v > Fraction(x + 1, n + 2)
                elif 2 * x > n:
                    assert v < Fraction(x + 1, n + 2)


class TestFixedPointIterate:
    def test_converges_to_golden(self):
        est = fixed_point_iterate(BinomialObs(1, 1), mode0=0.5)
        assert est.value == pytest.approx(0.618034, abs=1e-6)
        assert est.method == "fixed-point"

    def test_symmetric_case_from_far_start(self):
        est = fixed_point_iterate(BinomialObs(2, 1), mode0=0.9)
        assert est.value == pytest.approx(0.5, abs=1e-9)

    def test_already_at_fixed_point(self):
        root = solve_iterative_bayes(BinomialObs(1, 1), tol=1e-15).value
        est = fixed_point_iterate(BinomialObs(1, 1), mode0=root)
        assert est.iterations <= 1

    def test_agreement_with_bisection(self):
        for n, x in [(1, 1), (4, 0), (7, 5), (12, 3)]:
            fp = fixed_point_iterate(BinomialObs(n, x))
            bisect = solve_iterative_bayes(BinomialObs(n, x), tol=1e-13)
            assert abs(fp.value - bisect.value) < 10 * triangle.FIXED_POINT_TOL

    def test_no_convergence_reported(self, monkeypatch):
        monkeypatch.setattr(triangle, "FIXED_POINT_MAX_ITER", 2)
        with pytest.raises(NoConvergence) as excinfo:
            fixed_point_iterate(BinomialObs(1, 1), mode0=0.05)
        assert 0 < excinfo.value.last_value < 1
        assert excinfo.value.iterations == 2

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            fixed_point_iterate(BinomialObs(1, 1), mode0=0.0)


class TestGeometricAndNegativeBinomial:
    def test_geometric_table(self):
        for x, want in enumerate(TABLE3):
            assert abs(geometric_estimate(x).value - want) < PRINT_TOL

    def test_geometric_polynomial_x1_exact_root(self):
        # 2a^4 - 5a^3 + 5a - 2 vanishes at 1/2
        coeffs = geometric_polynomial(1)
        assert coeffs == (-2, 5, 0, -5, 2)
        assert eval_rational(coeffs, Fraction(1, 2)) == 0
        assert geometric_estimate(1).value_exact == Fraction(1, 2)

    def test_geometric_matches_negative_binomial_reduction(self):
        for x in range(0, 8):
            geo = geometric_estimate(x)
            nb = negative_binomial_estimate(1, x)
            assert abs(geo.value - nb.value) < 1e-10

    def test_geometric_polynomial_is_scaled_estimating_polynomial(self):
        for x in range(0, 8):
            jn = estimating_polynomial(BinomialObs(x + 1, x)).int_coeffs
            assert tuple(-2 * c for c in geometric_polynomial(x)) == jn

    def test_geometric_x0_residual_is_half_the_binomial_one(self):
        # x = 0 is solved like every other x: J(1, 0) / -2, so its residual
        # is half of the binomial solve's, with every other field equal.
        geo = geometric_estimate(0, tol=1e-12)
        nb = negative_binomial_estimate(1, 0, tol=1e-12)
        assert geo.residual > 0
        assert geo.residual == nb.residual / 2
        assert geo.value_exact == nb.value_exact and geo.bracket == nb.bracket
        assert geo.iterations == nb.iterations

    @pytest.mark.parametrize(
        "r, x, want",
        [(1, 0, 0.382), (2, 0, 0.309), (3, 3, 0.5)],
    )
    def test_negative_binomial_values(self, r, x, want):
        assert abs(negative_binomial_estimate(r, x).value - want) < PRINT_TOL

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            geometric_estimate(-1)
        with pytest.raises(ValueError):
            negative_binomial_estimate(0, 1)
        with pytest.raises(ValueError):
            negative_binomial_estimate(1, -1)


class TestOutputConsistency:
    def test_residual_and_mean_consistency_up_to_n20(self):
        # at the reported point: tiny exact residual of the estimating
        # polynomial, and the posterior-mean map is within 1e-8 of identity.
        # The bracket is certified by the Bayesian definition itself: the
        # posterior mean lies above the mode at the lower end and below it
        # at the upper end, or equals it at an exact root.
        for n in range(1, 21):
            for x in range(n + 1):
                obs = BinomialObs(n, x)
                est = solve_iterative_bayes(obs, tol=1e-12)
                assert est.residual <= 1e-10
                mean = posterior_mean_exact(est.value_exact, obs)
                assert abs(float(mean - est.value_exact)) < 1e-8
                lo, hi = est.bracket
                if est.residual:
                    assert posterior_mean_exact(lo, obs) > lo, (n, x)
                    assert posterior_mean_exact(hi, obs) < hi, (n, x)
                else:
                    assert mean == est.value_exact, (n, x)

    def test_identity_form_root_oracle_up_to_n20(self):
        # third route to the root: bisect the expanded balance-difference
        # polynomial instead of the direct coefficient construction
        for n in range(1, 21):
            for x in (0, n // 2, n):
                obs = BinomialObs(n, x)
                _, rhs = factorization_sides(obs)
                scale = math.lcm(*(c.denominator for c in rhs.coeffs))
                coeffs = tuple(int(c * scale) for c in rhs.coeffs)
                lo, hi = solver_bracket(obs)
                via_identity = bisect_root(coeffs, lo, hi, tol=Fraction(1, 10**12))
                direct = solve_iterative_bayes(obs, tol=1e-12)
                assert abs(float(via_identity.value) - direct.value) < 1e-8

    def test_single_sign_change_inside_bracket(self):
        for n in range(1, 9):
            for x in range(n + 1):
                obs = BinomialObs(n, x)
                jn = estimating_polynomial(obs)
                lo, hi = solver_bracket(obs)
                signs = [
                    sign_at(jn.int_coeffs, lo + (hi - lo) * Fraction(j, 24))
                    for j in range(25)
                ]
                flips = sum(
                    1 for s, t in zip(signs, signs[1:]) if s != t and 0 not in (s, t)
                )
                assert flips + signs.count(0) == 1


class TestCloserToHalf:
    def test_estimate_at_least_as_central_as_uniform_bayes(self):
        for n in range(1, 11):
            for x in range(n + 1):
                v = solve_iterative_bayes(BinomialObs(n, x), tol=1e-13).value
                uniform = (x + 1) / (n + 2)
                assert abs(v - 0.5) <= abs(uniform - 0.5) + 1e-12
                if n != 2 * x:
                    assert abs(v - 0.5) < abs(uniform - 0.5) - 1e-12

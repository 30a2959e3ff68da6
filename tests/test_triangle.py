import decimal
import math
import random
from fractions import Fraction

import pytest

import iterbayes
import iterbayes.triangle as triangle
from iterbayes.exact import ExactPoly, eval_rational, sign_at
from iterbayes.identities import factorization_sides
from iterbayes.conjugate import ConjugateFamily, ConjugateModel, SampleStats, conjugate_iterative_limit
from iterbayes.triangle import (
    HINT_ERROR,
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
from iterbayes.types import METHOD_FIXED_POINT, BinomialObs, BracketFailure, Estimate, NoConvergence

from helpers import (
    antiderivative,
    balance_polynomial,
    dense_bisect_root,
    geometric_polynomial,
    poly_power,
    posterior_mean_one_success,
    quadrature_posterior_mean,
    reference_estimating_coeffs,
    reference_homogeneous_value,
    reference_mean_ratio,
    solve_bounds,
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

    @pytest.mark.parametrize("mode", [Fraction(0), 1.0, Fraction(3, 2), math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("mean", [posterior_mean_exact, iterbayes.triangle_posterior_mean])
    def test_mode_out_of_range_rejected(self, mean, mode):
        # NaN and infinities too, before as_integer_ratio could raise its own error.
        with pytest.raises(ValueError, match=r"^posterior mean: mode must be in \(0, 1\), got "):
            mean(mode, BinomialObs(3, 1))

    @pytest.mark.parametrize("n, x", [(1000, 0), (1000, 1), (1000, 500), (1000, 999), (1000, 1000),
                                      (5000, 1), (5000, 2500), (5000, 3333), (5000, 5000)])
    def test_mean_ratio_is_the_full_bernstein_pair_at_large_n(self, n, x):
        obs = BinomialObs(n, x)
        # 5e-324 = 1/2**1074 makes q**n five million bits at n = 5000: seconds.
        tiny = (5e-324,) if n <= 1000 else ()
        for mode in (*solver_bracket(obs), 0.5, 1 - 2**-53, Fraction(2**100 - 1, 2**101), *tiny):
            assert triangle._mean_ratio(mode, obs) == reference_mean_ratio(mode, n, x)

    @pytest.mark.parametrize("n", [9, 61, 301])
    def test_mean_ratio_at_the_bracket_ends_of_an_even_n_plus_3(self, n):
        # n + 3 = 12, 64 and 304: ends (x+1)/(n+3) and (x+2)/(n+3) whose
        # denominators are an odd part times a power of two, or one alone.
        for x in range(n + 1):
            for mode in solver_bracket(BinomialObs(n, x)):
                assert triangle._mean_ratio(mode, BinomialObs(n, x)) == reference_mean_ratio(mode, n, x)

    @pytest.mark.parametrize("n, x", [(1, 0), (1, 1), (2, 1), (9, 2), (9, 7), (300, 0), (300, 150),
                                      (300, 299), (300, 300)])
    def test_one_short_tail_evaluation(self, monkeypatch, n, x):
        # One exact evaluation per mean, on the shorter binomial tail: not the
        # full sums' two, on n + 3 and n + 2 coefficients.
        lengths = []
        horner = triangle._homogeneous_value

        def counted(coeffs, u, v):
            lengths.append(len(coeffs))
            return horner(coeffs, u, v)

        monkeypatch.setattr(triangle, "_homogeneous_value", counted)
        posterior_mean_exact(Fraction(1, 3), BinomialObs(n, x))
        assert lengths == [min(x + 1, n + 1 - x)]

    def test_piece_cache_bounded(self):
        # One entry: an entry is up to 1.2 MiB at n = 5000, so only a
        # one-entry bound keeps the footprint small at every n.
        cached = triangle._mean_pieces
        assert cached.cache_info().maxsize == 1
        for n in range(1, 21):
            for x in range(n + 1):
                posterior_mean_exact(Fraction(1, 3), BinomialObs(n, x))
                assert cached.cache_info().currsize <= 1

    @pytest.mark.parametrize("n, x", [(5, 2), (40, 13), (40, 40)])
    def test_fixed_point_run_builds_its_pieces_once(self, n, x):
        # Every step of a run reads the same (n, x), so one entry serves it.
        cached = triangle._mean_pieces
        cached.cache_clear()
        est = fixed_point_iterate(BinomialObs(n, x))
        info = cached.cache_info()
        assert info.misses == 1 and info.hits == est.iterations - 1
        assert info.currsize <= 1

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


class TestEstimatingValue:
    """The solvers' evaluator reads the short core of (n, max(x, n - x)) and
    goes through the mirror identity below x = n/2; it must give the
    integer v**(n+2) J(u/v) of the dense polynomial at every point."""

    @staticmethod
    def points(n, x):
        # Both bracket ends, (x+1)/(n+2), and points of the refined grids of
        # tol 1e-12 and 1e-30 as bisect_root forms them: unreduced, an odd
        # or an even index, the denominator (n+3) * 2**fine.
        yield x + 1, n + 3
        yield x + 2, n + 3
        yield x + 1, n + 2
        for fine in (41, 101):
            for i in (1, 2, 2**fine // 3, 2**fine - 1):
                yield ((x + 1) << fine) + i, (n + 3) << fine

    def test_equals_dense_value_up_to_n60(self):
        for n in range(1, 61):
            for x in range(n + 1):
                obs = BinomialObs(n, x)
                value = triangle._estimating_value(obs)
                coeffs = estimating_polynomial(obs).int_coeffs
                for u, v in self.points(n, x):
                    assert value(u, v) == reference_homogeneous_value(coeffs, u, v), (n, x, u, v)

    # x on both sides of n/2; n + 3 odd (803), a power of two (64) and even
    # with an odd part (12 = 3 * 4, 304 = 19 * 16).
    @pytest.mark.parametrize("n, x", [(9, 2), (9, 7), (61, 20), (61, 45), (301, 100), (301, 250),
                                      (800, 266), (800, 533)])
    def test_memo_of_the_odd_power_follows_the_point(self, n, x):
        # One closure keeps odd**(n+1) for the last odd part of v: points
        # whose odd parts change at every step, and return to the first,
        # must each read the power of their own.
        obs = BinomialObs(n, x)
        value = triangle._estimating_value(obs)
        coeffs = estimating_polynomial(obs).int_coeffs
        grid = (n + 3) << 40
        for u, v in ((1, 10), (1, 2), (x + 1, n + 3), (((x + 1) << 40) + 2**39 + 1, grid), (1, 10)):
            assert value(u, v) == reference_homogeneous_value(coeffs, u, v), (u, v)

    def test_mirror_identity_up_to_n20(self):
        # a J_{n,x}(a) + (1-a) J_{n,n-x}(1-a) = 0 as polynomials.
        a, one_minus_a = ExactPoly([0, 1]), ExactPoly([1, -1])
        for n in range(1, 21):
            for x in range(n + 1):
                j = estimating_polynomial(BinomialObs(n, x)).poly
                mirror = estimating_polynomial(BinomialObs(n, n - x)).poly
                assert a * j + one_minus_a * mirror.compose(one_minus_a) == ExactPoly(), (n, x)

    @pytest.mark.parametrize("n, x", [(3, 1), (40, 7), (40, 33), (9, 0), (8, 4)])
    def test_one_polynomial_and_one_root_isolation_per_solve(self, monkeypatch, n, x):
        # The benchmark traces a solve at these two module attributes and
        # reads the built polynomial's degree: one build of degree n + 2, of
        # the short-core side, and one bisect_root call.
        built, isolated = [], []
        build, isolate = triangle.estimating_polynomial, triangle.bisect_root

        def traced_build(obs):
            built.append(obs)
            return build(obs)

        def traced_isolate(*args, **kwargs):
            isolated.append(args[1])
            return isolate(*args, **kwargs)

        monkeypatch.setattr(triangle, "estimating_polynomial", traced_build)
        monkeypatch.setattr(triangle, "bisect_root", traced_isolate)
        solve_iterative_bayes(BinomialObs(n, x))
        assert built == [BinomialObs(n, max(x, n - x))]
        assert build(built[0]).poly.degree == n + 2
        assert isolated == [n + 2]


class TestRootHint:
    """The float hint the solvers pass to bisect_root is total, inside the
    open solver bracket, and within the error bisect_root trusts."""

    CASES = ([(n, x) for n in range(1, 5) for x in range(n + 1)]
             + [(n, x) for n in (2000, 5000, 10_000)
                for x in sorted({0, 1, n // 3, n // 2, n - 1, n})])

    @pytest.mark.parametrize("n, x", CASES)
    def test_finite_inside_the_bracket_and_near_the_root(self, n, x):
        hint = triangle._float_hint(n, x)[0]
        assert math.isfinite(hint)
        lo, hi = solver_bracket(BinomialObs(n, x))
        assert lo < hint < hi
        # J is positive below its one root in the bracket and negative above
        # it, so opposite exact signs at hint -/+ HINT_ERROR put the root
        # within HINT_ERROR of the hint.
        value = triangle._estimating_value(BinomialObs(n, x))
        below, above = Fraction(hint) - HINT_ERROR, Fraction(hint) + HINT_ERROR
        assert lo < below and above < hi
        assert value(below.numerator, below.denominator) > 0
        assert value(above.numerator, above.denominator) < 0

    @pytest.mark.parametrize("n, x", [(2**60, 2**60), (2**60, 0)])
    def test_a_gap_that_rounds_to_zero_gives_no_hint(self, n, x):
        # (n+3) a - (x+1) at the start (x+1.5)/(n+3) rounds to 0 in floats
        # when n is far above 2**53; the hint is then absent, not an error,
        # and nothing is refined.
        assert triangle._float_hint(n, x) == (None, 0.0)


def _fine_grid(n, tol):
    """The denominator (n+3) 2**fine of bisect_root's fine grid on the
    solver bracket of n trials at ``tol``."""
    return (n + 3) << triangle.bisect_depth(1, n + 3, *tol.as_integer_ratio()) + 1


class TestEnclosure:
    """The fixed-point bounds of J (``triangle._bounds``) and the certified
    signs built on them (``triangle._enclosure``)."""

    @pytest.mark.parametrize("tol", [1e-12, 1e-30, 5e-324], ids=["1e-12", "1e-30", "5e-324"])
    @pytest.mark.parametrize("n", [2, 10, 100, 600])
    def test_the_root_half_is_undecided(self, n, tol):
        # At x = n/2 the root 1/2 is a grid point: the bounds hold 0 there
        # and the probe is left to exact evaluation.
        v = _fine_grid(n, tol)
        x = n // 2
        bounds, certify = solve_bounds(n, x, v.bit_length())
        lo, hi, _ = bounds(v // 2, v)
        assert lo <= 0 <= hi
        assert certify(v // 2, v) is None
        # Beside it the signs are J's: positive below, negative above.
        assert certify(v // 2 - 1, v)[0] == 1 and certify(v // 2 + 1, v)[0] == -1

    @pytest.mark.parametrize("n", [1, 7, 40, 100])
    def test_weights_bracket_the_exact_ones(self, n):
        # Folded at r0 = 1, the recurrence's weights are at most the
        # integers 2 C(n+3, k) C(m-k+2, 2) and, k floors of relative error
        # below 2**(1 - prec) and one of alignment later, at least that much
        # less; with prec bits enough for the largest they are those
        # integers.  Folded at r0 = 3/4 and at a 30-bit r0 they bracket
        # 2 w_k r0**k alike.
        for m in range(n // 2 + 1):
            want = [2 * math.comb(n + 3, k) * math.comb(m - k + 2, 2) for k in range(m + 1)]
            for prec in (60, 120, 400):
                for r0, point in ((1, 0), (3, 2), (0x2AAAAAAB, 31)):
                    weights, sigma = triangle._core_weights(n, m, r0, point, prec)
                    got = [w * Fraction(2) ** sigma for w in reversed(weights)]
                    folded = [w * Fraction(r0, 1 << point) ** k for k, w in enumerate(want)]
                    delta = Fraction(2, 1 << prec)
                    assert all(w * (1 - delta) ** k - Fraction(2) ** sigma < g <= w
                               for k, (g, w) in enumerate(zip(got, folded))), (n, m, prec)
                    if r0 == 1 and max(want) < 1 << prec:
                        assert got == want, (n, m, prec)

    def test_builds_no_decimal_context(self, monkeypatch):
        # The bounds, the certified signs and the refinement run in
        # integers: with decimal.Context unusable, refined and certified
        # solves give the same Estimates, and triangle does not import
        # decimal at all.
        cases = [(120, 100, 1e-30), (120, 20, 5e-324), (801, 3, 1e-30), (800, 533, 1e-12)]
        want = [solve_iterative_bayes(BinomialObs(n, x), tol) for n, x, tol in cases]

        def unusable(*args, **kwargs):
            raise AssertionError("decimal.Context built")

        monkeypatch.setattr(decimal, "Context", unusable)
        assert [solve_iterative_bayes(BinomialObs(n, x), tol) for n, x, tol in cases] == want
        assert "decimal" not in vars(triangle)

    def test_error_bound_walks_the_operations(self):
        # E of _ulps, rebuilt by walking the operations of _core_weights
        # and _bounds, for every n <= 10,000 at m = 0, 1, 2, n/2 - 1 and
        # n/2 and for every m <= 5,000 at n = 2m, 2m + 1, 9,999 and 10,000.
        # Relative floors are counted with multiplicity in units of 2**-P
        # (a floor to a mantissa of P bits or more is under 2 of them), by
        # the max-plus form over the terms; absolute floors in units of the
        # sum's last place, each grown by rho^i < 8 at most.
        def core_counts(m):
            relative = 2 * m  # 2 w_m: m recurrence floors
            absolute = 1  # its alignment
            for k in range(m - 1, -1, -1):
                relative = max(relative + 1, 2 * k)  # a use of rho', and 2 w_k
                absolute += 2  # the Horner floor and 2 w_k's alignment
            return relative, absolute

        cores = [core_counts(m) for m in range(201)]
        assert cores == [(3 * m, 2 * m + 1) for m in range(201)]
        cores += [(3 * m, 2 * m + 1) for m in range(201, 5001)]

        def power(n):
            a = 1  # floored once to P bits
            p = a
            for bit in bin(n + 2)[3:]:
                p = 2 * p + 1  # a square, renormalized
                if bit == "1":
                    p = p + a + 1  # a product by a, renormalized
            return p

        def walked(n, m, total, prec):
            relative, absolute = cores[m]
            # The true weights' sum, from the recurrence's m relative floors
            # (1/(1 - m delta) <= 1 + 2 m delta) and the alignments.
            most = total + m + 1
            most += -(-2 * (2 * m) * most >> prec)
            horner = 8 * (-(-relative * most >> prec) + absolute)
            limit = 2 * power(n) + 1  # the power's mantissa, in its last place
            return horner - (-limit * (8 * most + horner) >> prec) + 1

        powers = {n: power(n) for n in range(10_001)}
        assert all(powers[n] == 2 * (n + 2) - 1 for n in range(10_001))
        pairs = {(n, m) for n in range(1, 10_001) for m in {0, 1, 2, n // 2 - 1, n // 2} if m >= 0}
        pairs |= {(n, m) for m in range(5001) for n in (2 * m, 2 * m + 1, 9999, 10_000)
                  if 0 < n <= 10_000 and m <= n // 2}
        for n, m in sorted(pairs):
            prec = 150 + 2 * (n + 3).bit_length()
            for total in (1 << prec - 1, (m + 1) << prec + 1):
                assert walked(n, m, total, prec) == triangle._ulps(n, m, total, prec), (n, m)

    @pytest.mark.parametrize("n", [10, 290, 1001])
    def test_the_width_is_e_and_the_linear_terms_rounding(self, n):
        # On the fine grid, v = (n+3) 2**k, the linear term is exact in the
        # bounds' units and the bounds are E apart; at u/v with v prime to
        # n + 3 it is floored in lo and ceiled in hi, one unit more.
        tol = 1e-30
        v = _fine_grid(n, tol)
        for x in (n - 1, n - n // 3):
            bounds, _ = solve_bounds(n, x, v.bit_length() + 2)
            root = solve_iterative_bayes(BinomialObs(n, x), tol).value_exact
            lo, hi, _ = bounds(root.numerator * (v // root.denominator), v)
            width = hi - lo
            prime = 4 * v + 1 if (4 * v + 1) % (n + 3) else 4 * v + 3
            u = root.numerator * prime // root.denominator
            lo, hi, shift = bounds(u, prime)
            assert ((n - x + 1) * ((x + 1) * prime - (n + 3) * u) << shift) % prime
            assert hi - lo == width + 1, (n, x)

    def test_the_bounds_hold_past_the_power(self):
        # With m = 0 or 1 nearly every floor of T is the power's, 2n + 3 of
        # them: the bounds still hold J next to the root, at both ends of
        # the solver bracket and at both ends of x's range.
        tol = 1e-30
        for n in (500, 1001):
            v = _fine_grid(n, tol)
            for x in (0, 1, n - 1, n):
                value = triangle._estimating_value(BinomialObs(n, x))
                bounds, _ = solve_bounds(n, x, v.bit_length())
                centre = solve_iterative_bayes(BinomialObs(n, x), tol).value_exact
                u = centre.numerator * (v // centre.denominator)
                for point in (u - 1, u + 1, (x + 1) * v // (n + 3) + 1, (x + 2) * v // (n + 3) - 1):
                    short = point if 2 * x >= n else v - point
                    lo, hi, shift = bounds(short, v)
                    # J of the short side at short/v, times v**(n+2) short.
                    exact_value = value(point, v) * (point if 2 * x >= n else -point)
                    assert lo * v ** (n + 2) * short <= exact_value << shift, (n, x, point)
                    assert exact_value << shift <= hi * v ** (n + 2) * short, (n, x, point)

    @pytest.mark.parametrize("n", [300, 801])
    def test_both_sides_of_half_mirror(self, n):
        # Below n/2 the certified signs are those of (n, n - x) at 1 - a,
        # negated, and the residual that one's times (1 - a)/a: J's own.
        tol = 1e-30
        v = _fine_grid(n, tol)
        for x in (1, n // 3, (n - 1) // 2):
            value = triangle._estimating_value(BinomialObs(n, x))
            _, certify = solve_bounds(n, x, v.bit_length())
            for u in ((x + 1) * v // (n + 3) + 1, (2 * x + 3) * v // (2 * (n + 3)),
                      (x + 2) * v // (n + 3) - 1):
                fu = value(u, v)
                assert certify(u, v) == ((fu > 0) - (fu < 0), abs(fu) / v ** (n + 2)), (x, u)

    def test_a_point_far_from_the_hint_is_refused(self):
        # rho = r/r0 above 1 + 2/m leaves the a-priori bound: such a point
        # is refused, and certify leaves it to exact evaluation.
        n, x = 600, 500
        v = _fine_grid(n, 1e-30)
        bounds, certify = solve_bounds(n, x, v.bit_length())
        far = (x + 1) * v // (n + 6)  # r about (m+5)/(x+1), far below the bracket
        assert bounds(far, v) is None and certify(far, v) is None


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
        lambda tol: dense_bisect_root((-1, 1, 1), 0, 1, tol=tol),
        lambda tol: conjugate_iterative_limit(
            ConjugateModel(ConjugateFamily.POISSON, alpha=1.0, beta=1.0), SampleStats(n=3, sum_x=4), tol=tol),
    ], ids=["solve", "geometric", "geometric-x0", "negative-binomial", "bisect_root", "conjugate"])
    def test_bad_tol_rejected(self, solve, tol):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            solve(tol)

    def test_a_certified_solve_builds_no_polynomial(self, monkeypatch):
        # Both probes of (800, 533) at 1e-30 are certified: the solve gives
        # the Estimate of exact evaluation without building J.
        obs, tol = BinomialObs(800, 533), 1e-30
        monkeypatch.setattr(triangle, "_certify_bits", lambda *args: 0)
        want = solve_iterative_bayes(obs, tol)
        monkeypatch.undo()

        def unreachable(obs):
            raise AssertionError("estimating polynomial built by a certified solve")

        monkeypatch.setattr(triangle, "estimating_polynomial", unreachable)
        assert solve_iterative_bayes(obs, tol) == want

    def test_tol_checked_before_polynomial_built(self, monkeypatch):
        def unreachable(obs):
            raise AssertionError("estimating polynomial built before the tol check")

        monkeypatch.setattr(triangle, "estimating_polynomial", unreachable)
        with pytest.raises(ValueError) as info:
            solve_iterative_bayes(BinomialObs(3000, 1000), tol=float("nan"))
        assert str(info.value) == "BinomialObs(n=3000, x=1000): tol must be positive and finite, got nan"

    def test_bracket_failure_translated(self, monkeypatch):
        # An evaluator of the constant 1 has no sign change over (2/5, 1/2);
        # the failure names the observation.
        monkeypatch.setattr(triangle, "_estimating_value", lambda obs: lambda u, v: v ** (obs.n + 2))
        with pytest.raises(BracketFailure) as info:
            solve_iterative_bayes(BinomialObs(7, 3))
        assert str(info.value) == (
            "no sign change over 2/5..1/2 for BinomialObs(n=7, x=3): "
            "bisect_root: no strict sign change over (2/5, 1/2): signs (1, 1)")

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

    def test_steps_round_the_exact_mean_up_to_n40(self):
        # The map written on posterior_mean_exact, each step rounded once:
        # fixed_point_iterate must return every field of its result.
        for n in range(1, 41):
            for x in range(n + 1):
                obs = BinomialObs(n, x)
                mode, steps, delta = 0.5, 0, math.inf
                while delta >= triangle.FIXED_POINT_TOL:
                    steps += 1
                    new = float(posterior_mean_exact(mode, obs))
                    delta, mode = abs(new - mode), new
                want = Estimate(mode, METHOD_FIXED_POINT, steps, delta)
                assert fixed_point_iterate(obs) == want, (n, x)


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
        # x = 0 is solved like every other x: J(1, 0) / 2, so its residual
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
                _, coeffs = factorization_sides(obs)
                lo, hi = solver_bracket(obs)
                via_identity = dense_bisect_root(coeffs, lo, hi, tol=Fraction(1, 10**12))
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

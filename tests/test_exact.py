from fractions import Fraction
from functools import lru_cache

import pytest

import iterbayes.exact as exact
from iterbayes.exact import (
    MAX_ITER,
    ExactPoly,
    RootBracket,
    binomial,
    bisect_root,
    eval_rational,
    sign_at,
)
from iterbayes.triangle import (
    estimating_polynomial,
    geometric_polynomial,
    solve_iterative_bayes,
    solver_bracket,
)
from iterbayes.types import BinomialObs

from helpers import reference_bisect_root


class TestBinomial:
    @pytest.mark.parametrize(
        "m, k, want",
        [(5, 2, 10), (3, 2, 3), (7, 9, 0), (7, -1, 0), (0, 0, 1), (60, 30, 118264581564861424)],
    )
    def test_values(self, m, k, want):
        assert binomial(m, k) == want

    def test_negative_m_rejected(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)

    def test_pascal_recurrence(self):
        # independent oracle for the whole triangle used by the solvers
        for m in range(1, 60):
            for k in range(m + 1):
                assert binomial(m, k) == binomial(m - 1, k - 1) + binomial(m - 1, k)


class TestExactPoly:
    def test_normalization_strips_trailing_zeros(self):
        assert ExactPoly([1, 2, 0, 0]).coeffs == (Fraction(1), Fraction(2))
        assert ExactPoly([0, 0]).coeffs == ()
        assert ExactPoly().degree == -1
        assert not ExactPoly([0])
        assert ExactPoly([3]).degree == 0

    def test_arithmetic(self):
        p = ExactPoly([1, 2])        # 1 + 2t
        q = ExactPoly([0, 1, 1])     # t + t^2
        assert (p + q).coeffs == (1, 3, 1)
        assert (p - q).coeffs == (1, 1, -1)
        assert (p * q).coeffs == (0, 1, 3, 2)
        assert (3 * p).coeffs == (3, 6)
        assert (p**3) == p * p * p
        assert (p**0) == ExactPoly([1])

    def test_cancellation_drops_degree(self):
        p = ExactPoly([0, 0, 1])
        assert (p - p).degree == -1
        assert (p + (-p)) == ExactPoly()

    def test_eval_is_horner_exact(self):
        p = ExactPoly([Fraction(1, 3), -2, Fraction(5, 7)])
        a = Fraction(9, 11)
        assert p(a) == Fraction(1, 3) - 2 * a + Fraction(5, 7) * a * a

    def test_compose(self):
        p = ExactPoly([1, 0, 1])          # 1 + t^2
        inner = ExactPoly([1, -1])        # 1 - t
        composed = p.compose(inner)
        assert composed.coeffs == (2, -2, 1)
        for a in (Fraction(1, 3), Fraction(2, 5)):
            assert composed(a) == p(1 - a)

    def test_derivative_antiderivative_roundtrip(self):
        p = ExactPoly([Fraction(3, 2), 0, -5, Fraction(1, 4)])
        anti = p.antiderivative()
        assert anti.coeffs == (0, Fraction(3, 2), 0, Fraction(-5, 3), Fraction(1, 16))
        assert ExactPoly([i * c for i, c in enumerate(anti.coeffs)][1:]) == p


class TestSignAndEval:
    def test_sign_matches_exact_value(self):
        coeffs = (2, -4, 0, 2)  # positive at 1/2, zero at 1, negative at 3/4
        assert sign_at(coeffs, Fraction(1, 2)) == 1
        assert sign_at(coeffs, Fraction(3, 4)) == -1
        assert sign_at(coeffs, 1) == 0

    def test_eval_rational_matches_poly(self):
        coeffs = (3, 0, -7, 5)
        poly = ExactPoly(coeffs)
        for a in (Fraction(2, 7), Fraction(-3, 5), 2):
            assert eval_rational(coeffs, a) == poly(Fraction(a))

    def test_empty(self):
        assert sign_at((), Fraction(1, 2)) == 0
        assert eval_rational((), Fraction(1, 2)) == 0


class TestBisectRoot:
    def test_golden_section_root(self):
        # a^2 + a - 1: unique root (sqrt(5)-1)/2 in (0, 1)
        result = bisect_root((-1, 1, 1), 0, 1, tol=Fraction(1, 10**15))
        assert isinstance(result, RootBracket)
        golden = Fraction(6180339887498948, 10**16)
        assert abs(result.value - golden) < Fraction(1, 10**12)
        assert result.lo < result.value < result.hi
        assert result.hi - result.lo < Fraction(1, 10**15)
        assert sign_at((-1, 1, 1), result.lo) == -sign_at((-1, 1, 1), result.hi)

    def test_exact_root_detected(self):
        # 2a - 1 hits the first midpoint of (0, 1) exactly
        result = bisect_root((-1, 2), 0, 1)
        assert result.value == Fraction(1, 2)
        assert result.residual == 0

    def test_orientation_agnostic(self):
        # falling and rising sign changes both bisect to the same root
        falling = bisect_root((1, -1, -1), 0, 1, tol=Fraction(1, 10**12))
        rising = bisect_root((-1, 1, 1), 0, 1, tol=Fraction(1, 10**12))
        assert falling.value == rising.value

    def test_no_sign_change_rejected(self):
        with pytest.raises(ValueError, match="sign change"):
            bisect_root((1, 0, 1), 0, 1)

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError):
            bisect_root((-1, 1, 1), 1, 0)
        with pytest.raises(ValueError):
            bisect_root((-1, 1, 1), 0, 1, tol=0)


# Tolerances the refinement is held to bisection at: decimal, binary-unfriendly
# and far below double precision.
TOLS = [Fraction(1, 10**6), 1e-12, Fraction(1, 10**15), 1e-30, Fraction(1, 3**50)]
TOL_IDS = ["1e-6", "1e-12", "1e-15", "1e-30", "3^-50"]


@lru_cache(maxsize=None)
def _solver_case(n, x):
    obs = BinomialObs(n, x)
    return (estimating_polynomial(obs).int_coeffs, *solver_bracket(obs))


def _geometric_case(x):
    return (geometric_polynomial(x), *solver_bracket(BinomialObs(x + 1, x)))


GENERIC_CASES = [
    ((-1, 1, 1), 0, 1),                       # a^2 + a - 1, rising
    ((1, -1, -1), 0, 1),                      # the same root, falling
    ((-1, 2), 0, 1),                          # exact root at the first midpoint
    ((-3, 8), 0, 1),                          # exact root 3/8, met at step 3
    ((-5, 16), 0, 1),                         # exact root 5/16
    ((7, -3), Fraction(-2, 3), 5),            # root 7/3, ends of unlike denominators
    ((-1,) + (0,) * 29 + (1000,), 0, 1),      # steep: the secant misses at first
    ((1,) + (0,) * 11 + (-4096,), 0, 1),      # root 1/2 of a degree-12 power
] + [_geometric_case(x) for x in (1, 2, 3, 7, 15)]


class TestBisectRootEqualsBisection:
    """bisect_root returns, field for field, what plain bisection returns."""

    @pytest.mark.parametrize("tol", TOLS, ids=TOL_IDS)
    def test_every_estimating_polynomial_up_to_n40(self, tol):
        for n in range(1, 41):
            for x in range(n + 1):
                coeffs, lo, hi = _solver_case(n, x)
                assert bisect_root(coeffs, lo, hi, tol) == reference_bisect_root(coeffs, lo, hi, tol), (n, x)

    @pytest.mark.parametrize("tol", TOLS + [Fraction(1, 4), Fraction(1, 8), 0.3, 2],
                             ids=TOL_IDS + ["1/4", "1/8", "0.3", "2"])
    @pytest.mark.parametrize("coeffs, lo, hi", GENERIC_CASES)
    def test_generic_polynomials(self, coeffs, lo, hi, tol):
        assert bisect_root(coeffs, lo, hi, tol) == reference_bisect_root(coeffs, lo, hi, tol)

    def test_exact_root_keeps_bisection_bracket_and_count(self):
        # 3/8 is bisection's third midpoint: bracket (1/4, 1/2), 3 steps.
        result = bisect_root((-3, 8), 0, 1)
        assert result == RootBracket(Fraction(3, 8), Fraction(1, 4), Fraction(1, 2), 3, Fraction(0))
        # At tol 1/4 the grid is eighths, and 5/16 is the last cell's midpoint.
        result = bisect_root((-5, 16), 0, 1, tol=Fraction(1, 4))
        assert result == RootBracket(Fraction(5, 16), Fraction(1, 4), Fraction(3, 8), 4, Fraction(0))


def _count_evaluations(monkeypatch):
    calls = [0]
    horner = exact._homogeneous_value

    def counted(coeffs, u, v):
        calls[0] += 1
        return horner(coeffs, u, v)

    monkeypatch.setattr(exact, "_homogeneous_value", counted)
    return calls


class TestEvaluationCount:
    # n <= 20 in full, then every x of seven larger n up to 120.
    CASES = [(n, x) for n in list(range(1, 21)) + [30, 45, 60, 75, 90, 105, 120]
             for x in range(n + 1)]

    @pytest.mark.parametrize("tol", [1e-12, 1e-30], ids=["1e-12", "1e-30"])
    def test_at_most_20_exact_evaluations_per_solve(self, monkeypatch, tol):
        calls = _count_evaluations(monkeypatch)
        worst = 0
        for n, x in self.CASES:
            calls[0] = 0
            solve_iterative_bayes(BinomialObs(n, x), tol=tol)
            worst = max(worst, calls[0])
        assert 0 < worst <= 20

    def test_bisection_needs_many_more(self, monkeypatch):
        # What the guard above is measured against: K + 3 = 99 evaluations
        # for n = 10 at 1e-30 (K = 96 halvings).
        calls = _count_evaluations(monkeypatch)
        coeffs, lo, hi = _solver_case(10, 3)
        reference_bisect_root(coeffs, lo, hi, 1e-30)
        assert calls[0] == 99

    def test_grid_too_deep_raises_before_any_evaluation(self, monkeypatch):
        calls = _count_evaluations(monkeypatch)
        width = Fraction(1, 3)
        for tol in (width / 2 ** (MAX_ITER + 1), width / 2**MAX_ITER):
            with pytest.raises(RuntimeError, match="iteration limit"):
                bisect_root((-1, 1, 1), 0, width, tol)
        assert calls[0] == 0

    def test_deepest_allowed_grid(self):
        # K = MAX_ITER halvings fit the limit, as they did for bisection.
        result = bisect_root((-1, 3), 0, 1, tol=Fraction(1, 2 ** (MAX_ITER - 1)))
        assert result.iterations == MAX_ITER + 1
        assert result.lo < Fraction(1, 3) < result.hi
        assert result.hi - result.lo == Fraction(1, 2**MAX_ITER)

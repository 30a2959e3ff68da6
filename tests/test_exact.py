from fractions import Fraction

import pytest

from iterbayes.exact import (
    ExactPoly,
    RootBracket,
    binomial,
    bisect_root,
    eval_rational,
    sign_at,
)


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

    def test_monomial(self):
        p = ExactPoly.monomial(3, 2)
        assert p.coeffs == (0, 0, 0, 2)
        assert p(Fraction(1, 2)) == Fraction(1, 4)

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
        assert p.antiderivative().derivative() == p
        assert p.derivative().coeffs == (0, -10, Fraction(3, 4))


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
        assert result.exact
        assert result.value == Fraction(1, 2)
        assert result.residual == 0

    def test_max_residual_refines(self):
        coeffs = (-1, 1, 1)
        loose = bisect_root(coeffs, 0, 1, tol=Fraction(1, 10**6))
        tight = bisect_root(coeffs, 0, 1, tol=Fraction(1, 10**6),
                            max_residual=Fraction(1, 10**12))
        assert tight.residual <= Fraction(1, 10**12) < loose.residual
        assert tight.iterations > loose.iterations

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

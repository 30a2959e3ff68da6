import math
from fractions import Fraction

import pytest

import iterbayes.risk as risk
from iterbayes.risk import (
    ITERATIVE_BAYES_TRIANGLE,
    JEFFREYS_BAYES,
    MLE,
    UNIFORM_BAYES,
    EstimatorSpec,
    compare,
    estimates_by_x,
    monte_carlo_mse,
    risk_at,
    standard_estimators,
)
from iterbayes.triangle import solve_iterative_bayes
from iterbayes.types import BinomialObs


ESTIMATOR_TAGS = (MLE, UNIFORM_BAYES, JEFFREYS_BAYES, ITERATIVE_BAYES_TRIANGLE)


def _spec(tag):
    return next(s for s in standard_estimators() if s.tag == tag)


class TestRiskAt:
    def test_mle_single_trial(self):
        # (0 - 1/2)^2 * 1/2 + (1 - 1/2)^2 * 1/2 = 1/4
        assert risk_at(Fraction(1, 2), (Fraction(0), Fraction(1))) == Fraction(1, 4)

    def test_uniform_bayes_single_trial(self):
        # estimates 1/3 and 2/3, each off by 1/6
        assert risk_at(Fraction(1, 2), (Fraction(1, 3), Fraction(2, 3))) == Fraction(1, 36)

    def test_triangle_single_trial(self):
        v = solve_iterative_bayes(BinomialObs(1, 1), tol=1e-13).value
        got = risk_at(0.5, (1 - v, v))
        assert got == pytest.approx((v - 0.5) ** 2, abs=1e-15)
        assert got == pytest.approx(0.0139, abs=1e-4)

    def test_exact_and_float_paths_agree(self):
        for tag in ESTIMATOR_TAGS:
            values = estimates_by_x(_spec(tag), 3)
            exact = risk_at(Fraction(37, 100), tuple(Fraction(v) for v in values))
            floats = risk_at(0.37, values)
            assert floats == pytest.approx(float(exact), abs=1e-12)

    def test_mle_risk_vanishes_at_endpoints(self):
        values = estimates_by_x(_spec(MLE), 4)
        assert risk_at(0.0, values) == 0.0
        assert risk_at(1.0, values) == 0.0


class TestEstimates:
    def test_all_estimators_in_unit_interval(self):
        for spec in standard_estimators():
            for n in (1, 5, 9):
                values = estimates_by_x(spec, n)
                assert all(0 <= v <= 1 for v in values)

    def test_symmetry_of_all_estimators(self):
        for spec in standard_estimators():
            for n in (1, 4, 7):
                values = estimates_by_x(spec, n)
                for x in range(n + 1):
                    assert values[x] == pytest.approx(1 - values[n - x], abs=1e-10)

    def test_out_of_range_estimator_rejected(self):
        bad = EstimatorSpec("Bad", lambda obs: 1.5)
        with pytest.raises(ValueError):
            estimates_by_x(bad, 2)

    def test_triangle_close_to_uniform_bayes(self):
        # both live in adjacent subintervals of width <= 1/(n+2)
        triangle = _spec(ITERATIVE_BAYES_TRIANGLE)
        uniform = _spec(UNIFORM_BAYES)
        for n in range(1, 11):
            tri = estimates_by_x(triangle, n)
            uni = estimates_by_x(uniform, n)
            assert all(abs(t - u) < 1 / (n + 2) for t, u in zip(tri, uni))


class TestTables:
    def test_compare_shape(self):
        table = compare(1, 3)
        assert table.p_grid == (0.0, 0.5, 1.0)
        assert set(table.columns) == set(ESTIMATOR_TAGS)
        rows = list(table.rows())
        assert len(rows) == 3 and all(len(r) == 5 for r in rows)

    def test_risk_curves_symmetric_about_half(self):
        table = compare(4, 11)
        for tag in ESTIMATOR_TAGS:
            col = table.columns[tag]
            for i in range(11):
                assert col[i] == pytest.approx(col[10 - i], abs=1e-12)

    def test_triangle_beats_mle_at_half(self):
        table = compare(1, 3)
        assert table.columns[ITERATIVE_BAYES_TRIANGLE][1] < table.columns[MLE][1]

    def test_jeffreys_at_half_single_trial(self):
        # estimates 1/4 and 3/4, each off by 1/4
        table = compare(1, 3)
        assert table.columns[JEFFREYS_BAYES][1] == pytest.approx(1 / 16)

    def test_validation(self):
        with pytest.raises(ValueError):
            compare(0, 3)
        with pytest.raises(ValueError):
            compare(2, 1)

    def test_n_above_float_binomials_rejected_before_solving(self, monkeypatch):
        # C(1030, 515) exceeds the largest float; C(1029, 514) does not.
        def no_solve(n, x):
            raise AssertionError("compare solved an estimate")

        monkeypatch.setattr(risk, "_triangle_value", no_solve)
        with pytest.raises(ValueError, match="1029"):
            compare(1030, 2)
        with pytest.raises(AssertionError, match="solved"):
            compare(1029, 2)
        with pytest.raises(ValueError, match="1029"):
            compare(10**8, 2)

    def test_limit_is_where_the_central_binomial_leaves_float(self):
        float(math.comb(1029, 514))
        with pytest.raises(OverflowError):
            float(math.comb(1030, 515))


class TestMonteCarlo:
    def test_agrees_with_exact_within_three_standard_errors(self):
        for tag in (MLE, ITERATIVE_BAYES_TRIANGLE):
            spec = _spec(tag)
            exact = float(risk_at(0.3, estimates_by_x(spec, 2)))
            mean, se = monte_carlo_mse(spec, 2, 0.3, samples=20000, seed=42)
            assert abs(mean - exact) <= 3 * se + 1e-12

    def test_seeded_determinism(self):
        spec = _spec(MLE)
        a = monte_carlo_mse(spec, 3, 0.6, samples=500, seed=7)
        b = monte_carlo_mse(spec, 3, 0.6, samples=500, seed=7)
        assert a == b

    def test_sample_count_validated(self):
        with pytest.raises(ValueError):
            monte_carlo_mse(_spec(MLE), 2, 0.5, samples=1, seed=1)


class TestTriangleValueCache:
    def test_bounded_and_evicting(self):
        cached = risk._triangle_value
        maxsize = cached.cache_info().maxsize
        assert maxsize is not None and maxsize >= 1024
        # Every (n, x) with n <= 45 is 1,080 keys, more than the bound.
        for n in range(1, 46):
            for x in range(n + 1):
                cached(n, x)
                assert cached.cache_info().currsize <= maxsize
        assert cached.cache_info().currsize == maxsize

    def test_mirrored_values_equal_direct_solves(self):
        # Only x <= n/2 is solved; the rest is reflected from the exact
        # mirror value, and must be the float a direct solve gives.
        for n in range(1, 61):
            for x in range(n + 1):
                direct = solve_iterative_bayes(BinomialObs(n, x), tol=1e-13).value
                assert risk._triangle_value.__wrapped__(n, x) == direct, (n, x)

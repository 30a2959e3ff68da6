import decimal
import math
import random
import re
from fractions import Fraction
from functools import lru_cache

import pytest

import iterbayes.exact as exact
import iterbayes.triangle as triangle
from iterbayes.exact import (
    MAX_ITER,
    ExactPoly,
    eval_rational,
    sign_at,
)
from iterbayes.triangle import (
    estimating_polynomial,
    geometric_estimate,
    negative_binomial_estimate,
    solve_iterative_bayes,
    solver_bracket,
)
from iterbayes.types import METHOD_BISECTION, BinomialObs, BracketFailure, Estimate

from helpers import (
    dense_bisect_root,
    geometric_polynomial,
    reference_bisect_root,
    reference_homogeneous_value,
)


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


class TestHomogeneousValue:
    """The balanced split above 64 coefficients equals one Horner loop."""

    # Above the split, v's power of two is applied by shifts: v = 0, a pure
    # power of two, odd * 2**k up to k = 200, and negative even v.
    @pytest.mark.parametrize("length", [1, 2, 31, 32, 33, 63, 64, 65, 66, 97, 128, 129, 400])
    @pytest.mark.parametrize("u, v", [(-(3**40), 7**30), (0, 5), (5**45, 1), (2**61 - 1, 2**61),
                                      (3**40 + 2, 0), (-(5**33), 2**90), (2**50, 803 * 2**45),
                                      (3**40 + 2, 3**70 * 2**105), (-(5**33), -(7**20) * 2**200),
                                      (2**50, -6)])
    def test_equals_horner(self, length, u, v):
        rng = random.Random(length)
        coeffs = [rng.randint(-(2**90), 2**90) for _ in range(length)]
        for point in ((u, v), (u, v - u)):
            assert exact._homogeneous_value(coeffs, *point) == reference_homogeneous_value(coeffs, *point)

    def test_estimating_polynomial_at_a_solver_point(self):
        coeffs = estimating_polynomial(BinomialObs(500, 166)).int_coeffs
        u, v = 3 * 2**100 + 1, 2**102
        assert exact._homogeneous_value(coeffs, u, v) == reference_homogeneous_value(coeffs, u, v)

    # The solver's short cores, of 1,000- and 5,000-bit coefficients, at grid
    # points v = (n+3) * 2**k: the leaves multiply by the odd part n + 3.
    @pytest.mark.parametrize("n, x", [(800, 533), (4000, 2667)])
    @pytest.mark.parametrize("k", [41, 100])
    def test_short_core_at_solver_grid_points(self, n, x, k):
        core = estimating_polynomial(BinomialObs(n, x)).int_coeffs[x + 2:]
        v = (n + 3) << k
        for u in (((x + 1) << k) + 1, ((x + 1) << k) + (1 << (k - 1)), ((x + 2) << k) - 1):
            assert exact._homogeneous_value(core, u, v) == reference_homogeneous_value(core, u, v), u


class TestBisectRoot:
    def test_golden_section_root(self):
        # a^2 + a - 1: unique root (sqrt(5)-1)/2 in (0, 1)
        result = dense_bisect_root((-1, 1, 1), 0, 1, tol=Fraction(1, 10**15))
        assert isinstance(result, Estimate) and result.method == METHOD_BISECTION
        golden = Fraction(6180339887498948, 10**16)
        assert abs(result.value_exact - golden) < Fraction(1, 10**12)
        lo, hi = result.bracket
        assert lo < result.value_exact < hi
        assert hi - lo < Fraction(1, 10**15)
        assert sign_at((-1, 1, 1), lo) == -sign_at((-1, 1, 1), hi)

    def test_exact_root_detected(self):
        # 2a - 1 hits the first midpoint of (0, 1) exactly
        result = dense_bisect_root((-1, 2), 0, 1)
        assert result.value_exact == Fraction(1, 2)
        assert result.residual == 0

    def test_orientation_agnostic(self):
        # falling and rising sign changes both bisect to the same root; the
        # rising one reaches bisect_root negated
        falling = dense_bisect_root((1, -1, -1), 0, 1, tol=Fraction(1, 10**12))
        rising = dense_bisect_root((-1, 1, 1), 0, 1, tol=Fraction(1, 10**12))
        assert falling.value == rising.value

    # Rejections, message for message: ends and tol print as exact
    # Fractions, whatever type they were given as.
    @staticmethod
    def message(coeffs, lo, hi, tol=1e-12):
        with pytest.raises(ValueError) as info:
            dense_bisect_root(coeffs, lo, hi, tol)
        return str(info.value)

    @pytest.mark.parametrize("coeffs, lo, hi, shown", [
        ((1, 0, 1), 0, 1, "(0, 1): signs (1, 1)"),
        ((1, 0, 1), 0.0, 1.0, "(0, 1): signs (1, 1)"),
        ((-1, 2), Fraction(1, 2), 1, "(1/2, 1): signs (0, 1)"),
        ((-1, 1, 1), Fraction(-2, 6), 0.5, "(-1/3, 1/2): signs (-1, -1)"),
    ])
    def test_no_sign_change_rejected(self, coeffs, lo, hi, shown):
        assert self.message(coeffs, lo, hi) == f"bisect_root: no strict sign change over {shown}"

    @pytest.mark.parametrize("lo, hi, shown", [
        (1, 0, "1 >= 0"),
        (0.5, 0.25, "1/2 >= 1/4"),
        (Fraction(1, 2), Fraction(1, 3), "1/2 >= 1/3"),
        (Fraction(2, 3), Fraction(2, 3), "2/3 >= 2/3"),
        (1.0, Fraction(1, 3), "1 >= 1/3"),
    ])
    def test_bad_interval_rejected(self, lo, hi, shown):
        assert self.message((-1, 1, 1), lo, hi) == f"bisect_root: need lo < hi, got {shown}"

    @pytest.mark.parametrize("tol, shown", [
        (0, "0"), (math.nan, "nan"), (math.inf, "inf"), (-1e-12, "-1e-12"), (Fraction(-1, 3), "-1/3"),
    ])
    def test_bad_tol_rejected(self, tol, shown):
        assert (self.message((-1, 1, 1), 0, 1, tol)
                == f"bisect_root: tol must be positive and finite, got {shown}")

    def test_hint_needs_its_error(self):
        # An estimate of the root comes with the bound on its error.
        with pytest.raises(TypeError, match="bisect_root: near needs near_error"):
            exact.bisect_root(lambda u, v: 2 * u - v, 1, 0, 1, near=0.5)


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
        # The solver, which evaluates the short core (mirrored below
        # x = n/2), must return the same as the dense polynomial.
        for n in range(1, 41):
            for x in range(n + 1):
                want = reference_bisect_root(*_solver_case(n, x), tol)
                assert dense_bisect_root(*_solver_case(n, x), tol) == want, (n, x)
                assert solve_iterative_bayes(BinomialObs(n, x), tol) == want, (n, x)

    @pytest.mark.parametrize("tol", TOLS + [Fraction(1, 4), Fraction(1, 8), 0.3, 2],
                             ids=TOL_IDS + ["1/4", "1/8", "0.3", "2"])
    @pytest.mark.parametrize("coeffs, lo, hi", GENERIC_CASES)
    def test_generic_polynomials(self, coeffs, lo, hi, tol):
        assert dense_bisect_root(coeffs, lo, hi, tol) == reference_bisect_root(coeffs, lo, hi, tol)

    def test_exact_root_keeps_bisection_bracket_and_count(self):
        # 3/8 is bisection's third midpoint: bracket (1/4, 1/2), 3 steps.
        result = dense_bisect_root((-3, 8), 0, 1)
        assert result == Estimate(0.375, METHOD_BISECTION, 3, 0.0,
                                  (Fraction(1, 4), Fraction(1, 2)), Fraction(3, 8))
        # At tol 1/4 the grid is eighths, and 5/16 is the last cell's midpoint.
        result = dense_bisect_root((-5, 16), 0, 1, tol=Fraction(1, 4))
        assert result == Estimate(0.3125, METHOD_BISECTION, 4, 0.0,
                                  (Fraction(1, 4), Fraction(3, 8)), Fraction(5, 16))

    def test_subnormal_residuals_round_as_the_reduced_fraction(self):
        # Every n <= 4 at the smallest tol: 9 of the 14 residuals are
        # subnormal, where a rounding slip would show first.
        for n in range(1, 5):
            for x in range(n + 1):
                want = reference_bisect_root(*_solver_case(n, x), 5e-324)
                assert dense_bisect_root(*_solver_case(n, x), 5e-324) == want, (n, x)
                assert solve_iterative_bayes(BinomialObs(n, x), 5e-324) == want, (n, x)
                if x < n:
                    assert negative_binomial_estimate(n - x, x, 5e-324) == want, (n, x)
            assert geometric_estimate(n - 1, 5e-324) == reference_bisect_root(*_geometric_case(n - 1), 5e-324)

    @pytest.mark.parametrize("tol", [1e-12, 1e-30], ids=["1e-12", "1e-30"])
    def test_any_certified_sign_gives_the_same_estimate(self, tol):
        # A ``certify`` that decides every probe by the exact value (an
        # oracle), one that decides none, and one that decides only
        # probes off the root's cell change no field, from the solver's
        # hint, from a poor one (whose secants then evaluate certified
        # points exactly) and without one.
        for n, x in [(1, 0), (7, 3), (20, 10), (40, 13), (90, 80)]:
            obs = BinomialObs(n, x)
            value = triangle._estimating_value(obs)
            lo, hi = solver_bracket(obs)
            want = solve_iterative_bayes(obs, tol)
            c0, c1 = want.bracket

            def oracle(u, v):
                fu = value(u, v)
                return ((fu > 0) - (fu < 0), abs(fu) / v ** (n + 2)) if fu else None

            def outside(u, v):
                return oracle(u, v) if not c0 <= Fraction(u, v) <= c1 else None

            hint = triangle._float_hint(n, x)[0]
            for certify in (oracle, lambda u, v: None, outside):
                for near in (hint, hint + 2**-30, None):
                    got = exact.bisect_root(value, n + 2, lo, hi, tol, near=near,
                                            near_error=None if near is None else triangle.HINT_ERROR,
                                            certify=certify)
                    assert got == want, (n, x, near)

    def test_residual_needs_no_fraction(self, monkeypatch):
        def no_fraction(*args):
            raise AssertionError("eval_rational called")

        monkeypatch.setattr(exact, "eval_rational", no_fraction)
        est = solve_iterative_bayes(BinomialObs(40, 13))
        assert 0 < est.residual < 1e-9


class TestSolversEqualBisection:
    """The solvers evaluate the short core of the estimating polynomial,
    mirrored below x = n/2; they must return, field for field, what plain
    bisection of the dense polynomial returns (n <= 40 and the smallest tol
    are held above)."""

    @pytest.mark.parametrize("tol", [1e-12, 1e-30], ids=["1e-12", "1e-30"])
    @pytest.mark.parametrize("n", [200, 401, 800])
    def test_mirror_pairs_at_large_n(self, n, tol):
        for x in (n // 9, (n - 1) // 2):
            for side in (x, n - x):
                want = reference_bisect_root(*_solver_case(n, side), tol)
                assert solve_iterative_bayes(BinomialObs(n, side), tol) == want, side

    @pytest.mark.parametrize("tol", [1e-12, 1e-30], ids=["1e-12", "1e-30"])
    def test_geometric_below_150(self, tol):
        for x in range(150):
            assert geometric_estimate(x, tol) == reference_bisect_root(*_geometric_case(x), tol), x

    def test_negative_binomial(self):
        for r in (1, 2, 5):
            for x in range(30):
                want = reference_bisect_root(*_solver_case(x + r, x), 1e-12)
                assert negative_binomial_estimate(r, x, 1e-12) == want, (r, x)


def _count_evaluations(monkeypatch):
    """Count _homogeneous_value calls made through either module's name for
    it: ``exact``'s (the dense adapter, the reference) and ``triangle``'s
    (the solvers' evaluator of the short core)."""
    calls = [0]
    horner = exact._homogeneous_value

    def counted(coeffs, u, v):
        calls[0] += 1
        return horner(coeffs, u, v)

    monkeypatch.setattr(exact, "_homogeneous_value", counted)
    monkeypatch.setattr(triangle, "_homogeneous_value", counted)
    return calls


def _count_probes(monkeypatch):
    """Count the calls of every certified sign evaluator that
    ``triangle._enclosure`` builds: the probes a solve asks it first."""
    calls = [0]
    enclosure = triangle._enclosure

    def counted_enclosure(*args):
        certify = enclosure(*args)

        def counted(u, v):
            calls[0] += 1
            return certify(u, v)
        return counted

    monkeypatch.setattr(triangle, "_enclosure", counted_enclosure)
    return calls


def _certified(n, x, tol):
    """True where a solve of (n, x) at ``tol`` decides its probes by the
    enclosure."""
    ratio = tol.as_integer_ratio()
    return triangle._certify_bits(n, x, ratio, triangle._hint_bits(n, x, ratio)) > 0


class TestEvaluationCount:
    # n <= 20 in full, then every x of seven larger n up to 120.
    CASES = [(n, x) for n in list(range(1, 21)) + [30, 45, 60, 75, 90, 105, 120]
             for x in range(n + 1)]

    # The measured maxima over every n <= 120, residual included: it is read
    # from the refined grid and costs no evaluation of its own.  The solves
    # isolate J's falling sign change, so the bracket ends are evaluated only
    # when a secant or the final cell needs them, and none is here.  With the
    # float hint: one pair per doubling of the bits known, from the hint's
    # level: one pair at 1e-12, three at 1e-30.  Where the solve refines its hint
    # (n * fine >= _REFINE_MIN: n >= 128 at 1e-30, 75 at 1e-50, 37 at 1e-100
    # and 12 at 5e-324 here) one pair on the fine level, and above the
    # enclosure's crossover (_certify_bits) that pair is two certified
    # probes and no exact evaluation: every refined solve here at 1e-50,
    # 1e-100 and 5e-324.  At x = n/2 the first probe meets the
    # root 1/2, and both bracket ends are checked before it is returned: 3
    # at every tol.  At 5e-324, whose solves cost the most, every third case.
    @pytest.mark.parametrize("tol, most, refined, stride",
                             [(1e-12, 2, None, 1), (1e-15, 4, None, 1), (1e-30, 6, None, 1),
                              (1e-50, 8, None, 1), (1e-100, 10, None, 1), (5e-324, 12, None, 3)],
                             ids=["1e-12", "1e-15", "1e-30", "1e-50", "1e-100", "5e-324"])
    def test_exact_evaluations_per_solve(self, monkeypatch, tol, most, refined, stride):
        calls = _count_evaluations(monkeypatch)
        probes = _count_probes(monkeypatch)
        worst = {"float": 0, "refined": 0, "certified": 0, "half": 0}
        for n, x in self.CASES[::stride]:
            calls[0] = probes[0] = 0
            solve_iterative_bayes(BinomialObs(n, x), tol=tol)
            if 2 * x == n:
                kind = "half"
            elif _certified(n, x, tol):
                kind = "certified"
                assert (probes[0], calls[0]) == (2, 0), (n, x)
            else:
                assert probes[0] == 0, (n, x)
                kind = "refined" if triangle._hint_bits(n, x, tol.as_integer_ratio()) else "float"
            worst[kind] = max(worst[kind], calls[0])
        assert 0 < worst["float"] <= most and worst["half"] == 3
        assert worst["refined"] == 0 if refined is None else 0 < worst["refined"] <= refined

    # Above the refinement's threshold, every solve makes one pair at every
    # tol from 1e-15 on: 2 exact evaluations, or 2 certified probes and none
    # where the enclosure decides them.  Seeded n up to 1029 (5e-324 up to
    # 300, where a solve takes up to 0.1 s), at four x each: all 16 refine,
    # and all 16 are certified.
    @pytest.mark.parametrize("tol, n_max", [(1e-15, 1029), (1e-30, 1029), (1e-50, 1029),
                                            (1e-100, 600), (5e-324, 300)],
                             ids=["1e-15", "1e-30", "1e-50", "1e-100", "5e-324"])
    def test_refined_solves_take_two(self, monkeypatch, tol, n_max):
        calls = _count_evaluations(monkeypatch)
        probes = _count_probes(monkeypatch)
        rng = random.Random(f"refined {tol}")
        fine = triangle.bisect_depth(1, n_max + 3, *tol.as_integer_ratio()) + 1
        refined = certified = 0
        for n in rng.sample(range(triangle._REFINE_MIN // fine + 1, n_max + 1), 4):
            for x in (0, rng.randrange(n + 1), n // 3, n - 1):
                calls[0] = probes[0] = 0
                solve_iterative_bayes(BinomialObs(n, x), tol=tol)
                if triangle._hint_bits(n, x, tol.as_integer_ratio()):
                    refined += 1
                    if _certified(n, x, tol):
                        certified += 1
                        assert (probes[0], calls[0]) == (2, 0), (n, x)
                    else:
                        assert (probes[0], calls[0]) == (0, 2), (n, x)
        assert refined == certified == 16

    def test_first_probe_is_the_grid_point_nearest_the_hint(self, monkeypatch):
        # Every n <= 120 at 1e-13, the tol of risk and compare.  A first probe
        # rounded down from the hint missed the root of (59, 24) and (83, 13),
        # which lies just above the hint there, and took 10 evaluations.  A
        # root the first probe meets, at x = n/2, takes 3: both bracket ends
        # are checked before an exact zero is returned.
        calls = _count_evaluations(monkeypatch)
        worst = {}
        for n in range(1, 121):
            for x in range(n + 1):
                calls[0] = 0
                solve_iterative_bayes(BinomialObs(n, x), tol=1e-13)
                worst[n, x] = calls[0]
        assert max(count for (n, x), count in worst.items() if 2 * x != n) <= 2
        assert worst[59, 24] == worst[83, 13] == 2
        assert all(worst[2 * x, x] == 3 for x in range(1, 61))

    # Each solve makes one pair: 2 certified probes and no exact evaluation
    # above the enclosure's crossover, 2 exact evaluations below it: all 48
    # solves at 1e-13 and at 1e-30.
    @pytest.mark.parametrize("tol", [1e-13, 1e-30])
    def test_seeded_n_up_to_1029(self, monkeypatch, tol):
        calls = _count_evaluations(monkeypatch)
        probes = _count_probes(monkeypatch)
        rng = random.Random(1029)
        counts = []
        for n in rng.sample(range(121, 1030), 12):
            for x in (0, rng.randrange(n + 1), n // 3, n):
                calls[0] = probes[0] = 0
                solve_iterative_bayes(BinomialObs(n, x), tol=tol)
                counts.append((probes[0], calls[0]))
                assert counts[-1] == ((2, 0) if _certified(n, x, tol) else (0, 2)), (n, x)
        assert counts.count((2, 0)) == 48

    # A core of one or two coefficients sums to few bits, about 50 at
    # n = 750 and x = n - 1: scaled to the bounds' own precision, not
    # clamped to whole numbers, it still decides both probes.
    @pytest.mark.parametrize("tol", [1e-12, 1e-30], ids=["1e-12", "1e-30"])
    def test_short_cores(self, monkeypatch, tol):
        calls = _count_evaluations(monkeypatch)
        probes = _count_probes(monkeypatch)
        for n in (750, 2000):
            for x in (n, n - 1):
                calls[0] = probes[0] = 0
                solve_iterative_bayes(BinomialObs(n, x), tol=tol)
                assert (probes[0], calls[0]) == (2, 0), (n, x)

    @pytest.mark.parametrize("n", [2000, 5000, 10_000])
    def test_large_n(self, monkeypatch, n):
        calls = _count_evaluations(monkeypatch)
        probes = _count_probes(monkeypatch)
        for x in (1, n // 3, n - 1):
            calls[0] = probes[0] = 0
            solve_iterative_bayes(BinomialObs(n, x), tol=1e-12)
            assert (probes[0], calls[0]) == (2, 0), x

    # Without a usable hint the search starts from the secant at e = 2,
    # which reads both bracket ends; a float hint 2**-30 from the root, past
    # HINT_ERROR, misses with its first pair, and the ends are evaluated
    # only when a later secant or the final cell needs them.
    # Over every n <= 120 the maxima are 14 and 16 without a hint, 7 and 10
    # from the poor one (11 at 1e-30 outside CASES).
    @pytest.mark.parametrize("tol, most, poor", [(1e-12, 14, 7), (1e-30, 16, 10)],
                             ids=["1e-12", "1e-30"])
    def test_without_a_good_hint(self, monkeypatch, tol, most, poor):
        calls = _count_evaluations(monkeypatch)
        worst = {None: 0, "poor": 0}
        for n, x in self.CASES:
            obs = BinomialObs(n, x)
            lo, hi = solver_bracket(obs)
            off = Fraction(triangle._float_hint(n, x)[0]) + Fraction(1, 2**30)
            for kind, near in ((None, None), ("poor", float(min(off, (lo + 3 * hi) / 4)))):
                calls[0] = 0
                exact.bisect_root(triangle._estimating_value(obs), n + 2, lo, hi, tol, near=near,
                                  near_error=None if near is None else triangle.HINT_ERROR)
                worst[kind] = max(worst[kind], calls[0])
        assert 0 < worst[None] <= most and 0 < worst["poor"] <= poor

    # geometric_estimate solves J/2, which falls through the root like J,
    # always by exact evaluation: at most 2 evaluations at 1e-12, and at
    # 1e-30, where the solves below x = 127 keep the float hint, at most 6
    # (the refined ones take 2); x = 1, n = 2x, takes 3.  Its Estimate is,
    # field for field, plain bisection's of the geometric polynomial.
    @pytest.mark.parametrize("tol, most", [(1e-12, 2), (1e-30, 6)], ids=["1e-12", "1e-30"])
    def test_geometric_solves(self, monkeypatch, tol, most):
        calls = _count_evaluations(monkeypatch)
        probes = _count_probes(monkeypatch)
        worst = {}
        for x in range(150):
            calls[0] = 0
            got = geometric_estimate(x, tol)
            worst[x] = calls[0]
            assert got == reference_bisect_root(*_geometric_case(x), tol), x
        assert worst.pop(1) == 3 and 0 < max(worst.values()) <= most
        assert probes[0] == 0

    def test_total_over_every_solve_up_to_n60(self, monkeypatch):
        # All 1,890 (n, x) with n <= 60 at 1e-12, the paper's table: 3,810
        # evaluations from the float hint, 2 per solve and 3 for the 30 at
        # x = n/2, whose exact root is returned once both bracket ends are
        # checked; 7,530 when both bracket ends were evaluated first, 21,628
        # without the hint and 23,426 when the residual took an evaluation of
        # its own.  All are below the enclosure's crossover, and its first
        # test, inline in the solve, spares them the call of _certify_bits.
        calls = _count_evaluations(monkeypatch)
        probes = _count_probes(monkeypatch)

        def uncalled(*args):
            raise AssertionError("_certify_bits called below the crossover")

        monkeypatch.setattr(triangle, "_certify_bits", uncalled)
        for n in range(1, 61):
            for x in range(n + 1):
                solve_iterative_bayes(BinomialObs(n, x), tol=1e-12)
        assert calls[0] <= 3_810 and probes[0] == 0

    def test_each_evaluation_is_one_call(self, monkeypatch):
        # The solvers' evaluator, mirrored or not, makes exactly one
        # _homogeneous_value call per value bisect_root asks of it.
        calls = _count_evaluations(monkeypatch)
        asked = [0]
        isolate = triangle.bisect_root

        def counting_isolate(value, *args, **kwargs):
            def counted(u, v):
                asked[0] += 1
                return value(u, v)
            return isolate(counted, *args, **kwargs)

        monkeypatch.setattr(triangle, "bisect_root", counting_isolate)
        for n, x in [(1, 0), (1, 1), (20, 3), (20, 17), (90, 10), (90, 80)]:
            solve_iterative_bayes(BinomialObs(n, x), tol=1e-30)
        geometric_estimate(40, tol=1e-30)
        assert asked[0] > 0 and calls[0] == asked[0]

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
                dense_bisect_root((-1, 1, 1), 0, width, tol)
        assert calls[0] == 0

    def test_deepest_allowed_grid(self):
        # K = MAX_ITER halvings fit the limit, as they did for bisection.
        result = dense_bisect_root((-1, 3), 0, 1, tol=Fraction(1, 2 ** (MAX_ITER - 1)))
        assert result.iterations == MAX_ITER + 1
        lo, hi = result.bracket
        assert lo < Fraction(1, 3) < hi
        assert hi - lo == Fraction(1, 2**MAX_ITER)


class TestRefinedHint:
    """The refinement of the hint runs in integers, reads no decimal
    context, and runs only where the grid's fine cell is narrower than the
    float hint's error."""

    def test_caller_decimal_context_is_untouched(self, monkeypatch):
        # A caller's context of 3 digits with every trap on changes no
        # Estimate and no count of probes or evaluations, and comes back as
        # it was.  Every case refines its hint and decides both probes by
        # the enclosure.
        calls = _count_evaluations(monkeypatch)
        probes = _count_probes(monkeypatch)
        cases = [(n, x, tol) for tol in (1e-30, 5e-324) for n, x in ((150, 40), (150, 110), (301, 7))]

        def solve_all():
            out = []
            for n, x, tol in cases:
                calls[0] = probes[0] = 0
                out.append((solve_iterative_bayes(BinomialObs(n, x), tol), probes[0], calls[0]))
            return out

        want = solve_all()
        assert [counts for _, *counts in want] == [[2, 0]] * len(cases)
        with decimal.localcontext() as caller:
            caller.prec = 3
            for signal in caller.traps:
                caller.traps[signal] = True
            caller.clear_flags()
            before = repr(caller)
            assert solve_all() == want
            assert decimal.getcontext() is caller and repr(caller) == before

    def test_a_refused_point_abandons_the_refinement(self, monkeypatch):
        # Where the evaluator refuses a point the refinement returns None,
        # and the solve, from the float hint with every probe evaluated
        # exactly, gives the same Estimate.
        calls = _count_evaluations(monkeypatch)
        n, x, tol = 300, 200, 1e-30
        bits = triangle._hint_bits(n, x, tol.as_integer_ratio())
        near, slope = triangle._float_hint(n, x)
        assert bits and slope
        assert triangle._refine(n, x, lambda u, v: None, near, slope, bits) is None
        want = solve_iterative_bayes(BinomialObs(n, x), tol)
        monkeypatch.setattr(triangle, "_bounds", lambda *args: lambda u, v: None)
        calls[0] = 0
        assert solve_iterative_bayes(BinomialObs(n, x), tol) == want
        assert calls[0] > 2

    def test_default_tols_never_refine(self, monkeypatch):
        # Every n <= 60 at 1e-12 and every n <= 120 at 1e-13, the tols of
        # table2, estimate, risk and compare, solve from the float hint:
        # their fine cell is wider than HINT_ERROR.  The size threshold is
        # lifted, so that test alone keeps them there.
        def refine(*args):
            raise AssertionError("hint refined")

        monkeypatch.setattr(triangle, "_refine", refine)
        monkeypatch.setattr(triangle, "_REFINE_MIN", 0)
        for n_max, tol in ((60, 1e-12), (120, 1e-13)):
            for n in range(1, n_max + 1):
                for x in range(n + 1):
                    solve_iterative_bayes(BinomialObs(n, x), tol)


class TestLazyEnds:
    """``bisect_root`` evaluates a bracket end only when a secant or the
    final cell needs it, and checks that end's sign then.  A polynomial
    without a falling sign change raises the "signs" ValueError, never
    ZeroDivisionError, and returns no Estimate."""

    CASES = [(1, 0), (7, 3), (20, 10), (40, 13), (90, 80)]

    @staticmethod
    def isolate(value, n, x, tol, hinted):
        lo, hi = solver_bracket(BinomialObs(n, x))
        near, error = (triangle._float_hint(n, x)[0], triangle.HINT_ERROR) if hinted else (None, None)
        return exact.bisect_root(value, n + 2, lo, hi, tol, near=near, near_error=error)

    def rejected(self, value, n, x, tol, hinted):
        with pytest.raises(ValueError) as info:
            self.isolate(value, n, x, tol, hinted)
        lo, hi = solver_bracket(BinomialObs(n, x))
        prefix, _, signs = str(info.value).partition(f" over ({lo}, {hi}): ")
        return prefix, signs

    @pytest.mark.parametrize("hinted", [True, False], ids=["hint", "no-hint"])
    @pytest.mark.parametrize("tol", [1e-12, 1e-30], ids=["1e-12", "1e-30"])
    def test_wrong_orientation(self, tol, hinted):
        # -J rises through J's root: it is rejected when the search first
        # needs an end.
        for n, x in self.CASES:
            value = triangle._estimating_value(BinomialObs(n, x))
            assert (self.rejected(lambda u, v: -value(u, v), n, x, tol, hinted)
                    == ("bisect_root: no falling sign change", "signs (-1, 1)")), (n, x)

    @pytest.mark.parametrize("hinted", [True, False], ids=["hint", "no-hint"])
    def test_constants_and_the_zero_polynomial(self, hinted):
        # The zero polynomial vanishes at the first probe: an exact zero is
        # returned only after one end is found nonzero.
        for n, x in self.CASES:
            for value, signs in ((lambda u, v: v ** (n + 2), "signs (1, 1)"),
                                 (lambda u, v: -v ** (n + 2), "signs (-1, -1)"),
                                 (lambda u, v: 0, "signs (0, 0)")):
                assert (self.rejected(value, n, x, 1e-12, hinted)
                        == ("bisect_root: no strict sign change", signs)), (n, x)

    def test_a_zero_that_is_no_sign_change(self):
        # (2t - 1)**2 touches 0 at 1/2 without changing sign.  A hint there
        # puts the first probe on that zero, which is returned only once
        # both bracket ends are checked: the hinted call raises what the
        # call without a hint does.
        def value(u, v):
            return 4 * u * u - 4 * u * v + v * v

        messages = []
        for near, error in ((None, None), (0.5, 1e-3)):
            with pytest.raises(ValueError) as info:
                exact.bisect_root(value, 2, 0, 1, tol=1e-6, near=near, near_error=error)
            messages.append(str(info.value))
        assert messages == ["bisect_root: no strict sign change over (0, 1): signs (1, 1)"] * 2

    @pytest.mark.parametrize("lower", [True, False], ids=["lower", "upper"])
    def test_root_at_an_end(self, lower):
        # P(t) = (r - t)(1 + t) with r = 0 (1) falls through its root at the
        # lower (upper) end of (0, 1) and has no sign change inside.  The end
        # that holds the root evaluates to an exact 0 and is rejected as no
        # strict sign change: without a hint, where the first secant reads
        # both ends, from a hint at the middle, and from one beside that end,
        # where the final cell needs that end only.
        r = 0 if lower else 1
        signs = "signs (0, -1)" if lower else "signs (1, 0)"

        def value(u, v):
            return (v * r - u) * (v + u)

        tol = Fraction(1, 2**10)
        edge = Fraction(1, 10_000) if lower else Fraction(9_999, 10_000)
        for near in (None, Fraction(1, 2), edge):
            error = None if near is None else Fraction(1, 2**40)
            with pytest.raises(ValueError) as info:
                exact.bisect_root(value, 2, 0, 1, tol, near=near, near_error=error)
            assert str(info.value) == f"bisect_root: no strict sign change over (0, 1): {signs}", near

    @staticmethod
    def shifted(n, x, below):
        """The evaluator of J(a + s), a positive multiple of it, with s such
        that the root lies one to two of bisection's last cells at tol 1e-12
        outside the solver bracket: below lo, or above hi."""
        obs = BinomialObs(n, x)
        lo, hi = solver_bracket(obs)
        c0, c1 = solve_iterative_bayes(obs).bracket
        s = 2 * c1 - c0 - lo if below else 2 * c0 - c1 - hi
        value = triangle._estimating_value(obs)
        return lambda u, v: value(u * s.denominator + s.numerator * v, v * s.denominator)

    @pytest.mark.parametrize("below", [True, False], ids=["below-lo", "above-hi"])
    def test_root_just_outside_the_bracket(self, monkeypatch, below):
        signs = "signs (-1, -1)" if below else "signs (1, 1)"
        for n, x in self.CASES:
            value = self.shifted(n, x, below)
            lo, hi = solver_bracket(BinomialObs(n, x))
            # From a hint in the bracket's first or last fine cell the final
            # cell touches that end, whose evaluation fails the check.
            fine = exact.bisect_depth(1, n + 3, *(1e-12).as_integer_ratio()) + 1
            edge = lo + (hi - lo) / 2**(fine + 1) if below else hi - (hi - lo) / 2**(fine + 1)
            with pytest.raises(ValueError, match=re.escape(signs)):
                exact.bisect_root(value, n + 2, lo, hi, 1e-12, near=edge,
                                  near_error=Fraction(1, 2**80))
            # From the solver's own hint, a secant needs the end first.
            monkeypatch.setattr(triangle, "_estimating_value", lambda obs: value)
            with pytest.raises(BracketFailure, match=re.escape(signs)):
                solve_iterative_bayes(BinomialObs(n, x))
            monkeypatch.undo()

    @pytest.mark.parametrize("lower", [True, False], ids=["lower", "upper"])
    def test_final_cell_at_an_end_evaluates_that_end_only(self, lower):
        # A root in the first (last) fine cell of (0, 1) at tol 2**-10: fine =
        # 12 levels, the first pair on the fine level, whose end probe is the
        # bracket's end and is skipped.  One probe and that end certify the
        # cell; the other end is never evaluated.
        root = Fraction(1, 10_000) if lower else Fraction(9_999, 10_000)
        seen = []

        def value(u, v):
            seen.append(Fraction(u, v))
            return v * root.numerator - u * root.denominator

        tol = Fraction(1, 2**10)
        got = exact.bisect_root(value, 1, 0, 1, tol, near=root, near_error=Fraction(1, 2**40))
        assert seen == ([Fraction(1, 4096), 0] if lower else [Fraction(4095, 4096), 1])
        assert got == reference_bisect_root((root.numerator, -root.denominator), 0, 1, tol)


class TestFractionsPerSolve:
    """A solve builds Fractions in ``exact`` only for its Estimate: the
    midpoint and the two bracket ends.  The search itself, the tol and the
    float hint are integer bookkeeping."""

    @pytest.mark.parametrize("tol", [1e-12, 1e-30], ids=["1e-12", "1e-30"])
    @pytest.mark.parametrize("n, x", [(20, 7), (60, 0), (400, 133)])
    def test_only_the_estimate_builds_fractions(self, monkeypatch, n, x, tol):
        want = solve_iterative_bayes(BinomialObs(n, x), tol)
        built = [0]

        class Counted(Fraction):
            def __new__(cls, *args, **kwargs):
                built[0] += 1
                return super().__new__(cls, *args, **kwargs)

        monkeypatch.setattr(exact, "Fraction", Counted)
        assert solve_iterative_bayes(BinomialObs(n, x), tol) == want
        assert built[0] == 3

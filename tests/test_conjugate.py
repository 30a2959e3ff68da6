import math
import random
from fractions import Fraction

import pytest

from helpers import adaptive_simpson, closed_form_step_estimate, contraction_ratio

import iterbayes.conjugate as conjugate
from iterbayes.conjugate import (
    EXPECTATION,
    EXTREME_POINT,
    ConjugateFamily,
    ConjugateModel,
    SampleStats,
    beta_binomial_posterior_mean,
    characteristic_limit,
    conjugate_iterative_limit,
    conjugate_mle,
    conjugate_posterior_mean,
    iterate_binomial_characteristic,
)
from iterbayes.types import (
    BetaPrior,
    BinomialObs,
    Characteristic,
    DegenerateStep,
    InvalidStats,
    NoConvergence,
)


class TestBetaBinomialPosteriorMean:
    def test_uniform_prior_one_success(self):
        assert beta_binomial_posterior_mean(BetaPrior(1, 1), BinomialObs(1, 1)) == pytest.approx(2 / 3)

    def test_jeffreys_prior_one_success(self):
        assert beta_binomial_posterior_mean(BetaPrior(0.5, 0.5), BinomialObs(1, 1)) == pytest.approx(0.75)

    @pytest.mark.parametrize("alpha, x", [(1, 1), (3, 2), (Fraction(7, 2), 4)])
    def test_symmetric_configuration_gives_half(self, alpha, x):
        prior = BetaPrior(alpha, alpha)
        assert beta_binomial_posterior_mean(prior, BinomialObs(2 * x, x)) == Fraction(1, 2)


class TestCharacteristicLimit:
    @pytest.mark.parametrize(
        "a, b, n, x, want",
        [(0, 0, 10, 3, 0.3), (1, 2, 1, 1, 2 / 3), (0.5, 1, 4, 2, 0.5)],
    )
    def test_values(self, a, b, n, x, want):
        assert characteristic_limit(Characteristic(a, b), BinomialObs(n, x)) == pytest.approx(want)

    def test_shortcut_characteristics(self):
        # the prior expectation and the interior mode of a beta prior
        assert EXPECTATION == Characteristic(0, 0)
        assert EXTREME_POINT == Characteristic(1, 2)


class TestCharacteristicIteration:
    def test_zero_steps_returns_starting_point(self):
        prior = BetaPrior(2, 2)
        trace = iterate_binomial_characteristic(prior, EXTREME_POINT, BinomialObs(3, 2), 0)
        assert trace.alphas == (Fraction(2),)
        assert trace.estimates == (Fraction(2 + 2, 2 + 2 + 3),)

    def test_expectation_replacement_converges_to_mle(self):
        # a = b = 0, alpha0 = beta0 = 1, n = 2, x = 1 -> 1/2
        trace = iterate_binomial_characteristic(BetaPrior(1, 1), EXPECTATION, BinomialObs(2, 1), 120)
        assert abs(float(trace.estimates[-1]) - 0.5) < 1e-12

    def test_extreme_point_replacement_converges_to_uniform_bayes(self):
        # a = 1, b = 2 -> (x+1)/(n+2) = 2/3 for one success in one trial
        trace = iterate_binomial_characteristic(BetaPrior(2, 2), EXTREME_POINT, BinomialObs(1, 1), 120)
        assert abs(float(trace.estimates[-1]) - 2 / 3) < 1e-12

    def test_trace_steps_satisfy_defining_relation_exactly(self):
        char = Characteristic(Fraction(1, 2), Fraction(3, 2))
        trace = iterate_binomial_characteristic(BetaPrior(Fraction(5, 2), 3), char, BinomialObs(5, 3), 25)
        a, b = Fraction(char.a), Fraction(char.b)
        for k in range(25):
            alpha_next = trace.alphas[k + 1]
            assert (alpha_next - a) / (alpha_next + trace.beta0 - b) == trace.estimates[k]

    # the recurrence is authoritative; the closed form must reproduce it exactly
    @pytest.mark.parametrize(
        "alpha0, beta0, a, b, n, x",
        [
            (1, 1, 0, 0, 2, 1),
            (2, 2, 1, 2, 1, 1),
            (Fraction(3, 2), Fraction(5, 2), Fraction(1, 2), 1, 5, 3),
            (2, 3, 1, 2, 4, 4),             # a < b with x = n
            (Fraction(7, 3), 2, 1, 1, 6, 2),  # a = b with x < n
            (2, 2, 1, 1, 3, 3),             # a = b with x = n (linear branch)
            (4, 5, 0, 0, 7, 0),             # x = 0
        ],
    )
    def test_closed_form_matches_recurrence_exactly(self, alpha0, beta0, a, b, n, x):
        prior = BetaPrior(alpha0, beta0)
        char = Characteristic(a, b)
        obs = BinomialObs(n, x)
        trace = iterate_binomial_characteristic(prior, char, obs, 50)
        for m in range(51):
            assert trace.estimates[m] == closed_form_step_estimate(prior, char, obs, m)

    def test_error_decreasing_and_vanishing(self):
        # |estimate_m - limit| strictly decreasing for 0 < c < 1, below 1e-10 by m = 200
        configs = [
            (BetaPrior(1, 1), Characteristic(0, 0), BinomialObs(2, 1)),
            (BetaPrior(2, 2), Characteristic(1, 2), BinomialObs(4, 1)),
            (BetaPrior(Fraction(5, 2), 4), Characteristic(Fraction(1, 2), 2), BinomialObs(6, 5)),
            (BetaPrior(3, 5), Characteristic(0, 0), BinomialObs(3, 0)),
        ]
        for prior, char, obs in configs:
            trace = iterate_binomial_characteristic(prior, char, obs, 200)
            assert 0 < contraction_ratio(prior, char, obs) < 1
            limit = Fraction(obs.x + Fraction(char.a), obs.n + Fraction(char.b))
            errors = [abs(e - limit) for e in trace.estimates]
            assert all(errors[m + 1] < errors[m] for m in range(200) if errors[m] != 0)
            assert float(errors[-1]) < 1e-10

    def test_limit_independent_of_hyperparameters(self):
        char = Characteristic(1, 2)
        obs = BinomialObs(5, 2)
        runs = []
        for prior in [BetaPrior(2, 2), BetaPrior(9, 4)]:
            trace = iterate_binomial_characteristic(prior, char, obs, 400)
            runs.append(float(trace.estimates[-1]))
        assert abs(runs[0] - runs[1]) < 2e-12
        assert runs[0] == pytest.approx(3 / 7)  # (x+1)/(n+2)

    def test_degenerate_step_signaled(self):
        # initial characteristic (1-2)/(1+1-4) = 1/2 is admissible, but the
        # first solved alpha falls to a -> DegenerateStep, never clamped
        with pytest.raises(DegenerateStep):
            iterate_binomial_characteristic(BetaPrior(1, 1), Characteristic(2, 4), BinomialObs(2, 1), 5)

    def test_inadmissible_start_rejected(self):
        with pytest.raises(ValueError, match="not in"):
            iterate_binomial_characteristic(BetaPrior(1, 1), Characteristic(1, 2), BinomialObs(1, 1), 1)

    def test_negative_m_rejected(self):
        with pytest.raises(ValueError):
            iterate_binomial_characteristic(BetaPrior(2, 2), EXPECTATION, BinomialObs(1, 1), -1)


def _models():
    return {
        ConjugateFamily.POISSON: ConjugateModel(ConjugateFamily.POISSON, alpha=1.0, beta=1.0),
        ConjugateFamily.EXPONENTIAL: ConjugateModel(ConjugateFamily.EXPONENTIAL, alpha=1.0, beta=2.0),
        ConjugateFamily.NORMAL_MEAN: ConjugateModel(
            ConjugateFamily.NORMAL_MEAN, alpha=0.3, beta=1.5, sigma0_sq=2.0
        ),
        ConjugateFamily.NORMAL_PRECISION: ConjugateModel(
            ConjugateFamily.NORMAL_PRECISION, alpha=1.0, beta=1.0, mu0=0.0
        ),
    }


class TestConjugateModels:
    def test_validation(self):
        with pytest.raises(ValueError):
            ConjugateModel(ConjugateFamily.POISSON, alpha=0.0, beta=1.0)
        with pytest.raises(ValueError):
            ConjugateModel(ConjugateFamily.EXPONENTIAL, alpha=1.0, beta=1.0)  # prior mean undefined
        with pytest.raises(ValueError):
            ConjugateModel(ConjugateFamily.NORMAL_MEAN, alpha=0.0, beta=1.0)  # no sigma0_sq
        with pytest.raises(ValueError):
            ConjugateModel(ConjugateFamily.NORMAL_PRECISION, alpha=1.0, beta=1.0)  # no mu0
        with pytest.raises(ValueError):
            SampleStats(n=0)
        with pytest.raises(ValueError):
            SampleStats(n=2, sum_sq_dev=-1.0)

    def test_posterior_mean_poisson(self):
        # (beta + sum x) / (alpha + n) = (1 + 6) / (1 + 3)
        model = _models()[ConjugateFamily.POISSON]
        assert conjugate_posterior_mean(model, SampleStats(n=3, sum_x=6)) == pytest.approx(7 / 4)

    def test_posterior_mean_normal_mean_degenerate_prior(self):
        # zero prior variance: the prior dominates and the mean stays at alpha
        model = ConjugateModel(ConjugateFamily.NORMAL_MEAN, alpha=0.7, beta=0.0, sigma0_sq=1.0)
        assert conjugate_posterior_mean(model, SampleStats(n=5, sum_x=100.0)) == pytest.approx(0.7)

    def test_posterior_mean_normal_precision(self):
        # (2*beta + n) / (2*alpha + sum sq dev) = (2 + 2) / (2 + 2)
        model = _models()[ConjugateFamily.NORMAL_PRECISION]
        assert conjugate_posterior_mean(model, SampleStats(n=2, sum_sq_dev=2.0)) == pytest.approx(1.0)

    def test_missing_sum_sq_dev_rejected(self):
        model = _models()[ConjugateFamily.NORMAL_PRECISION]
        with pytest.raises(InvalidStats):
            conjugate_posterior_mean(model, SampleStats(n=2))

    def test_mle(self):
        models = _models()
        assert conjugate_mle(models[ConjugateFamily.POISSON], SampleStats(n=3, sum_x=6)) == pytest.approx(2.0)
        assert conjugate_mle(
            models[ConjugateFamily.NORMAL_PRECISION], SampleStats(n=2, sum_sq_dev=4.0)
        ) == pytest.approx(0.5)
        with pytest.raises(InvalidStats):
            conjugate_mle(models[ConjugateFamily.NORMAL_PRECISION], SampleStats(n=2, sum_sq_dev=0.0))


class TestPosteriorMeanQuadratureOracle:
    """Pin each family's posterior-mean formula against direct numerical
    integration of prior x likelihood (independent of the closed forms)."""

    @staticmethod
    def _mean(density, lo, hi):
        num = adaptive_simpson(lambda t: t * density(t), lo, hi, rel_tol=1e-12)
        den = adaptive_simpson(density, lo, hi, rel_tol=1e-12)
        return num / den

    def test_poisson(self):
        model = ConjugateModel(ConjugateFamily.POISSON, alpha=1.3, beta=0.8)
        stats = SampleStats(n=3, sum_x=6)
        density = lambda lam: lam ** (model.beta - 1) * math.exp(-model.alpha * lam) \
            * lam ** stats.sum_x * math.exp(-stats.n * lam)
        want = self._mean(density, 1e-9, 40.0)
        assert conjugate_posterior_mean(model, stats) == pytest.approx(want, abs=1e-9)

    def test_exponential(self):
        model = ConjugateModel(ConjugateFamily.EXPONENTIAL, alpha=1.5, beta=2.5)
        stats = SampleStats(n=4, sum_x=8.0)
        density = lambda lam: lam ** (-model.beta - 1) * math.exp(-model.alpha / lam) \
            * lam ** (-stats.n) * math.exp(-stats.sum_x / lam)
        # mass below 0.05 is e^(-190)-suppressed; the power-law tail above 80
        # contributes < 1e-9 relatively
        want = self._mean(density, 0.05, 80.0)
        assert conjugate_posterior_mean(model, stats) == pytest.approx(want, abs=1e-7)

    def test_normal_mean(self):
        model = ConjugateModel(ConjugateFamily.NORMAL_MEAN, alpha=0.4, beta=1.2, sigma0_sq=2.0)
        stats = SampleStats(n=5, sum_x=7.0)
        var = model.beta**2
        density = lambda mu: math.exp(
            -((mu - model.alpha) ** 2) / (2 * var)
            - (stats.n * mu * mu - 2 * mu * stats.sum_x) / (2 * model.sigma0_sq)
        )
        want = self._mean(density, -30.0, 30.0)
        assert conjugate_posterior_mean(model, stats) == pytest.approx(want, abs=1e-9)
        # same thing through the precision-weighted average
        weighted = (model.alpha / var + stats.sum_x / model.sigma0_sq) / (
            1 / var + stats.n / model.sigma0_sq
        )
        assert conjugate_posterior_mean(model, stats) == pytest.approx(weighted, abs=1e-12)

    def test_normal_precision(self):
        model = ConjugateModel(ConjugateFamily.NORMAL_PRECISION, alpha=1.1, beta=0.9, mu0=0.0)
        stats = SampleStats(n=2, sum_sq_dev=2.4)
        density = lambda theta: theta ** (model.beta - 1) * math.exp(-model.alpha * theta) \
            * theta ** (stats.n / 2) * math.exp(-theta * stats.sum_sq_dev / 2)
        want = self._mean(density, 1e-9, 60.0)
        assert conjugate_posterior_mean(model, stats) == pytest.approx(want, abs=1e-9)


class TestConjugateIterativeLimit:
    @pytest.mark.parametrize(
        "family, stats, want",
        [
            (ConjugateFamily.POISSON, SampleStats(n=3, sum_x=6), 2.0),
            (ConjugateFamily.EXPONENTIAL, SampleStats(n=4, sum_x=8), 2.0),
            (ConjugateFamily.NORMAL_PRECISION, SampleStats(n=2, sum_sq_dev=4.0), 0.5),
        ],
    )
    def test_named_examples(self, family, stats, want):
        est = conjugate_iterative_limit(_models()[family], stats)
        assert est.value == pytest.approx(want, abs=1e-10)
        assert est.method == "fixed-point"
        assert est.residual < 1e-12

    def test_slow_contraction_stops_near_the_limit(self):
        # Contraction c = 1/1.01: a step below tol leaves about 100 times that
        # still to go, so stopping on the step alone ends ~1e-10 short.
        model = ConjugateModel(ConjugateFamily.NORMAL_MEAN, alpha=0.0, beta=0.1, sigma0_sq=1.0)
        est = conjugate_iterative_limit(model, SampleStats(n=1, sum_x=10.0), tol=1e-12)
        assert abs(est.value - 10.0) < 1e-11
        assert est.residual < 1e-12

    def test_residual_is_distance_to_go_in_exact_arithmetic(self):
        # In rationals the iteration is exactly geometric (c = 4/5), so the
        # reported d_k c / (1 - c) is the exact distance to the MLE.
        model = ConjugateModel(ConjugateFamily.NORMAL_MEAN, alpha=Fraction(0),
                               beta=Fraction(1, 2), sigma0_sq=Fraction(1))
        est = conjugate_iterative_limit(model, SampleStats(n=1, sum_x=Fraction(10)), tol=1e-12)
        assert 0 < est.residual < 1e-12
        assert abs(abs(est.value - 10.0) - est.residual) < 4e-15

    @pytest.mark.parametrize("prior_sd", [0.3, 0.1, 0.05, 0.03])
    def test_stops_within_tol_of_the_limit_in_floats(self, prior_sd):
        # c = 1/(1 + sd^2) is up to 0.9991: a step at rounding level still
        # leaves over a thousand times itself to go.
        model = ConjugateModel(ConjugateFamily.NORMAL_MEAN, alpha=0.0, beta=prior_sd, sigma0_sq=1.0)
        est = conjugate_iterative_limit(model, SampleStats(n=1, sum_x=10.0), tol=1e-12)
        assert abs(est.value - 10.0) <= 1e-12 + est.residual

    def test_normal_mean_limit_is_sample_mean(self):
        model = _models()[ConjugateFamily.NORMAL_MEAN]
        est = conjugate_iterative_limit(model, SampleStats(n=4, sum_x=10.0))
        assert est.value == pytest.approx(2.5, abs=1e-10)

    def test_zero_prior_variance_rejected(self):
        for prior_sd in (0.0, 1e-200):  # 1e-200 squares to 0.0
            model = ConjugateModel(ConjugateFamily.NORMAL_MEAN, alpha=0.7, beta=prior_sd,
                                   sigma0_sq=1.0)
            with pytest.raises(InvalidStats):
                conjugate_iterative_limit(model, SampleStats(n=4, sum_x=10.0))

    def test_zero_sum_sq_dev_rejected(self):
        model = _models()[ConjugateFamily.NORMAL_PRECISION]
        with pytest.raises(InvalidStats):
            conjugate_iterative_limit(model, SampleStats(n=4, sum_sq_dev=0.0))

    def test_step_limit_reported(self, monkeypatch):
        monkeypatch.setattr(conjugate, "MAX_ITER", 2)
        model = _models()[ConjugateFamily.POISSON]
        with pytest.raises(NoConvergence) as excinfo:
            conjugate_iterative_limit(model, SampleStats(n=1, sum_x=5), tol=1e-30)
        assert excinfo.value.iterations == 2
        assert excinfo.value.residual > 0

    def test_randomized_agreement_with_mle(self):
        rng = random.Random(20240817)
        for _ in range(25):
            family = rng.choice(list(ConjugateFamily))
            n = rng.randint(1, 20)
            if family is ConjugateFamily.POISSON:
                model = ConjugateModel(family, alpha=rng.uniform(0.2, 5), beta=rng.uniform(0.2, 5))
                stats = SampleStats(n=n, sum_x=rng.randint(0, 50))
            elif family is ConjugateFamily.EXPONENTIAL:
                model = ConjugateModel(family, alpha=rng.uniform(0.2, 5), beta=rng.uniform(1.2, 6))
                stats = SampleStats(n=n, sum_x=rng.uniform(0.5, 40))
            elif family is ConjugateFamily.NORMAL_MEAN:
                model = ConjugateModel(
                    family, alpha=rng.uniform(-3, 3), beta=rng.uniform(0.3, 3),
                    sigma0_sq=rng.uniform(0.5, 4),
                )
                stats = SampleStats(n=n, sum_x=rng.uniform(-30, 30))
            else:
                model = ConjugateModel(
                    family, alpha=rng.uniform(0.2, 5), beta=rng.uniform(0.2, 5), mu0=rng.uniform(-2, 2)
                )
                stats = SampleStats(n=n, sum_sq_dev=rng.uniform(0.5, 30))
            est = conjugate_iterative_limit(model, stats)
            assert est.value == pytest.approx(conjugate_mle(model, stats), abs=1e-8)

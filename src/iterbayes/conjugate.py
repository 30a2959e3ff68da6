"""Characteristic-replacement iteration for conjugate models.

For the beta-binomial model, a prior characteristic (alpha - a)/(alpha + beta - b)
is repeatedly re-solved (alpha free, beta held at the prior's value beta0) so
that it equals the previous posterior mean.  The iteration has a closed form per
step and the limit is (x + a)/(n + b) whenever the contraction ratio

    c = (beta0 - (b - a)) / (beta0 + n - x)

lies in (0, 1).  With a = b = 0 (expectation replaced) the limit is the MLE x/n;
with a = 1, b = 2 (extreme point replaced) it is the uniform-prior Bayes
estimate (x+1)/(n+2).

The same replacement scheme drives four classical conjugate families (Poisson /
gamma, exponential / inverse gamma, normal mean / normal, normal precision /
gamma), where replacing the prior expectation converges to the MLE of each
family.  One hyperparameter is solved per step so that the prior expectation
equals the previous posterior mean; the other is held fixed, mirroring the
beta-binomial convention of pinning beta at a known value.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Tuple

from .exact import check_tol
from .types import (
    METHOD_FIXED_POINT,
    BetaPrior,
    BinomialObs,
    Characteristic,
    DegenerateStep,
    Estimate,
    InvalidStats,
    NoConvergence,
)

__all__ = [
    "EXPECTATION",
    "EXTREME_POINT",
    "beta_binomial_posterior_mean",
    "characteristic_limit",
    "IterationTrace",
    "iterate_binomial_characteristic",
    "ConjugateFamily",
    "ConjugateModel",
    "SampleStats",
    "conjugate_posterior_mean",
    "conjugate_mle",
    "MAX_ITER",
    "conjugate_iterative_limit",
]

EXPECTATION = Characteristic(0, 0)
EXTREME_POINT = Characteristic(1, 2)


def beta_binomial_posterior_mean(prior: BetaPrior, obs: BinomialObs):
    """Posterior mean (alpha + x) / (alpha + beta + n) under quadratic loss.

    Arithmetic follows the input types: Fraction hyperparameters give an
    exact Fraction, floats give a float.
    """
    return (prior.alpha + obs.x) / (prior.alpha + prior.beta + obs.n)


def characteristic_limit(char: Characteristic, obs: BinomialObs):
    """Limit of the characteristic-replacement iteration: (x + a) / (n + b)."""
    if not obs.n + char.b > 0:
        raise ValueError("characteristic_limit: n + b must be positive")
    return (obs.x + char.a) / (obs.n + char.b)


@dataclass(frozen=True)
class IterationTrace:
    """Full record of a characteristic-replacement run in exact rationals.

    ``alphas[k]`` is the solved hyperparameter after k replacements (alphas[0]
    is the starting value), ``estimates[k]`` the posterior mean it yields, and
    ``beta0`` the prior's beta, held fixed throughout.
    Every step satisfies the defining relation exactly and is re-checkable:
    (alphas[k+1] - a) / (alphas[k+1] + beta0 - b) == estimates[k].
    """

    beta0: Fraction
    alphas: Tuple[Fraction, ...]
    estimates: Tuple[Fraction, ...]


def iterate_binomial_characteristic(
    prior: BetaPrior, char: Characteristic, obs: BinomialObs, m: int
) -> IterationTrace:
    """Run m characteristic replacements for the beta-binomial model, exactly.

    Each step solves the new alpha from
    (alpha' - a) / (alpha' + beta0 - b) = previous posterior mean, with beta0
    the prior's beta, then takes the posterior mean at alpha'.  All arithmetic
    is in Fractions (float inputs are converted to their exact binary values),
    so traces can be compared exactly against the step-m closed form.

    Raises DegenerateStep if any step produces alpha' <= a, which pushes the
    characteristic out of (0, 1).
    """
    if m < 0:
        raise ValueError("iterate_binomial_characteristic: m must be >= 0")
    alpha, b0 = Fraction(prior.alpha), Fraction(prior.beta)
    a, b = Fraction(char.a), Fraction(char.b)

    denom0 = alpha + b0 - b
    if denom0 == 0 or not 0 < (alpha - a) / denom0 < 1:
        raise ValueError(
            "iterate_binomial_characteristic: initial characteristic "
            f"({alpha} - {a}) / ({alpha} + {b0} - {b}) is not in (0, 1)"
        )

    alphas = [alpha]
    estimates = [beta_binomial_posterior_mean(BetaPrior(alpha, b0), obs)]
    for step in range(1, m + 1):
        e = estimates[-1]
        alpha = (a + e * (b0 - b)) / (1 - e)
        if alpha <= a:
            raise DegenerateStep(
                f"step {step}: solved alpha {alpha} <= a {a}; "
                "characteristic left (0, 1)"
            )
        alphas.append(alpha)
        estimates.append(beta_binomial_posterior_mean(BetaPrior(alpha, b0), obs))
    return IterationTrace(b0, tuple(alphas), tuple(estimates))


class ConjugateFamily(Enum):
    POISSON = "poisson"
    EXPONENTIAL = "exponential"
    NORMAL_MEAN = "normal-mean"
    NORMAL_PRECISION = "normal-precision"


@dataclass(frozen=True)
class ConjugateModel:
    """A conjugate sampling/prior pair with its hyperparameters.

    - POISSON: rate lambda with gamma prior (shape beta, rate alpha);
      prior mean beta/alpha.
    - EXPONENTIAL: scale lambda with inverse-gamma prior (shape beta,
      scale alpha); prior mean alpha/(beta-1), so beta > 1 is required.
    - NORMAL_MEAN: mean mu of a normal with known variance sigma0_sq;
      normal prior with mean alpha and standard deviation beta.
    - NORMAL_PRECISION: precision theta of a normal with known mean mu0;
      gamma prior (shape beta, rate alpha).
    """

    family: ConjugateFamily
    alpha: float
    beta: float
    sigma0_sq: Optional[float] = None
    mu0: Optional[float] = None

    def __post_init__(self):
        f = self.family
        if f is ConjugateFamily.POISSON:
            if not (self.alpha > 0 and self.beta > 0):
                raise ValueError("Poisson model: alpha and beta must be positive")
        elif f is ConjugateFamily.EXPONENTIAL:
            if not self.alpha > 0:
                raise ValueError("exponential model: alpha must be positive")
            if not self.beta > 1:
                raise ValueError("exponential model: beta must exceed 1 for the prior mean to exist")
        elif f is ConjugateFamily.NORMAL_MEAN:
            if self.sigma0_sq is None or not self.sigma0_sq > 0:
                raise ValueError("normal-mean model: sigma0_sq must be positive")
            if self.beta < 0:
                raise ValueError("normal-mean model: prior standard deviation must be >= 0")
        elif f is ConjugateFamily.NORMAL_PRECISION:
            if not (self.alpha > 0 and self.beta > 0):
                raise ValueError("normal-precision model: alpha and beta must be positive")
            if self.mu0 is None:
                raise ValueError("normal-precision model: mu0 is required")


@dataclass(frozen=True)
class SampleStats:
    """Sufficient statistics of an i.i.d. sample.

    ``sum_sq_dev`` is the sum of squared deviations from the known mean
    (normal-precision family only).
    """

    n: int
    sum_x: float = 0.0
    sum_sq_dev: Optional[float] = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"SampleStats: n must be >= 1, got {self.n}")
        if self.sum_sq_dev is not None and self.sum_sq_dev < 0:
            raise ValueError("SampleStats: sum_sq_dev must be >= 0")


def conjugate_posterior_mean(model: ConjugateModel, stats: SampleStats):
    """Posterior expectation of the parameter given the sample statistics."""
    f = model.family
    if f is ConjugateFamily.POISSON:
        if stats.sum_x < 0:
            raise InvalidStats("Poisson: sum of observations must be >= 0")
        return (model.beta + stats.sum_x) / (model.alpha + stats.n)
    if f is ConjugateFamily.EXPONENTIAL:
        if stats.sum_x < 0:
            raise InvalidStats("exponential: sum of observations must be >= 0")
        return (model.alpha + stats.sum_x) / (model.beta + stats.n - 1)
    if f is ConjugateFamily.NORMAL_MEAN:
        var = model.beta * model.beta
        return (model.alpha * model.sigma0_sq + stats.sum_x * var) / (
            model.sigma0_sq + stats.n * var
        )
    if stats.sum_sq_dev is None:
        raise InvalidStats("normal-precision: sum_sq_dev is required")
    return (2 * model.beta + stats.n) / (2 * model.alpha + stats.sum_sq_dev)


def conjugate_mle(model: ConjugateModel, stats: SampleStats):
    """Closed-form maximum-likelihood estimate for the model's parameter."""
    f = model.family
    if f is ConjugateFamily.NORMAL_PRECISION:
        if stats.sum_sq_dev is None or stats.sum_sq_dev <= 0:
            raise InvalidStats("normal-precision: MLE needs sum_sq_dev > 0")
        return stats.n / stats.sum_sq_dev
    return stats.sum_x / stats.n


def _solve_prior_mean(model: ConjugateModel, target) -> ConjugateModel:
    # One hyperparameter is free per family: the one whose solve is linear.
    f = model.family
    if f is ConjugateFamily.POISSON:
        return dataclasses.replace(model, beta=model.alpha * target)
    if f is ConjugateFamily.EXPONENTIAL:
        return dataclasses.replace(model, alpha=target * (model.beta - 1))
    if f is ConjugateFamily.NORMAL_MEAN:
        return dataclasses.replace(model, alpha=target)
    return dataclasses.replace(model, beta=model.alpha * target)


def _contraction_odds(model: ConjugateModel, stats: SampleStats):
    """c / (1 - c) for the contraction c of the iteration's error per step:
    alpha/(alpha+n) (Poisson), (beta-1)/(beta+n-1) (exponential),
    sigma0^2/(sigma0^2+n beta^2) (normal mean) and 2 alpha/(2 alpha+S)
    (normal precision).  Written without 1 - c, which cancels for c near 1."""
    f = model.family
    if f is ConjugateFamily.POISSON:
        return model.alpha / stats.n
    if f is ConjugateFamily.EXPONENTIAL:
        return (model.beta - 1) / stats.n
    if f is ConjugateFamily.NORMAL_MEAN:
        return model.sigma0_sq / (stats.n * model.beta * model.beta)
    return 2 * model.alpha / stats.sum_sq_dev


# Step limit of conjugate_iterative_limit.
MAX_ITER = 10**6


def conjugate_iterative_limit(
    model: ConjugateModel, stats: SampleStats, tol: float = 1e-12
) -> Estimate:
    """Iterate expectation replacement until the posterior mean stabilizes.

    Each step re-solves the free hyperparameter so the prior expectation
    equals the previous posterior mean, then recomputes the posterior mean.
    Converges geometrically to the family's MLE whenever the contraction is
    strict; degenerate configurations that freeze the iteration away from the
    MLE (zero prior variance, zero squared deviation) are rejected up front.

    The error shrinks by the family's known factor c each step, so a step
    d_k leaves d_k * c / (1 - c) still to go; the iteration stops when that
    is below ``tol`` (or a step is exactly 0) and reports it as the
    residual.  A small step alone says little when c is near 1.  ``tol``
    must be positive and finite (ValueError otherwise).
    """
    check_tol(tol, "conjugate_iterative_limit")
    f = model.family
    if f is ConjugateFamily.NORMAL_MEAN and model.beta * model.beta == 0:
        raise InvalidStats("normal-mean: zero prior variance freezes the iteration at alpha")
    if f is ConjugateFamily.NORMAL_PRECISION and (
        stats.sum_sq_dev is None or stats.sum_sq_dev <= 0
    ):
        raise InvalidStats("normal-precision: iterative limit needs sum_sq_dev > 0")

    odds = _contraction_odds(model, stats)
    est = conjugate_posterior_mean(model, stats)
    for step in range(1, MAX_ITER + 1):
        model = _solve_prior_mean(model, est)
        new = conjugate_posterior_mean(model, stats)
        delta = abs(new - est)
        est = new
        remaining = delta * odds
        if remaining < tol:
            return Estimate(
                value=float(est),
                method=METHOD_FIXED_POINT,
                iterations=step,
                residual=float(remaining),
            )
    raise NoConvergence(
        f"no convergence after {MAX_ITER} iterations (last delta {delta:.3e})",
        last_value=float(est),
        residual=float(delta),
        iterations=MAX_ITER,
    )

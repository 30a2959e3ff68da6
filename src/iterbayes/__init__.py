"""Iterative Bayes estimation of a success probability from a single small
sample, with an exact-arithmetic verification suite.

The package computes the limit obtained by repeatedly replacing a chosen
characteristic of a prior (its expectation, its mode, ...) with the current
posterior mean until the two coincide.  For a triangle prior on (0, 1) and one
success in one trial, that limit is the reciprocal of the Golden Ratio,
(sqrt(5) - 1) / 2.  Everything the estimator rests on (polynomial identities,
bracket signs, combinatorial lemmas) is checked in exact rational arithmetic.
"""

from .types import BetaPrior, BinomialObs, Characteristic, Estimate, EstimationError
from .triangle import fixed_point_iterate, solve_iterative_bayes, triangle_posterior_mean

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BetaPrior",
    "BinomialObs",
    "Characteristic",
    "Estimate",
    "EstimationError",
    "characteristic_limit",
    "fixed_point_iterate",
    "iterate_binomial_characteristic",
    "solve_iterative_bayes",
    "triangle_posterior_mean",
]


def __getattr__(name: str):
    # The conjugate families load on first use (PEP 562), so that a process
    # that never reaches them, such as most CLI commands, does not import them.
    if name in ("characteristic_limit", "iterate_binomial_characteristic"):
        from . import conjugate
        return getattr(conjugate, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

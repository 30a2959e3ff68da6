"""Domain types shared across the package, plus the error hierarchy.

All types are immutable value objects validated on construction, so any
instance that exists is well formed and safe to share between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

__all__ = [
    "EstimationError",
    "DegenerateStep",
    "NoConvergence",
    "BracketFailure",
    "InvalidStats",
    "BinomialObs",
    "BetaPrior",
    "Characteristic",
    "Estimate",
    "METHOD_CLOSED_FORM",
    "METHOD_BISECTION",
    "METHOD_FIXED_POINT",
    "METHODS",
]


class EstimationError(Exception):
    """Base class for estimation failures that are reported, never clamped."""


class DegenerateStep(EstimationError):
    """A characteristic-replacement step left the admissible region
    (the solved hyperparameter no longer keeps the characteristic in (0,1))."""


class NoConvergence(EstimationError):
    """An iteration hit its step limit before meeting tolerance.

    Carries the last iterate and residual so callers can report them.
    """

    def __init__(self, message: str, last_value: float, residual: float, iterations: int):
        super().__init__(message)
        self.last_value = last_value
        self.residual = residual
        self.iterations = iterations


class BracketFailure(EstimationError):
    """The guaranteed sign change was absent: an internal-consistency failure,
    never silently widened."""


class InvalidStats(EstimationError):
    """Sample statistics do not satisfy the model variant's preconditions."""


METHOD_CLOSED_FORM = "closed-form"
METHOD_BISECTION = "bisection"
METHOD_FIXED_POINT = "fixed-point"
METHODS = (METHOD_CLOSED_FORM, METHOD_BISECTION, METHOD_FIXED_POINT)


@dataclass(frozen=True)
class BinomialObs:
    """The unique sample from a binomial model: x successes in n trials."""

    n: int
    x: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"BinomialObs: n must be >= 1, got {self.n}")
        if not 0 <= self.x <= self.n:
            raise ValueError(f"BinomialObs: need 0 <= x <= n, got x={self.x}, n={self.n}")


@dataclass(frozen=True)
class BetaPrior:
    """Beta(alpha, beta) prior on a success probability."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not self.alpha > 0 or not self.beta > 0:
            raise ValueError(f"BetaPrior: hyperparameters must be positive, got {self}")


@dataclass(frozen=True)
class Characteristic:
    """The replaced prior characteristic (alpha - a) / (alpha + beta - b).

    a = b = 0 selects the prior expectation; a = 1, b = 2 the interior extreme
    point.  When paired with a prior the value must lie strictly in (0, 1).
    """

    a: float
    b: float

    def __post_init__(self):
        if not 0 <= self.a <= self.b < math.inf:
            raise ValueError(f"Characteristic: need finite 0 <= a <= b, got {self}")


@dataclass(frozen=True)
class Estimate:
    """Solver output: the point estimate plus enough context to audit it.

    ``bracket`` (when present) is an exact rational interval over which the
    defining function changes sign, strictly containing the estimate;
    ``value_exact`` is the exact rational point the float ``value`` rounds.
    ``residual`` is, by solver: bisection, |J(value_exact)| of the solved
    polynomial J as a float; the triangle fixed point, the last
    step; the conjugate limit (also tagged fixed-point), the distance left
    to the MLE.
    """

    value: float
    method: str
    iterations: int = 0
    residual: float = 0.0
    bracket: Optional[Tuple[Fraction, Fraction]] = None
    value_exact: Optional[Fraction] = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"Estimate: unknown method tag {self.method!r}")
        if self.iterations < 0:
            raise ValueError("Estimate: iterations must be >= 0")
        if not self.residual >= 0:
            raise ValueError("Estimate: residual must be nonnegative")
        if self.bracket is not None:
            lo, hi = self.bracket
            inner = self.value_exact if self.value_exact is not None else self.value
            if not (lo < inner < hi):
                raise ValueError(f"Estimate: value {inner} outside bracket ({lo}, {hi})")

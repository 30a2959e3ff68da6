"""Quadratic-risk comparison of the triangle-prior estimator against the
classical baselines (MLE, uniform-prior Bayes, Jeffreys-prior Bayes).

The binomial sample space is tiny, so the mean squared error at each p is the
exact finite sum over x = 0..n of the binomial pmf times the squared error;
no Monte Carlo anywhere in the default path.  A seeded Monte Carlo mode exists
solely to exercise the sampling route and must agree with the exact values
within sampling error.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import sqrt
from typing import Callable, Dict, Sequence, Tuple

from . import triangle
from .types import BinomialObs

__all__ = [
    "MLE",
    "UNIFORM_BAYES",
    "JEFFREYS_BAYES",
    "ITERATIVE_BAYES_TRIANGLE",
    "EstimatorSpec",
    "standard_estimators",
    "estimates_by_x",
    "risk_at",
    "RiskTable",
    "compare",
    "monte_carlo_mse",
]

MLE = "MLE"
UNIFORM_BAYES = "UniformBayes"
JEFFREYS_BAYES = "JeffreysBayes"
ITERATIVE_BAYES_TRIANGLE = "IterativeBayesTriangle"


@dataclass(frozen=True)
class EstimatorSpec:
    """A named estimator: observation -> point estimate in [0, 1]."""

    tag: str
    fn: Callable[[BinomialObs], float]


# Risk solves only through triangle.mirrored_values.  The benchmark tracer
# (bench/tracing.py) wraps risk.solve_iterative_bayes by name and reads
# _triangle_value's cache_info(), so both names stay until it stops.
solve_iterative_bayes = triangle.solve_iterative_bayes


# One entry per (n, x); bounded so that a long session keeps a fixed
# footprint.  A risk table at n needs n + 1 entries, read from one row.
@lru_cache(maxsize=1024)
def _triangle_value(n: int, x: int) -> float:
    return _triangle_row(n)[x]


# The last row only: a table reads one n, and a row solves only x <= n/2.
@lru_cache(maxsize=1)
def _triangle_row(n: int) -> Tuple[float, ...]:
    return triangle.mirrored_values(n, 1e-13)


# The last binomial row C(n, 0), ..., C(n, n): risk_at reads one n per table.
@lru_cache(maxsize=1)
def _binomial_row(n: int) -> Tuple[int, ...]:
    return tuple(triangle._binomial_row(n))


def standard_estimators() -> Tuple[EstimatorSpec, ...]:
    """The four estimators under comparison, in canonical column order.

    The triangle estimator's ``fn`` solves a whole row: its first call at an
    n solves x = 0..n/2 and reflects the rest, and only the last n's row is
    kept, so a lone call costs about n/2 solves.  Reading x = 0..n in turn,
    as :func:`estimates_by_x` does, costs the same half row once.
    """
    return (
        EstimatorSpec(MLE, lambda obs: obs.x / obs.n),
        EstimatorSpec(UNIFORM_BAYES, lambda obs: (obs.x + 1) / (obs.n + 2)),
        EstimatorSpec(JEFFREYS_BAYES, lambda obs: (obs.x + 0.5) / (obs.n + 1)),
        EstimatorSpec(ITERATIVE_BAYES_TRIANGLE, lambda obs: _triangle_value(obs.n, obs.x)),
    )


def estimates_by_x(spec: EstimatorSpec, n: int) -> Tuple[float, ...]:
    """Estimator values for x = 0..n, validated to lie in [0, 1]."""
    values = tuple(spec.fn(BinomialObs(n, x)) for x in range(n + 1))
    for x, v in enumerate(values):
        if not 0 <= v <= 1:
            raise ValueError(f"{spec.tag}: estimate {v} at x={x} outside [0, 1]")
    return values


def risk_at(p, estimates: Sequence) -> object:
    """Mean squared error sum_x C(n,x) p^x (1-p)^(n-x) (est[x] - p)^2.

    Generic arithmetic: float inputs give a float, Fraction inputs an exact
    rational (used by tests to pin the float path).
    """
    n = len(estimates) - 1
    row = _binomial_row(n)
    total = 0
    q = 1 - p
    for x in range(n + 1):
        total += row[x] * p**x * q ** (n - x) * (estimates[x] - p) ** 2
    return total


@dataclass(frozen=True)
class RiskTable:
    """Exact MSE values over a p grid, one column per estimator."""

    n: int
    p_grid: Tuple[float, ...]
    columns: Dict[str, Tuple[float, ...]]

    def rows(self):
        """Iterate (p, value per column) in column order."""
        tags = list(self.columns)
        for i, p in enumerate(self.p_grid):
            yield (p, *(self.columns[t][i] for t in tags))


def compare(n: int, grid_size: int = 101) -> RiskTable:
    """All four estimators on an evenly spaced grid including both endpoints.

    ``risk_at`` weighs each x by C(n, x) as a float, so n is at most 1029:
    C(1030, 515) exceeds the largest float.  Larger n raises ValueError
    before any estimate is solved.
    """
    if n < 1:
        raise ValueError("compare: n must be >= 1")
    if grid_size < 2:
        raise ValueError("compare: grid_size must be >= 2")
    if n > 1029:
        raise ValueError(f"compare: n = {n} is above 1029, where C(n, n/2) "
                         "exceeds the largest float")
    grid = tuple(i / (grid_size - 1) for i in range(grid_size))
    columns: Dict[str, Tuple[float, ...]] = {}
    for spec in standard_estimators():
        values = estimates_by_x(spec, n)
        columns[spec.tag] = tuple(float(risk_at(p, values)) for p in grid)
    return RiskTable(n=n, p_grid=grid, columns=columns)


def monte_carlo_mse(
    spec: EstimatorSpec, n: int, p: float, samples: int, seed: int
) -> Tuple[float, float]:
    """Seeded Monte Carlo estimate of the MSE and its standard error.

    Exists to exercise the sampling path; must agree with :func:`risk_at`
    within a few standard errors (asserted in tests).
    """
    if samples < 2:
        raise ValueError("monte_carlo_mse: need at least 2 samples")
    import random
    rng = random.Random(seed)
    values = estimates_by_x(spec, n)
    total = 0.0
    total_sq = 0.0
    for _ in range(samples):
        x = sum(rng.random() < p for _ in range(n))
        err = (values[x] - p) ** 2
        total += err
        total_sq += err * err
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0)
    return mean, sqrt(var / samples)

"""Executable verification of the algebra behind the triangle-prior solver.

Every check here is exact (Fractions and big integers, no tolerances).  The
two load-bearing facts for the solver are (i) the estimating polynomial equals
the scaled balance-integral difference

    scale * (1-a) * [balance(1-a, n-x) - balance(a, x)],
    scale = (n+3)! / (x! (n-x)!)

coefficient for coefficient, and (ii) its signs at the bracket endpoints are
as claimed, so bisection on ((x+1)/(n+3), (x+2)/(n+3)) cannot fail.  The
remaining checks pin the classical combinatorial identities the derivation
leans on and the positivity of the core polynomial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Tuple

from .exact import ExactPoly, binomial, eval_rational, sign_at
from .triangle import balance_polynomial, estimating_polynomial
from .types import BinomialObs

__all__ = [
    "IdentityReport",
    "gould_141_sides",
    "gould_183_holds",
    "positive_core_value",
    "factorization_sides",
    "check_gould_141",
    "check_gould_183",
    "check_factorization_at",
    "check_factorization",
    "check_core_positivity_at",
    "check_core_positivity",
    "check_endpoint_signs_at",
    "check_endpoint_signs",
    "GRID",
    "run_all",
]


# Nine interior rationals j/10: the points where core-positivity compares the
# two forms of the core polynomial.
GRID = tuple(Fraction(j, 10) for j in range(1, 10))


def _check_bound(label: str, value: int) -> None:
    if value < 1:
        raise ValueError(f"{label} must be >= 1, got {value}")


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of one identity over one parameter range."""

    name: str
    params: str
    cases: int
    passed: bool
    counterexample: Optional[str] = None

    def __post_init__(self):
        if not self.passed and not self.counterexample:
            raise ValueError("IdentityReport: a failing report needs a counterexample")


def gould_141_sides(m: int, x: int) -> Tuple[Fraction, Fraction]:
    """Both sides of the alternating reciprocal sum (Gould 1.41):

        sum_{r=0}^{x} C(x, r) (-1)^r m/(m+r)  ==  1 / C(m+x, x).

    Returned as exact rationals for the caller to compare.
    """
    if m < 1:
        raise ValueError("gould_141_sides: m must be >= 1")
    if x < 0:
        raise ValueError("gould_141_sides: x must be >= 0")
    lhs = Fraction(0)
    for r in range(x + 1):
        term = Fraction(binomial(x, r) * m, m + r)
        lhs += -term if r % 2 else term
    return lhs, Fraction(1, binomial(m + x, x))


def gould_183_holds(x: int) -> bool:
    """Half-row binomial sum (Gould 1.83): sum_{k<=x} C(2x+1, k) == 4^x."""
    if x < 0:
        raise ValueError("gould_183_holds: x must be >= 0")
    return sum(binomial(2 * x + 1, k) for k in range(x + 1)) == 4**x


def positive_core_value(a, obs: BinomialObs):
    """Manifestly positive convolution form of the core polynomial:

        sum_k C(n+3, k) C(n-x-k+2, 2) a^(n-x-k) (1-a)^k,

    every term nonnegative on (0, 1); exact for rational ``a``.
    """
    n, x = obs.n, obs.x
    total = 0
    for k in range(n - x + 1):
        total += (
            binomial(n + 3, k)
            * binomial(n - x - k + 2, 2)
            * a ** (n - x - k)
            * (1 - a) ** k
        )
    return total


def factorization_sides(obs: BinomialObs) -> Tuple[ExactPoly, ExactPoly]:
    """Estimating polynomial vs. the scaled balance-difference expansion.

    The right side builds both balance integrals as polynomials in ``a``
    (composing with 1 - a for the mirrored one), subtracts, multiplies by
    (1 - a) and the factorial scale, and must reproduce the integer
    coefficients of the left side exactly.
    """
    n, x = obs.n, obs.x
    lhs = estimating_polynomial(obs).poly
    one_minus_a = ExactPoly([1, -1])
    mirrored = balance_polynomial(BinomialObs(n, n - x)).compose(one_minus_a)
    scale = Fraction(math.factorial(n + 3), math.factorial(x) * math.factorial(n - x))
    rhs = scale * (one_minus_a * (mirrored - balance_polynomial(obs)))
    return lhs, rhs


def _over_range(
    name: str, params: str, n_max: int, check_at: Callable[[BinomialObs], IdentityReport]
) -> IdentityReport:
    """Run ``check_at`` for every (n, x) with n <= n_max, summing its cases
    and stopping at the first failing observation."""
    _check_bound(f"{name}: n_max", n_max)
    cases = 0
    for n in range(1, n_max + 1):
        for x in range(n + 1):
            report = check_at(BinomialObs(n, x))
            cases += report.cases
            if not report.passed:
                return IdentityReport(name, params, cases, False, report.counterexample)
    return IdentityReport(name, params, cases, True)


def check_gould_141(bound: int = 30) -> IdentityReport:
    """Gould 1.41 for every 1 <= m <= bound and 0 <= x <= bound."""
    _check_bound("gould-1.41: bound", bound)
    name, params = "gould-1.41", f"m<=({bound}), x<=({bound})"
    cases = 0
    for m in range(1, bound + 1):
        for x in range(bound + 1):
            cases += 1
            lhs, rhs = gould_141_sides(m, x)
            if lhs != rhs:
                return IdentityReport(name, params, cases, False,
                                      f"m={m}, x={x}: {lhs} != {rhs}")
    return IdentityReport(name, params, cases, True)


def check_gould_183(max_x: int = 30) -> IdentityReport:
    _check_bound("gould-1.83: max_x", max_x)
    name, params = "gould-1.83", f"x<=({max_x})"
    for x in range(max_x + 1):
        if not gould_183_holds(x):
            return IdentityReport(name, params, x + 1, False, f"x={x}")
    return IdentityReport(name, params, max_x + 1, True)


def check_factorization_at(
    obs: BinomialObs,
    perturb: Optional[Tuple[int, int]] = None,
) -> IdentityReport:
    """Coefficient-exact comparison of the two constructions for one observation.

    ``perturb`` = (coefficient index, delta) injects a known error into the
    left side: the self-test hook proving the harness actually discriminates.
    """
    name = "estimating-polynomial-factorization"
    params = f"n={obs.n}, x={obs.x}"
    lhs, rhs = factorization_sides(obs)
    if perturb is not None:
        index, delta = perturb
        coeffs = list(lhs.coeffs)
        while len(coeffs) <= index:
            coeffs.append(Fraction(0))
        coeffs[index] += delta
        lhs = ExactPoly(coeffs)
    if lhs != rhs:
        bad = next(
            i
            for i in range(max(len(lhs.coeffs), len(rhs.coeffs)))
            if (lhs.coeffs[i : i + 1] or [0]) != (rhs.coeffs[i : i + 1] or [0])
        )
        return IdentityReport(
            name, params, 1, False,
            f"n={obs.n}, x={obs.x}: coefficient of a^{bad} differs "
            f"({(list(lhs.coeffs) + [0] * (bad + 1))[bad]} vs {(list(rhs.coeffs) + [0] * (bad + 1))[bad]})",
        )
    return IdentityReport(name, params, 1, True)


def check_factorization(
    n_max: int = 12,
    perturb: Optional[Tuple[int, int, int, int]] = None,
) -> IdentityReport:
    """Symbolic factorization check over every (n, x) with n <= n_max.

    ``perturb`` = (n, x, coefficient index, delta) forwards the self-test hook.
    """

    def at(obs: BinomialObs) -> IdentityReport:
        hit = perturb is not None and perturb[:2] == (obs.n, obs.x)
        return check_factorization_at(obs, perturb=perturb[2:] if hit else None)

    return _over_range("estimating-polynomial-factorization", f"n<=({n_max}), all x", n_max, at)


def check_core_positivity_at(obs: BinomialObs) -> IdentityReport:
    """At each point a of GRID, m = n - x: the positive convolution form of
    the core is strictly positive, and the estimating polynomial J, whose
    coefficients are written from the alternating form, equals
    2 a^(x+2) pos(a) - (m+1)(n+3) a + (m+1)(x+1) exactly.  Since J is built
    from the alternating form, the second check is the two forms agreeing."""
    name = "core-positivity"
    params = f"n={obs.n}, x={obs.x}"
    n, x = obs.n, obs.x
    coeffs = estimating_polynomial(obs).int_coeffs
    cases = 0
    for a in GRID:
        cases += 1
        pos = positive_core_value(a, obs)
        if not pos > 0:
            return IdentityReport(name, params, cases, False,
                                  f"n={n}, x={x}, a={a}: core not positive ({pos})")
        recombined = 2 * a ** (x + 2) * pos - (n - x + 1) * (n + 3) * a + (n - x + 1) * (x + 1)
        if eval_rational(coeffs, a) != recombined:
            return IdentityReport(name, params, cases, False,
                                  f"n={n}, x={x}, a={a}: polynomial != core recombination")
    return IdentityReport(name, params, cases, True)


def check_core_positivity(n_max: int = 40) -> IdentityReport:
    params = f"n<=({n_max}), all x, {len(GRID)}-point grid"
    return _over_range("core-positivity", params, n_max, check_core_positivity_at)


def check_endpoint_signs_at(obs: BinomialObs) -> IdentityReport:
    """Exact signs of the estimating polynomial at the bracket ends and at the
    uniform-prior point (x+1)/(n+2): positive at the lower end, negative at
    the upper end, and at (x+1)/(n+2) zero when n = 2x, negative for x > n/2,
    positive for x < n/2."""
    name = "endpoint-signs"
    n, x = obs.n, obs.x
    params = f"n={n}, x={x}"
    coeffs = estimating_polynomial(obs).int_coeffs

    checks = []
    checks.append((Fraction(x + 1, n + 3), 1, "lower bracket end"))
    checks.append((Fraction(x + 2, n + 3), -1, "upper bracket end"))
    if 2 * x == n:
        expected = 0
    elif 2 * x > n:
        expected = -1
    else:
        expected = 1
    checks.append((Fraction(x + 1, n + 2), expected, "uniform-prior point"))

    cases = 0
    for point, want, label in checks:
        cases += 1
        got = sign_at(coeffs, point)
        if got != want:
            return IdentityReport(
                name, params, cases, False,
                f"n={n}, x={x}: sign at {label} {point} is {got}, expected {want}",
            )
    return IdentityReport(name, params, cases, True)


def check_endpoint_signs(n_max: int = 40) -> IdentityReport:
    return _over_range("endpoint-signs", f"n<=({n_max}), all x", n_max, check_endpoint_signs_at)


def run_all(
    n_max_symbolic: int = 12,
    n_max_pointwise: int = 40,
    gould_max: int = 30,
    perturb: Optional[Tuple[int, int, int, int]] = None,
) -> List[IdentityReport]:
    """Run the whole suite; one report per identity per parameter range.

    Every bound must be >= 1 (ValueError before any check runs)."""
    for label, value in (("n_max_symbolic", n_max_symbolic),
                         ("n_max_pointwise", n_max_pointwise), ("gould_max", gould_max)):
        _check_bound(label, value)
    return [
        check_gould_141(gould_max),
        check_gould_183(gould_max),
        check_factorization(n_max_symbolic, perturb=perturb),
        check_core_positivity(n_max_pointwise),
        check_endpoint_signs(n_max_pointwise),
    ]

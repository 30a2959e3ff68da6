"""Executable verification of the algebra behind the triangle-prior solver.

Every check here is exact and, but for the two sides of gould-1.41, runs in
integers: the symbolic one compares integer coefficient tuples, the pointwise
ones evaluate in big integers.  The two load-bearing facts for the solver
are (i) the estimating polynomial equals the scaled balance-integral difference

    scale * (1-a) * [balance(1-a, n-x) - balance(a, x)],
    scale = (n+3)! / (x! (n-x)!)

coefficient for coefficient, and (ii) its signs at the bracket endpoints are
as claimed, so bisection on ((x+1)/(n+3), (x+2)/(n+3)) cannot fail.  The
remaining checks pin the classical combinatorial identities the derivation
leans on and the positivity of the core polynomial.  Core-positivity
evaluates J through the solver's own short-side evaluator,
``triangle._estimating_value``, mirror identity included, and the
manifestly positive form from one cached row per n and grid point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from typing import Callable, List, Optional, Tuple

from .exact import sign_at
from .triangle import _estimating_value, estimating_polynomial
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

    Returned as exact rationals for the caller to compare.  The left side is
    summed in integers over the common denominator L = lcm(m, ..., m+x) and
    reduced once.
    """
    if m < 1:
        raise ValueError("gould_141_sides: m must be >= 1")
    if x < 0:
        raise ValueError("gould_141_sides: x must be >= 0")
    lcm = math.lcm(*range(m, m + x + 1))
    total = sum((-1) ** r * math.comb(x, r) * (lcm // (m + r)) for r in range(x + 1))
    return Fraction(m * total, lcm), Fraction(1, math.comb(m + x, x))


def gould_183_holds(x: int) -> bool:
    """Half-row binomial sum (Gould 1.83): sum_{k<=x} C(2x+1, k) == 4^x."""
    if x < 0:
        raise ValueError("gould_183_holds: x must be >= 0")
    return sum(math.comb(2 * x + 1, k) for k in range(x + 1)) == 4**x


# One entry per point of GRID: check_core_positivity_at reads the row of
# every grid point for each x of one n before it moves on to the next n.
@lru_cache(maxsize=len(GRID))
def _positive_core_row(n: int, u: int, v: int) -> Tuple[int, ...]:
    """v^m pos_{n,n-m}(u/v) for m = 0..n: the values of
    :func:`positive_core_value` for every x of one n at a = u/v.

    With A_k = C(n+3, k) (v-u)^k, the m-th entry is
    sum_k A_k C(m-k+2, 2) u^(m-k), the coefficient of t^m in
    A(t) / (1 - u t)^3 (Graham, Knuth & Patashnik, *Concrete Mathematics*,
    sections 5.4 and 7.3), so three prefix passes S_m = u S_(m-1) + A_m
    build the whole row in O(n) steps.  Every term is a sum of nonnegative
    products for 0 <= u <= v."""
    w = v - u
    row, c, wk = [], 1, 1
    for k in range(n + 1):
        row.append(c * wk)
        c = c * (n + 3 - k) // (k + 1)
        wk *= w
    for _ in range(3):
        row = list(accumulate(row, lambda s, t: u * s + t))
    return tuple(row)


def positive_core_value(a: Fraction, obs: BinomialObs) -> int:
    """Manifestly positive convolution form of the core polynomial,

        pos(a) = sum_k C(n+3, k) C(n-x-k+2, 2) a^(n-x-k) (1-a)^k,

    every term nonnegative on (0, 1), at a = u/v scaled to the integer
    v^(n-x) pos(a): entry n - x of the row :func:`_positive_core_row`
    builds for n at a."""
    return _positive_core_row(obs.n, a.numerator, a.denominator)[obs.n - obs.x]


def _scaled_balance(n: int, x: int, scale: int) -> List[int]:
    """The coefficients of a^(x+2), ..., a^(n+2) of scale * balance(a, x),
    m = n - x: (-1)^r scale C(m, r) / ((x+r+2)(x+r+3)) for r = 0..m, each by
    exact division.  A nonzero remainder raises ValueError naming it."""
    coeffs = []
    for r in range(n - x + 1):
        c, rem = divmod(scale * math.comb(n - x, r), (x + r + 2) * (x + r + 3))
        if rem:
            raise ValueError(f"scaled balance coefficient of a^{x + r + 2} for x={x} "
                             f"leaves remainder {rem}")
        coeffs.append(-c if r % 2 else c)
    return coeffs


def _at_one_minus(coeffs: List[int]) -> List[int]:
    """Coefficients of p(1 - a) from those of p(b).  The Taylor shift to
    p(b + 1) is d passes of Pascal additions (von zur Gathen & Gerhard,
    ISSAC 1997): pass i replaces each coefficient from the i-th up by its
    sum with every higher one.  Then the odd powers change sign."""
    c = list(coeffs)
    for i in range(len(c) - 1):
        c[i:] = reversed(list(accumulate(reversed(c[i:]))))
    return [-v if k % 2 else v for k, v in enumerate(c)]


def factorization_sides(obs: BinomialObs) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Estimating polynomial vs. the scaled balance-difference expansion, as
    integer coefficient tuples, lowest degree first.

    The right side builds both balance integrals term by term, times the
    factorial scale, in integers (ValueError if a term is not one), composes
    the mirrored one with 1 - a, subtracts, and multiplies by 1 - a as
    differences of neighbouring coefficients; it must reproduce the left
    side exactly.  It never reads the closed form of the left side.
    """
    n, x = obs.n, obs.x
    lhs = estimating_polynomial(obs).int_coeffs
    scale = math.factorial(n + 3) // (math.factorial(x) * math.factorial(n - x))
    own = [0] * (x + 2) + _scaled_balance(n, x, scale)
    mirrored = _at_one_minus([0] * (n - x + 2) + _scaled_balance(n, n - x, scale))
    inner = [p - q for p, q in zip(mirrored, own)]
    rhs = [p - q for p, q in zip(inner + [0], [0] + inner)]
    while rhs and not rhs[-1]:
        rhs.pop()
    return lhs, tuple(rhs)


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
    try:
        lhs, rhs = factorization_sides(obs)
    except ValueError as exc:
        return IdentityReport(name, params, 1, False, f"n={obs.n}, x={obs.x}: {exc}")
    index, delta = perturb if perturb is not None else (0, 0)
    size = max(len(lhs), len(rhs), index + 1)
    left, right = ([*p] + [0] * (size - len(p)) for p in (lhs, rhs))
    left[index] += delta
    bad = next((i for i in range(size) if left[i] != right[i]), None)
    if bad is not None:
        return IdentityReport(
            name, params, 1, False,
            f"n={obs.n}, x={obs.x}: coefficient of a^{bad} differs ({left[bad]} vs {right[bad]})",
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
    """At each point a = u/v of GRID, m = n - x: the positive convolution form
    of the core is strictly positive, and the estimating polynomial J, whose
    coefficients are written from the alternating form, equals
    2 a^(x+2) pos(a) - (m+1)(n+3) a + (m+1)(x+1) exactly.  Since J is built
    from the alternating form, the second check is the two forms agreeing.
    Both sides are compared times v^(n+2), in integers.  J is evaluated by
    the solver's own evaluator, ``triangle._estimating_value``: the short
    core, through the mirror identity below x = n/2.  The positive form is
    read from the row :func:`positive_core_value` looks up.

    The check samples: it compares the two forms at the 9 points of GRID
    only.  Their difference is 2 a^(x+2) times a polynomial of degree at most
    n - x, so agreement there proves them equal only when n - x <= 8, and
    positivity is shown at those points, not on all of (0, 1)."""
    name = "core-positivity"
    params = f"n={obs.n}, x={obs.x}"
    n, x = obs.n, obs.x
    m = n - x
    value = _estimating_value(obs)
    cases = 0
    for a in GRID:
        cases += 1
        u, v = a.numerator, a.denominator
        pos = positive_core_value(a, obs)
        if not pos > 0:
            return IdentityReport(name, params, cases, False, f"n={n}, x={x}, a={a}: "
                                  f"core not positive ({Fraction(pos, v ** m)})")
        recombined = (2 * u ** (x + 2) * pos
                      + (m + 1) * ((x + 1) * v - (n + 3) * u) * v ** (n + 1))
        if value(u, v) != recombined:
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

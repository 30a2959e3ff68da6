"""Test-only oracles kept independent of the package's exact-arithmetic paths.

The quadrature route evaluates posterior-mean integrals in plain floating
point with adaptive Simpson; no shared code with the polynomial expansion it
cross-checks.  The weighted route is the exact reference for the package's
posterior mean: the prior's 2/m and 2/(1-m) branch weights applied to four
branch integrals and two full integrals over (0, 1), each expanded by the
binomial theorem in plain Fractions.  The closed forms are exact references
for the package's iterations: the posterior mean for one success in one
trial, and the step-m estimate of the beta-binomial characteristic
replacement with its contraction ratio.

The estimating-polynomial reference builds it as a convolution in Fractions:
the alternating core times 2 a^(x+2), plus the linear tail.  The package
writes each coefficient in closed form, and must give the same integers.

The bisection reference is the plain halving loop of exact-sign bisection:
the package's root isolation must return every field of its result, so it
stays here as the definition the faster search is held to.

The quadrature error target is relative, which needs a realistic estimate
of the integral's magnitude up front: sharply peaked integrands can make a
coarse scan underestimate it by orders, so a depth-limited first pass
integrates |f| for the scale before the tight pass runs.  A hard evaluation
budget turns any would-be runaway recursion into a loud error.
"""

from fractions import Fraction
from math import comb

from iterbayes.exact import MAX_ITER, ExactPoly, RootBracket, check_tol, eval_rational, sign_at

_BUDGET = 2_000_000


def adaptive_simpson(f, a, b, rel_tol=1e-12, panels=64, max_depth=40):
    rough = _panel_run(lambda x: abs(f(x)), a, b, panels, rel_tol=1e-6,
                       scale=None, max_depth=10)
    return _panel_run(f, a, b, panels, rel_tol, scale=abs(rough), max_depth=max_depth)


def _panel_run(f, a, b, panels, rel_tol, scale, max_depth):
    h = (b - a) / panels
    xs = [a + i * h for i in range(panels)] + [b]
    fs = [f(x) for x in xs]
    mids = [f((xs[i] + xs[i + 1]) / 2) for i in range(panels)]
    wholes = [
        (xs[i + 1] - xs[i]) / 6 * (fs[i] + 4 * mids[i] + fs[i + 1])
        for i in range(panels)
    ]
    if scale is None:
        scale = sum(abs(w) for w in wholes)
    atol = max(scale, 1e-300) * rel_tol / panels
    budget = [_BUDGET]
    return sum(
        _simpson_step(f, xs[i], xs[i + 1], fs[i], mids[i], fs[i + 1],
                      wholes[i], atol, max_depth, budget)
        for i in range(panels)
    )


def _simpson_step(f, a, b, fa, fm, fb, whole, atol, depth, budget):
    budget[0] -= 1
    if budget[0] <= 0:
        raise RuntimeError("adaptive_simpson: evaluation budget exhausted "
                           f"(interval around [{a}, {b}])")
    m = (a + b) / 2
    lm, rm = (a + m) / 2, (m + b) / 2
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6 * (fa + 4 * flm + fm)
    right = (b - m) / 6 * (fm + 4 * frm + fb)
    delta = left + right - whole
    if depth <= 0 or abs(delta) <= 15 * atol:
        return left + right + delta / 15
    return (
        _simpson_step(f, a, m, fa, flm, fm, left, atol / 2, depth - 1, budget)
        + _simpson_step(f, m, b, fm, frm, fb, right, atol / 2, depth - 1, budget)
    )


def quadrature_posterior_mean(mode, n, x, rel_tol=1e-12):
    """Posterior mean of p under the triangle prior, by float quadrature."""
    w_left = 2.0 / mode
    w_right = 2.0 / (1.0 - mode)
    num = w_left * adaptive_simpson(
        lambda p: p ** (x + 2) * (1 - p) ** (n - x), 0.0, mode, rel_tol
    ) + w_right * adaptive_simpson(
        lambda p: p ** (x + 1) * (1 - p) ** (n - x + 1), mode, 1.0, rel_tol
    )
    den = w_left * adaptive_simpson(
        lambda p: p ** (x + 1) * (1 - p) ** (n - x), 0.0, mode, rel_tol
    ) + w_right * adaptive_simpson(
        lambda p: p**x * (1 - p) ** (n - x + 1), mode, 1.0, rel_tol
    )
    return num / den


def _integral_t_pow(a, b, upper):
    """Exact integral_0^upper t^a (1-t)^b dt by the binomial theorem."""
    return sum(
        Fraction((-1) ** k * comb(b, k), a + k + 1) * upper ** (a + k + 1)
        for k in range(b + 1)
    )


def weighted_posterior_mean(mode, n, x):
    """Posterior mean of p under the triangle prior, exactly, as the ratio of
    the weighted left-branch integral over (0, m) plus the weighted
    right-branch integral over (m, 1), for numerator and denominator."""
    m = Fraction(mode)
    w_left, w_right = 2 / m, 2 / (1 - m)

    def branches(left, right):
        full = _integral_t_pow(*right, Fraction(1))
        return (w_left * _integral_t_pow(*left, m)
                + w_right * (full - _integral_t_pow(*right, m)))

    num = branches((x + 2, n - x), (x + 1, n - x + 1))
    den = branches((x + 1, n - x), (x, n - x + 1))
    return num / den


def posterior_mean_one_success(mode):
    """Closed-form posterior mean for one success in one trial:
    (1 + m + m^2) / (2(1 + m)).  Exact for Fraction input."""
    return (1 + mode + mode * mode) / (2 * (1 + mode))


def contraction_ratio(prior, char, obs):
    """Contraction ratio c = (beta0 - (b - a)) / (beta0 + n - x) of the
    characteristic replacement, with beta0 the prior's beta, exactly."""
    b0 = Fraction(prior.beta)
    a, b = Fraction(char.a), Fraction(char.b)
    return (b0 - (b - a)) / (b0 + obs.n - obs.x)


def closed_form_step_estimate(prior, char, obs, m):
    """Closed form of the step-m posterior mean of the characteristic
    replacement, exactly in rationals, with beta0 the prior's beta.

    Two branches: when a = b and x = n the solved hyperparameter grows
    linearly and the estimate is
        (alpha + n + m(a + n)) / (alpha + n + beta0 + m(a + n));
    otherwise it is the geometric form in the contraction ratio c,
        [(alpha+x)(1-c)c^m + (a+x)(1-c^m)]
        / [(alpha+x)(1-c)c^m - (a+x)c^m + n + b].
    """
    alpha, b0 = Fraction(prior.alpha), Fraction(prior.beta)
    a, b = Fraction(char.a), Fraction(char.b)
    n, x = obs.n, obs.x
    if a == b and x == n:
        return (alpha + n + m * (a + n)) / (alpha + n + b0 + m * (a + n))
    c = contraction_ratio(prior, char, obs)
    cm = c**m
    num = (alpha + x) * (1 - c) * cm + (a + x) * (1 - cm)
    den = (alpha + x) * (1 - c) * cm - (a + x) * cm + n + b
    return num / den


def alternating_core(obs):
    """Core of the estimating polynomial in alternating-sum form,
    sum_r C(n+3, n-x-r) C(x+r, r) (-1)^r a^r, as an ExactPoly."""
    n, x = obs.n, obs.x
    return ExactPoly([(-1) ** r * comb(n + 3, n - x - r) * comb(x + r, r)
                      for r in range(n - x + 1)])


def reference_estimating_coeffs(obs):
    """2 a^(x+2) * core(a) - (n-x+1)(n+3) a + (n-x+1)(x+1), built by
    Fraction polynomial arithmetic and returned as integers."""
    n, x = obs.n, obs.x
    head = ExactPoly([0] * (x + 2) + [2]) * alternating_core(obs)
    tail = ExactPoly([(n - x + 1) * (x + 1), -(n - x + 1) * (n + 3)])
    poly = head + tail
    assert all(c.denominator == 1 for c in poly.coeffs)
    return tuple(int(c) for c in poly.coeffs)


def reference_bisect_root(coeffs, lo, hi, tol=Fraction(1, 10**12)):
    """Exact-sign bisection of (lo, hi) until it is narrower than ``tol``:
    the midpoint of the last interval with its exact residual, or a midpoint
    that is an exact root with zero residual and the interval it halved."""
    tol = check_tol(tol, "bisect_root")
    lo, hi = Fraction(lo), Fraction(hi)
    if not lo < hi:
        raise ValueError(f"bisect_root: need lo < hi, got {lo} >= {hi}")
    s_lo = sign_at(coeffs, lo)
    s_hi = sign_at(coeffs, hi)
    if s_lo == 0 or s_hi == 0 or s_lo == s_hi:
        raise ValueError(
            f"bisect_root: no strict sign change over ({lo}, {hi}): "
            f"signs ({s_lo}, {s_hi})"
        )

    iterations = 0
    while hi - lo >= tol:
        iterations += 1
        if iterations > MAX_ITER:
            raise RuntimeError("bisect_root: iteration limit exceeded")
        mid = (lo + hi) / 2
        s = sign_at(coeffs, mid)
        if s == 0:
            return RootBracket(mid, lo, hi, iterations, Fraction(0))
        if s == s_lo:
            lo = mid
        else:
            hi = mid
    mid = (lo + hi) / 2
    return RootBracket(mid, lo, hi, iterations + 1, abs(eval_rational(coeffs, mid)))

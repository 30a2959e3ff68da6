"""Test-only oracles kept independent of the package's exact-arithmetic paths.

The quadrature route evaluates posterior-mean integrals in plain floating
point with adaptive Simpson; no shared code with the polynomial expansion it
cross-checks.  The weighted route is the exact reference for the package's
posterior mean: the prior's 2/m and 2/(1-m) branch weights applied to four
branch integrals and two full integrals over (0, 1), each expanded by the
binomial theorem in plain Fractions.  The Bernstein route is the exact
reference for the mean's unreduced integers: the full rows of Bernstein
weights of its numerator and denominator, each evaluated in big integers;
the package sums one short binomial tail instead and must give the same
integer pair.  The closed forms are exact references for the package's
iterations: the posterior mean for one success in one trial, and the step-m
estimate of the beta-binomial characteristic replacement with its
contraction ratio.

The re-solve route is the exact reference for the conjugate families'
expectation replacement: each step re-solves one hyperparameter so that the
prior mean equals the current estimate, then takes the textbook posterior
mean.  The package steps the pseudo-count form instead and must give the same
rational at every state; its stall residual must equal the re-solved step
times 1/(1 - c), the distance left to the limit.

The estimating-polynomial reference builds it as a convolution in Fractions:
the alternating core times 2 a^(x+2), plus the linear tail.  The package
writes each coefficient in closed form, and must give the same integers.

The geometric polynomial is the closed form for x successes before the
first failure, (x+1) a^(x+3) - (x+4) a^(x+2) + (x+4) a - (x+1), written term
by term: it rises through its root.  The package divides the binomial
estimating polynomial for (n, x) = (x+1, x) by 2 instead, the same
polynomial negated, and must give the same solve.

The power and antiderivative helpers integrate a polynomial in plain
Fraction arithmetic: the independent route to the balance integral.  The
balance polynomial is that integral's term-by-term expansion in Fractions,
and the factorization reference builds the verifier's right side from it by
Fraction polynomial arithmetic, composition with 1 - a included; the package
builds the same side in integers and must give the same tuple.

The positive-core reference sums the Bernstein weights
C(n+3, m-i) C(i+2, 2) of u^i (v-u)^(m-i), m = n - x, one observation at a
time: the package builds a whole row for one n by three prefix passes and
must give the same integer for every x.

The two-pass bounds are the reference for the package's enclosure of J:
the same positive core form evaluated twice, once in a context that rounds
toward -inf and once in one that rounds toward +inf, so that each bound
rests on the monotonicity of its operations alone.  The package makes one
pass, rounding up, and takes the lower bound from an a-priori count of its
roundings; its bounds must hold J, equal these at one end and be wider at
the other by no more than that count allows.

The homogeneous-evaluation reference is the single Horner loop over all
coefficients: the package splits long inputs into balanced halves and must
give the same integer.

The bisection reference is the plain halving loop of exact-sign bisection:
the package's root isolation must return every field of its result, so it
stays here as the definition the faster search is held to.  The package's
root isolation takes a homogeneous evaluator of a polynomial that falls
through its root; ``dense_bisect_root`` hands it one over a dense coefficient
tuple, negated where the polynomial rises, so that tests can compare the two
on the same polynomial.

The quadrature error target is relative, which needs a realistic estimate
of the integral's magnitude up front: sharply peaked integrands can make a
coarse scan underestimate it by orders, so a depth-limited first pass
integrates |f| for the scale before the tight pass runs.  A hard evaluation
budget turns any would-be runaway recursion into a loud error.
"""

import dataclasses
import decimal
from fractions import Fraction
from math import comb, factorial

import iterbayes.exact as exact
import iterbayes.triangle as triangle
from iterbayes.conjugate import ConjugateFamily
from iterbayes.exact import MAX_ITER, ExactPoly, bisect_root, check_tol, eval_rational, sign_at
from iterbayes.types import METHOD_BISECTION, BinomialObs, Estimate

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


def reference_mean_ratio(mode, n, x):
    """Unreduced numerator and denominator of the posterior mean at ``mode``
    from the full Bernstein weights in the mode m, with r = n - x + 1,

        num_j = r C(n+3, j) (j <= x+1),  (x+2) C(n+3, j+1) (j > x+1),  j = 0..n+2
        den_j = r C(n+2, j) (j <= x),    (x+1) C(n+2, j+1) (j > x),    j = 0..n+1

    of the branch integrals scaled by m(1-m)/2, evaluated at m = p/q as
    ((x+1) H(num), (n+3) q H(den)) with H(c) = sum_j c_j p^j (q-p)^(d-j)."""
    p, q = mode.as_integer_ratio()
    r = n - x + 1
    row2 = [1]
    for j in range(n + 2):
        row2.append(row2[-1] * (n + 2 - j) // (j + 1))
    row3 = [a + b for a, b in zip(row2 + [0], [0] + row2)]  # Pascal's rule
    num = [r * row3[j] if j <= x + 1 else (x + 2) * row3[j + 1] for j in range(n + 3)]
    den = [r * row2[j] if j <= x else (x + 1) * row2[j + 1] for j in range(n + 2)]
    return ((x + 1) * exact._homogeneous_value(num, p, q - p),
            (n + 3) * q * exact._homogeneous_value(den, p, q - p))


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


def reference_posterior_mean(model, stats):
    """Each conjugate family's posterior mean in its textbook form."""
    f = model.family
    if f is ConjugateFamily.POISSON:
        return (model.beta + stats.sum_x) / (model.alpha + stats.n)
    if f is ConjugateFamily.EXPONENTIAL:
        return (model.alpha + stats.sum_x) / (model.beta + stats.n - 1)
    if f is ConjugateFamily.NORMAL_MEAN:
        var = model.beta * model.beta
        return (model.alpha * model.sigma0_sq + stats.sum_x * var) / (
            model.sigma0_sq + stats.n * var)
    return (2 * model.beta + stats.n) / (2 * model.alpha + stats.sum_sq_dev)


def reference_resolve_step(model, stats, est):
    """One expectation replacement by re-solving the hyperparameter whose
    solve is linear, so that the prior mean equals ``est``: beta = alpha est
    (Poisson, normal precision), alpha = est (beta - 1) (exponential) or
    alpha = est (normal mean); then the posterior mean under that prior."""
    f = model.family
    if f is ConjugateFamily.EXPONENTIAL:
        model = dataclasses.replace(model, alpha=est * (model.beta - 1))
    elif f is ConjugateFamily.NORMAL_MEAN:
        model = dataclasses.replace(model, alpha=est)
    else:
        model = dataclasses.replace(model, beta=model.alpha * est)
    return reference_posterior_mean(model, stats)


def reference_distance_left(model, stats, est):
    """Exact distance from ``est`` to the limit of expectation replacement:
    the re-solved step from ``est`` in rationals, times 1/(1 - c), with the
    contraction c = w0/(w0 + w1) of each family's error per step."""

    def exact(obj, *fields):
        return dataclasses.replace(obj, **{
            f: Fraction(getattr(obj, f)) for f in fields if getattr(obj, f) is not None})

    model = exact(model, "alpha", "beta", "sigma0_sq")
    stats = exact(stats, "sum_x", "sum_sq_dev")
    est = Fraction(est)
    f = model.family
    if f is ConjugateFamily.POISSON:
        w0, w1 = model.alpha, stats.n
    elif f is ConjugateFamily.EXPONENTIAL:
        w0, w1 = model.beta - 1, stats.n
    elif f is ConjugateFamily.NORMAL_MEAN:
        w0, w1 = model.sigma0_sq, stats.n * model.beta * model.beta
    else:
        w0, w1 = 2 * model.alpha, stats.sum_sq_dev
    return abs(reference_resolve_step(model, stats, est) - est) * (w0 + w1) / w1


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


def bernstein_weights(n, x):
    """d times the weights w_i of J = sum_i w_i a^i (1-a)^(d-i), d = n + 2, in
    closed form: 2d C(n+3, d-i) C(i-x, 2) + (m+1)((x+1)d - (n+3)i) C(d, i),
    m = n - x, with C(i-x, 2) = 0 for i <= x + 1."""
    d, m = n + 2, n - x
    return tuple(2 * d * comb(n + 3, d - i) * (comb(i - x, 2) if i > x else 0)
                 + (m + 1) * ((x + 1) * d - (n + 3) * i) * comb(d, i) for i in range(d + 1))


def uniqueness_margin(n, x, i):
    """D(i) = (i+1)(m+1)((n+3)i - (x+1)d) - d(n+3)(i-x)(i-x-1), d = n + 2 and
    m = n - x.  For x <= i <= n + 1 it is -(i+1) d w_i / C(d, i), w_i the
    Bernstein weight of :func:`bernstein_weights`, since C(n+3, d-i) =
    (n+3) C(d, i)/(i+1): the weight is negative exactly where D(i) > 0."""
    d = n + 2
    return (i + 1) * (n - x + 1) * ((n + 3) * i - (x + 1) * d) - d * (n + 3) * (i - x) * (i - x - 1)


def from_bernstein(weights):
    """Monomial coefficients of sum_i weights[i] a^i (1-a)^(d-i)."""
    d = len(weights) - 1
    return tuple(sum(weights[i] * comb(d - i, k - i) * (-1) ** (k - i) for i in range(k + 1))
                 for k in range(d + 1))


def geometric_polynomial(x):
    """(x+1) a^(x+3) - (x+4) a^(x+2) + (x+4) a - (x+1) for x >= 0, as
    integer coefficients lowest degree first."""
    coeffs = [0] * (x + 4)
    coeffs[0] = -(x + 1)
    coeffs[1] = x + 4
    coeffs[x + 2] = -(x + 4)
    coeffs[x + 3] = x + 1
    return tuple(coeffs)


def poly_power(poly, exponent):
    """``poly`` to a nonnegative integer power, by repeated multiplication."""
    result = ExactPoly([1])
    for _ in range(exponent):
        result = result * poly
    return result


def antiderivative(poly):
    """Antiderivative of an ExactPoly with zero constant term."""
    return ExactPoly([0] + [c / (i + 1) for i, c in enumerate(poly.coeffs)])


def balance_polynomial(obs):
    """The strictly increasing weight a^(x+2) ∫ t^(x+1)(1-t)(1-a t)^(n-x) dt
    as an ExactPoly in a, from the term-by-term expansion
    a^(x+2) * sum_r C(n-x, r) (-1)^r a^r / ((x+r+2)(x+r+3))."""
    n, x = obs.n, obs.x
    return ExactPoly([0] * (x + 2) + [Fraction((-1) ** r * comb(n - x, r), (x + r + 2) * (x + r + 3))
                                      for r in range(n - x + 1)])


def reference_factorization_rhs(obs):
    """scale * (1-a) * [balance(1-a, n-x) - balance(a, x)],
    scale = (n+3)!/(x!(n-x)!), built by Fraction polynomial arithmetic and
    returned as integers."""
    n, x = obs.n, obs.x
    one_minus_a = ExactPoly([1, -1])
    mirrored = balance_polynomial(BinomialObs(n, n - x)).compose(one_minus_a)
    scale = Fraction(factorial(n + 3), factorial(x) * factorial(n - x))
    poly = scale * (one_minus_a * (mirrored - balance_polynomial(obs)))
    assert all(c.denominator == 1 for c in poly.coeffs)
    return tuple(int(c) for c in poly.coeffs)


def reference_positive_core(a, obs):
    """v^(n-x) times the positive convolution form of the core at a = u/v,
    sum_i C(n+3, m-i) C(i+2, 2) u^i (v-u)^(m-i) with m = n - x."""
    u, v = a.numerator, a.denominator
    m = obs.n - obs.x
    return sum(comb(obs.n + 3, m - i) * comb(i + 2, 2) * u**i * (v - u) ** (m - i)
               for i in range(m + 1))


def reference_bounds(n, x, bits):
    """Bounds (lo, hi) of J(u/v) for (n, x) as ``triangle._bounds`` gives
    them, by two monotone passes over J = 2 a^(n+2) S(r) - (m+1) G/v on the
    short side, one rounded toward -inf and one toward +inf, each with its
    own weights; the linear term is rounded the other way, and below n/2
    the mirror identity's factor -(v-u)/u is applied as an interval.  The
    contexts carry ``triangle._bounds``' digits, exponent range and traps."""
    big = max(x, n - x)
    m = n - big
    digits = (bits + 93) * 30103 // 100000 + len(str(8 * n + 16)) + 4
    low, high = (decimal.Context(prec=digits, rounding=rounding,
                                 Emin=decimal.MIN_EMIN, Emax=decimal.MAX_EMAX,
                                 traps=triangle._TRAPS)
                 for rounding in (decimal.ROUND_FLOOR, decimal.ROUND_CEILING))
    cores = {ctx: triangle._core_weights(ctx, n, m) for ctx in (low, high)}

    def first_term(ctx, u, v):
        top, weights = cores[ctx]
        r = ctx.divide(v - u, u)
        s = top
        for w in weights:
            s = ctx.fma(s, r, w)
        a = ctx.divide(u, v)
        power = a
        for bit in bin(n + 2)[3:]:
            power = ctx.multiply(power, power)
            if bit == "1":
                power = ctx.multiply(power, a)
        return ctx.multiply(power, s)

    def bounds(u, v):
        mirror = big != x
        if mirror:
            u = v - u
        linear = (m + 1) * ((n + 3) * u - (big + 1) * v)
        lo = low.subtract(first_term(low, u, v), high.divide(linear, v))
        hi = high.subtract(first_term(high, u, v), low.divide(linear, v))
        if mirror:
            return (high.divide(high.multiply(hi, u), v - u).copy_negate(),
                    low.divide(low.multiply(lo, u), v - u).copy_negate())
        return lo, hi

    return bounds


def reference_homogeneous_value(coeffs, u, v):
    """v**d * p(u/v) for integer coefficients by one Horner loop."""
    d = len(coeffs) - 1
    acc = coeffs[d]
    vpow = 1
    for i in range(d - 1, -1, -1):
        vpow *= v
        acc = acc * u + coeffs[i] * vpow
    return acc


def dense_bisect_root(coeffs, lo, hi, tol=Fraction(1, 10**12)):
    """``bisect_root`` on an integer coefficient tuple: each evaluation is one
    ``exact._homogeneous_value`` call, looked up on the module.  A polynomial
    that rises from a negative value at lo to a positive one at hi is passed
    negated, so that the search sees a falling sign change; every field of
    the Estimate is the same for both.  The ends' signs are read with the
    reference Horner loop, so that only the search's evaluations count.  Every
    other input, falling or with a zero or like signs at the ends, is passed
    as it is."""
    at_lo, at_hi = (reference_homogeneous_value(coeffs, *Fraction(end).as_integer_ratio())
                    for end in (lo, hi))
    sign = -1 if at_lo < 0 < at_hi else 1
    return bisect_root(lambda u, v: sign * exact._homogeneous_value(coeffs, u, v),
                       len(coeffs) - 1, lo, hi, tol)


def reference_bisect_root(coeffs, lo, hi, tol=Fraction(1, 10**12)):
    """Exact-sign bisection of (lo, hi) until it is narrower than ``tol``:
    the midpoint of the last interval with its residual, the reduced exact
    fraction rounded to a float, or a midpoint that is an exact root with
    zero residual and the interval it halved."""
    tol = Fraction(*check_tol(tol, "bisect_root"))
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
            return Estimate(float(mid), METHOD_BISECTION, iterations, 0.0, (lo, hi), mid)
        if s == s_lo:
            lo = mid
        else:
            hi = mid
    mid = (lo + hi) / 2
    return Estimate(float(mid), METHOD_BISECTION, iterations + 1,
                    float(abs(eval_rational(coeffs, mid))), (lo, hi), mid)

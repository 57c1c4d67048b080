"""Joint selection of the centering parameter sigma and step length alpha.

Each iteration minimizes the predicted duality gap mu*(1 - alpha*(1 - sigma))
subject to staying in the central-path neighborhood, which reduces to the
quartic inequality

    f(sigma, alpha) = h(sigma) - (theta mu sigma / alpha)^2 <= 0,

where h(sigma) = ||p - sigma q + sigma^2 r||^2 = h0 s^4 + h1 s^3 + h2 s^2
+ h3 s + h4 (s = sigma) is the step quartic of
:func:`optlp.direction.step_polynomials`. The minimizers are found among:
the smallest root of f(sigma, 1) in (0,1) paired with alpha = 1, the roots
of the stationarity quartic

    g(sigma) = (2 h0 + h1) s^4 + (2 h2 + h1) s^3 + 3 h3 s^2
               + (4 h4 - h3) s - 2 h4

each paired with alpha = theta mu sigma / sqrt(h(sigma)), and the endpoint
sigma = 1. Only roots in (0, 1) matter: the roots of each quartic's
derivatives cut [0, 1] into pieces on which it is monotone, and each sign
change is refined by safeguarded Newton-bisection. h, f(., 1) and g are
all tuples of their coefficients, highest degree first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DegenerateInputError

# ||p|| / (mu sqrt(n)) at or below this selects the exact Newton step
A0_ZERO_REL_TOL = 1e-12


@dataclass
class CandidatePair:
    """One admissible (sigma, alpha) choice and the gap it predicts."""

    sigma: float
    alpha: float
    predicted_mu: float
    origin: str  # a0_zero | f_root_alpha1 | g_root | sigma_one | shortstep


def f_alpha1_poly(h, theta: float, mu: float) -> tuple[float, ...]:
    """f(., 1) = h - (theta mu sigma)^2 from the step quartic h."""
    return (h[0], h[1], h[2] - (theta * mu) ** 2, h[3], h[4])


def g_poly(h) -> tuple[float, ...]:
    """The stationarity quartic g from the step quartic h."""
    return (2.0 * h[0] + h[1], 2.0 * h[2] + h[1], 3.0 * h[3], 4.0 * h[4] - h[3], -2.0 * h[4])


# ---------------------------------------------------------------------------
# root finding on [0, 1]

_UNIT_ROUNDOFF = 2.0**-53


def _horner(coeffs, x: float) -> tuple[float, float]:
    """p(x) by Horner's rule and its running rounding-error bound (Higham,
    Accuracy and Stability of Numerical Algorithms, Alg. 5.1)."""
    y = coeffs[0]
    bound = 0.5 * abs(y)
    for c in coeffs[1:]:
        y = y * x + c
        bound = bound * abs(x) + abs(y)
    return y, _UNIT_ROUNDOFF * (2.0 * bound - abs(y))


def _resolved(coeffs, x: float) -> float:
    """p(x), or 0.0 when rounding error could account for all of it."""
    y, bound = _horner(coeffs, x)
    return 0.0 if abs(y) <= bound else y


def _bracketed_root(coeffs, deriv, lo: float, hi: float, f_lo: float) -> float:
    """The root of a polynomial monotone on [lo, hi] whose sign there changes
    from that of ``f_lo``: Newton steps safeguarded by bisection (rtsafe,
    Numerical Recipes 9.4), run until p(x) is lost in rounding error or the
    bracket holds no float between its ends."""
    x = 0.5 * (lo + hi)
    last_step = hi - lo
    while lo < x < hi:
        fx = _resolved(coeffs, x)
        if fx == 0.0:
            return x
        if (fx < 0.0) == (f_lo < 0.0):
            lo = x
        else:
            hi = x
        slope = _horner(deriv, x)[0]
        newton = x - fx / slope if slope != 0.0 else x
        if lo < newton < hi and abs(newton - x) < 0.5 * last_step:
            last_step = abs(newton - x)
            x = newton
        else:
            last_step = hi - lo
            x = 0.5 * (lo + hi)
    return x


def _unit_roots(coeffs, hi: float) -> list[float]:
    """Sorted roots in (0, hi) of the polynomial with ``coeffs`` (highest
    degree first), 0 < hi <= 1.

    The roots of p' split [0, hi] into pieces on which p is monotone, so
    each piece whose ends differ in sign brackets exactly one root. A knot
    where p is indistinguishable from zero is a root itself (a double root,
    where p touches zero, has no sign change to bracket).
    """
    degree = len(coeffs) - 1
    if degree < 1:
        return []
    deriv = [c * (degree - i) for i, c in enumerate(coeffs[:-1])]
    roots = []
    x0, f0 = 0.0, _resolved(coeffs, 0.0)
    for x1 in _unit_roots(deriv, hi) + [hi]:
        f1 = _resolved(coeffs, x1)
        if f0 < 0.0 < f1 or f1 < 0.0 < f0:
            roots.append(_bracketed_root(coeffs, deriv, x0, x1, f0))
        elif f1 == 0.0 and x1 < hi:
            roots.append(x1)
        x0, f0 = x1, f1
    return roots


def real_roots_in_open_unit(coeffs, hi: float = 1.0) -> list[float]:
    """Sorted real roots strictly inside (0, hi), a double root once, of the
    polynomial whose coefficients, highest degree first, are the sequence
    ``coeffs``; 0 < hi <= 1. Only signs of the polynomial and its
    derivatives are compared, so the result does not depend on the scale
    of the coefficients."""
    if not any(coeffs):
        raise DegenerateInputError("all polynomial coefficients are zero")
    # a bracket against 0 or hi with no float inside it ends on that bound
    return [x for x in _unit_roots(coeffs, hi) if 0.0 < x < hi]


# ---------------------------------------------------------------------------
# step selection


def _pair(mu: float, sigma: float, alpha: float, origin: str) -> CandidatePair:
    # mu (1 - alpha (1 - sigma)) summed as two nonnegative terms: the
    # factored form cancels when alpha (1 - sigma) is near 1
    return CandidatePair(sigma, alpha, mu * ((1.0 - alpha) + alpha * sigma), origin)


def select_step(h, theta: float, mu: float, n: int) -> CandidatePair:
    """Choose the (sigma, alpha) pair minimizing the predicted duality gap,
    from the step quartic ``h`` of an iterate with gap ``mu`` and ``n``
    variables in the ``theta``-neighborhood.

    Candidate sources, in the order they are gathered:

    1. h(0) = ||p||^2 ~ 0 (||p|| negligible against mu sqrt(n)): the pure
       Newton step sigma = 0, alpha = 1 reaches an exact solution.
    2. The smallest root of f(sigma, 1) in (0, 1), with alpha = 1.
    3. Every root sigma of g in (0, 1), and the endpoint sigma = 1, with
       alpha = min(1, theta mu sigma / sqrt(h(sigma))) (1 where h <= 0).
       A root clamped to alpha = 1 satisfies f(sigma, 1) <= 0, so it lies
       at or above the f root of item 2 and never beats it. The endpoint
       predicts mu itself and wins only when float64 finds no other
       candidate: with h(0) > 0, g(0) = -2 h(0) < 0 <= 2 h(1) = g(1).

       Where item 2 found a root sigma_f, g is searched on (0, sigma_f)
       alone and the endpoint is skipped: a pair with alpha <= 1 predicts
       mu (1 - alpha (1 - sigma)) >= sigma mu, so no sigma >= sigma_f
       predicts below the f root's sigma_f mu, and a tie goes to the f
       root.

    The set is complete: for fixed sigma the best alpha is min(1, theta mu
    sigma / sqrt(h(sigma))), with which the predicted gap rises with sigma
    where alpha = 1 and is stationary elsewhere only at roots of g. Ties are
    broken toward larger alpha, then smaller sigma.
    """
    if math.sqrt(max(h[4], 0.0)) <= A0_ZERO_REL_TOL * mu * math.sqrt(n):
        return CandidatePair(sigma=0.0, alpha=1.0, predicted_mu=0.0, origin="a0_zero")

    f_roots = real_roots_in_open_unit(f_alpha1_poly(h, theta, mu))
    if f_roots:
        candidates = [_pair(mu, f_roots[0], 1.0, "f_root_alpha1")]
        sigmas = real_roots_in_open_unit(g_poly(h), f_roots[0])
    else:
        candidates = []
        sigmas = real_roots_in_open_unit(g_poly(h)) + [1.0]
    for sigma in sigmas:
        h_sigma = _horner(h, sigma)[0]
        alpha = 1.0 if h_sigma <= 0.0 else min(1.0, theta * mu * sigma / math.sqrt(h_sigma))
        candidates.append(_pair(mu, sigma, alpha, "g_root" if sigma < 1.0 else "sigma_one"))
    return min(candidates, key=lambda cp: (cp.predicted_mu, -cp.alpha, cp.sigma))

"""One path-following iteration with two step rules (the paper's joint
choice of sigma and alpha from two quartics, and the classical short step
sigma = 1 - 0.4/sqrt(n), alpha = 1), starting-point strategies and
synthetic problem generation."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .direction import (
    assemble_direction,
    build_factors,
    decompose,
    step_polynomials,
)
from .errors import IllConditionedError, InvalidInputError, NoFeasibleStepError
from .model import (
    Iterate,
    SolverConfig,
    StandardLp,
    gap_and_distance,
    residuals,
    stopping_criterion,
)
from .stepsel import CandidatePair, select_step

log = logging.getLogger("optlp.solver")

# How far start residuals may be from zero before a start is rejected.
START_RESIDUAL_TOL = 1e-8

# Acceptance slack on the neighborhood test, to absorb roundoff on steps
# that exact arithmetic guarantees feasible; a start passes the same test,
# so that a point the solver accepted is accepted again as a start.
NEIGHBORHOOD_SLACK = 1e-8

# Halvings of alpha the safeguard tries before it declares a breakdown.
SAFEGUARD_BACKTRACKS = 30

# The short step's default neighborhood radius, the one its theory assumes;
# the optimal choice defaults to SolverConfig's.
SHORTSTEP_THETA = 0.4

STATUS_OPTIMAL = "optimal"
STATUS_MAX_ITER = "max_iter"
STATUS_BREAKDOWN = "numerical_breakdown"
STATUS_NO_START = "no_interior_start"


@dataclass(frozen=True)
class IterationRecord:
    """State after one accepted iteration (k is 1-based)."""

    k: int
    mu: float
    sigma: float
    alpha: float
    neighborhood_dist: float
    primal_res: float
    dual_res: float
    origin: str


@dataclass
class SolveReport:
    status: str
    iterations: list[IterationRecord]
    final: Iterate
    objective: float

    @property
    def iteration_count(self) -> int:
        return len(self.iterations)


def _in_neighborhood(mu: float, dist: float, theta: float) -> bool:
    """The neighborhood test of starts and steps alike: mu > 0 and dist <=
    theta mu, up to NEIGHBORHOOD_SLACK. A NaN (an overflowed product) fails
    it."""
    return mu > 0.0 and dist <= theta * (1.0 + NEIGHBORHOOD_SLACK) * mu


def _start_rejected(lp: StandardLp, start: Iterate, theta: float) -> str | None:
    # each test is written so that a NaN (an overflowed product) fails it
    pr, dr = residuals(lp, start)
    if not (pr <= START_RESIDUAL_TOL and dr <= START_RESIDUAL_TOL):
        return f"start residuals ({pr:.2e}, {dr:.2e}) exceed {START_RESIDUAL_TOL:.0e}"
    if not math.isfinite(start.mu):
        return f"start gap mu = {start.mu} is not finite"
    dist = start.neighborhood_dist
    if not _in_neighborhood(start.mu, dist, theta):
        return f"start lies outside the theta={theta} neighborhood ({dist:.3e} > {theta * start.mu:.3e})"
    return None


def safeguarded_step(
    it: Iterate,
    direction: tuple[np.ndarray, np.ndarray],
    pair: CandidatePair,
    cfg: SolverConfig,
) -> tuple[Iterate, float]:
    """Apply the selected step ``direction`` = (dxs, dy) from
    :func:`~optlp.direction.assemble_direction`, halving alpha while the new
    point violates positivity or neighborhood membership (exact arithmetic
    never needs this; floating point occasionally does, and so does a fixed
    step rule). A non-finite x or s, or a gap x.s that overflows, never
    passes; a non-finite y raises.

    Returns the accepted iterate and the alpha actually applied.
    """
    dxs, dy = direction
    alpha = pair.alpha
    for _ in range(SAFEGUARD_BACKTRACKS + 1):
        xs = it.xs - alpha * dxs
        if (xs == it.xs).all():
            raise NoFeasibleStepError("step update fell below machine precision")
        if xs.min() > 0.0:
            mu, dist = gap_and_distance(xs)
            if _in_neighborhood(mu, dist, cfg.theta):
                y = it.y - alpha * dy
                if not np.isfinite(y).all():
                    raise NoFeasibleStepError("dual update is not finite")
                return Iterate.unchecked(xs, y, mu, dist), alpha
        alpha *= 0.5
    raise NoFeasibleStepError(
        f"no acceptable step within {SAFEGUARD_BACKTRACKS} halvings of alpha"
    )


def _exact_step(it: Iterate, direction: tuple[np.ndarray, np.ndarray]) -> Iterate | None:
    """The full pure Newton step, which lands on an optimal boundary point.

    Components of x (or s) that come out negative by no more than roundoff
    are set to zero. The bound is taken from the pre-step point, because on
    an exact landing the landed components are themselves roundoff. In the
    scaled variables of :mod:`optlp.direction`, D^-1 x_new = v - null and
    D s_new = v - row, where v = sqrt(x o s) and [row, null] come from v by
    2m Householder reflections (Q^T, then Q): one at a time by dormqr
    after dgeqrf, a block at a time by dgemqrt after dgeqrt. Each
    reflection is backward stable in the 2-norm (Higham, Accuracy and
    Stability of Numerical Algorithms, Lemma 19.3), and a block applied in
    compact WY form is too (same book, 19.5). With the constant taken as 1,
    each reflection adds at most eps ||v|| to a component, and the
    rescaling by D and the subtraction
    from the pre-step point add one eps ||v|| each. So landed components
    down to -2(m+1) eps ||v|| d_i (x) and -2(m+1) eps ||v|| / d_i (s) are
    roundoff. None when one is more negative than that, or when the point
    is not finite; the caller then takes the safeguarded step instead.
    """
    dxs, dy = direction
    xs, y = it.xs - dxs, it.y - dy
    if not (np.isfinite(xs).all() and np.isfinite(y).all()):
        return None
    n = it.x.shape[0]
    x, s = xs[:n], xs[n:]
    d = np.sqrt(it.x / it.s)
    bound = 2 * (it.y.size + 1) * np.finfo(float).eps * math.sqrt(float(it.x @ it.s))
    if np.any(x < -bound * d) or np.any(s < -bound / d):
        return None
    np.maximum(xs, 0.0, out=xs)
    return Iterate.unchecked(xs, y, *gap_and_distance(xs))


def _iterate(lp: StandardLp, start: Iterate, cfg: SolverConfig, choose,
             observer=None) -> SolveReport:
    """The loop of both algorithms. ``choose(dec, it)`` is the step rule: it
    returns the pair to take from ``it`` and the step quartic h it used, or
    None for it. Every pair goes through :func:`safeguarded_step`; an
    ``a0_zero`` pair tries the exact Newton step first.
    """
    reason = _start_rejected(lp, start, cfg.theta)
    if reason is not None:
        log.info("%s: %s", lp.name or "LP", reason)
        return SolveReport(STATUS_NO_START, [], start, lp.objective(start.x))

    it = start
    records: list[IterationRecord] = []
    if stopping_criterion(lp, it, cfg.tol):
        return SolveReport(STATUS_OPTIMAL, records, it, lp.objective(it.x))

    status = STATUS_MAX_ITER
    for k in range(1, cfg.max_iter + 1):
        try:
            dec = decompose(build_factors(lp, it), it)
            pair, h = choose(dec, it)
            if observer is not None:
                observer(k, it, dec, h, pair)
            direction = assemble_direction(dec, pair.sigma)
            exact = _exact_step(it, direction) if pair.origin == "a0_zero" else None
            if exact is not None:
                it, alpha = exact, pair.alpha
            else:
                it, alpha = safeguarded_step(it, direction, pair, cfg)
        except (IllConditionedError, NoFeasibleStepError) as exc:
            log.warning("%s: breakdown at iteration %d: %s", lp.name or "LP", k, exc)
            status = STATUS_BREAKDOWN
            break
        records.append(IterationRecord(k, it.mu, pair.sigma, alpha, it.neighborhood_dist,
                                       *residuals(lp, it), pair.origin))
        log.debug(
            "%s: k=%d mu=%.6e sigma=%.4f alpha=%.4f origin=%s",
            lp.name or "LP", k, it.mu, pair.sigma, alpha, pair.origin,
        )
        if exact is not None or stopping_criterion(lp, it, cfg.tol):
            status = STATUS_OPTIMAL
            break
    return SolveReport(status, records, it, lp.objective(it.x))


def solve(
    lp: StandardLp,
    start: Iterate,
    cfg: SolverConfig | None = None,
    observer=None,
) -> SolveReport:
    """Run the path-following iteration with jointly optimal (sigma, alpha).

    ``start`` must be strictly positive, feasible to ~1e-8 and inside the
    theta-neighborhood; otherwise the report comes back with status
    ``no_interior_start``. ``observer``, when given, is called once per
    iteration with (k, iterate, dec, h, pair) before the step is applied,
    where dec is the (pq, y) pair of :func:`~optlp.direction.decompose` and
    h the coefficient tuple of :func:`~optlp.direction.step_polynomials`;
    tests use it to harvest live data.
    """
    cfg = cfg if cfg is not None else SolverConfig()

    def choose(dec, it):
        # h grows as mu^2 and would overflow from mu ~ 1e154, so it is formed
        # from pq scaled by 2^-k, mu ~ 4^k: h comes out scaled by 2^-4k with
        # every product exact, and select_step gets mu 4^-k to match. The
        # gap and h are scaled back by 2^k at a time, as 2^4k may overflow
        k = math.frexp(it.mu)[1] // 2
        up = math.ldexp(1.0, k)
        pq, y = dec
        h = step_polynomials((pq / up, y))
        pair = select_step(h, cfg.theta, it.mu / up / up, lp.n)
        return (replace(pair, predicted_mu=pair.predicted_mu * up * up),
                tuple(c * up * up * up * up for c in h))

    return _iterate(lp, start, cfg, choose, observer)


def solve_shortstep_baseline(
    lp: StandardLp,
    start: Iterate,
    cfg: SolverConfig | None = None,
) -> SolveReport:
    """Classical short-step path following: sigma = 1 - 0.4/sqrt(n), alpha = 1.

    The same iteration as :func:`solve` with a fixed step rule. The
    per-iteration gap factor is exactly 1 - 0.4/sqrt(n) while the full step
    stays in the neighborhood; without ``cfg`` it takes theta =
    :data:`SHORTSTEP_THETA`, the neighborhood its theory assumes (Wright,
    Primal-Dual Interior-Point Methods, ch. 5).
    """
    cfg = cfg if cfg is not None else SolverConfig(theta=SHORTSTEP_THETA)
    sigma = 1.0 - 0.4 / math.sqrt(lp.n)
    return _iterate(lp, start, cfg,
                    lambda dec, it: (CandidatePair(sigma, 1.0, sigma * it.mu, "shortstep"), None))


def generate_synthetic(n: int, m: int, seed: int) -> tuple[StandardLp, Iterate]:
    """Random standard-form LP with a built-in perfectly centered start.

    A is a dense Gaussian draw, x0 = s0 = e, y0 Gaussian, b = A x0 and
    c = A^T y0 + s0, so (x0, y0, s0) is strictly feasible with mu = 1 and
    neighborhood distance 0. A draw that :class:`StandardLp`'s rank check
    finds rank deficient raises :class:`InvalidInputError`.
    """
    if not 1 <= m < n:
        raise InvalidInputError(f"need 1 <= m < n, got m={m}, n={n}")
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(m, n))
    y0 = rng.normal(size=m)
    e = np.ones(n)
    b = a @ e
    c = a.T @ y0 + e
    lp = StandardLp(a, b, c, name=f"synthetic-n{n}-m{m}-seed{seed}")
    if lp.m < m:
        raise InvalidInputError(f"drew a {m}x{n} matrix of rank {lp.m}")
    return lp, Iterate(e, y0, e.copy())


def heuristic_start(lp: StandardLp) -> Iterate | None:
    """Cheap least-squares starting point; None unless x and s are finite
    and positive.

    x is the point of {Ax = b} closest to e, and y pulls s = c - A^T y as
    close to e as the row space allows. Deliberately weak: it lies in the
    neighborhood only on well-centered problems, and the solvers' start
    check decides whether it does. Failure is a value so callers can fall
    back to a supplied start. A row sum of A that overflows gives None too.
    """
    e = np.ones(lp.n)
    with np.errstate(all="ignore"):
        x = e + np.linalg.lstsq(lp.a, lp.b - lp.a @ e, rcond=None)[0]  # minimum-norm correction
        y = np.linalg.lstsq(lp.a.T, lp.c - e, rcond=None)[0]
        s = lp.c - lp.a.T @ y
    if not (np.isfinite(x).all() and np.isfinite(s).all() and x.min() > 0.0 and s.min() > 0.0):
        return None
    return Iterate(x, y, s)

"""Shared oracles and fixtures-in-code for the test suite.

Everything here is deliberately independent of the production code paths it
checks: the KKT oracles solve the Newton system densely (one in float64, one
in extended precision with ``mpmath``), polynomial roots come from
``mpmath.polyroots`` at 50 digits, the best step is found at 50 digits from
its one-variable reduction, the feasibility grid enumerates (sigma, alpha)
pairs by brute force, and random iterates are built from explicit
null-space / row-space perturbations.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np

import optlp
from optlp.model import Iterate, StandardLp
from optlp.solver import generate_synthetic

# the directory this suite imports optlp from
SRC = Path(optlp.__file__).resolve().parent.parent


# An LP and start, n = 4, m = 2, from tools/find_g_root_case.py (seed 0):
# the start lies just inside the theta = 0.7 neighborhood, with y = 0,
# b = A x and c = s
G_ROOT_A = [[0.16210339, -0.32808343, 0.46377585, 0.083694697],
            [0.019377321, -1.1445052, 1.7112299, 0.30188392]]
G_ROOT_X = [0.038777368, 0.46389292, 90.846808, 1.1815073]
G_ROOT_S = [11.062421, 2.979154, 0.0120026, 0.92984784]


def centred_gaussian_lp(seed, scale, n=8, m=3):
    """A Gaussian m x n LP whose start x = s = scale e, y = 0 is feasible and
    exactly centred: b = A x and c = s. For a power-of-two ``scale`` the LPs
    of one seed differ by that power alone, so every iterate does too."""
    a = np.random.default_rng(seed).normal(size=(m, n))
    x = np.full(n, float(scale))
    return StandardLp(a, a @ x, x, name=f"centred-seed{seed}"), Iterate(x, np.zeros(m), x)


def scale_family():
    """:func:`centred_gaussian_lp` at scales 2^32 and 2^256, seeds 0-2: mu
    starts at 2^64 and 2^512, so the step quartic h, which grows as mu^2,
    would overflow on the second."""
    return [centred_gaussian_lp(seed, 2.0**k) for seed in range(3) for k in (32, 256)]


def run_python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter run with ``args`` that imports optlp from SRC."""
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(SRC)})


def dense_kkt_direction(a, x, s, sigma):
    """Solve the full (m + 2n) Newton system with a dense LU factorization.

        [ A   0    0 ] [dx]   [ 0                   ]
        [ 0   A^T  I ] [dy] = [ 0                   ]
        [ S   0    X ] [ds]   [ x o s - sigma mu e  ]
    """
    m, n = a.shape
    mu = float(x @ s) / n
    kkt = np.zeros((m + 2 * n, m + 2 * n))
    kkt[:m, :n] = a
    kkt[m:m + n, n:n + m] = a.T
    kkt[m:m + n, n + m:] = np.eye(n)
    kkt[m + n:, :n] = np.diag(s)
    kkt[m + n:, n + m:] = np.diag(x)
    rhs = np.concatenate([np.zeros(m + n), x * s - sigma * mu])
    sol = np.linalg.solve(kkt, rhs)
    return sol[:n], sol[n:n + m], sol[n + m:]


def mp_kkt_direction(a, x, s, sigma, dps=40):
    """The Newton direction (dx, dy, ds) of ``dense_kkt_direction``, solved at
    ``dps`` decimal digits and rounded to float64.

    Eliminating dx = (r - x o ds) / s and ds = -A^T dy leaves the normal
    equations (A X S^-1 A^T) dy = -A (r / s), with r = x o s - sigma mu e.
    The inputs are taken as exact binary values; 40 digits leave about 16
    correct ones even when x_i/s_i spans 1e-12 to 1e12 near the optimum.
    """
    with mpmath.workdps(dps):
        m, n = a.shape
        mpf = mpmath.mpf
        amp = [[mpf(v) for v in row] for row in a.tolist()]
        xmp = [mpf(v) for v in x.tolist()]
        smp = [mpf(v) for v in s.tolist()]
        mu = mpmath.fsum(xi * si for xi, si in zip(xmp, smp)) / n
        r = [xi * si - sigma * mu for xi, si in zip(xmp, smp)]
        # the rows of A X S^-1, and r / s, formed once for the dot products
        axs = [[aik * xk / sk for aik, xk, sk in zip(row, xmp, smp)] for row in amp]
        r_s = [rk / sk for rk, sk in zip(r, smp)]
        normal = mpmath.matrix(m, m)
        for i in range(m):
            for j in range(i, m):
                normal[i, j] = normal[j, i] = mpmath.fdot(axs[i], amp[j])
        rhs = mpmath.matrix([-mpmath.fdot(amp[i], r_s) for i in range(m)])
        dy = list(mpmath.lu_solve(normal, rhs))
        ds = [-mpmath.fdot(col, dy) for col in zip(*amp)]
        dx = [(r[k] - xmp[k] * ds[k]) / smp[k] for k in range(n)]
    return tuple(np.array([float(v) for v in vec]) for vec in (dx, dy, ds))


def horner_with_bound(coeffs, x):
    """p(x) in float64 by Horner's rule and the running bound on its rounding
    error (Higham, Accuracy and Stability of Numerical Algorithms, Alg. 5.1)."""
    y = coeffs[0]
    mu = abs(y) / 2.0
    for c in coeffs[1:]:
        y = y * x + c
        mu = mu * abs(x) + abs(y)
    return y, 2.0**-53 * (2.0 * mu - abs(y))


def float64_sign(coeffs, x):
    """The sign of p(x) in float64, or 0 where rounding error could flip it."""
    y, bound = horner_with_bound(coeffs, x)
    return 0 if abs(y) <= bound else (1 if y > 0 else -1)


def mp_polyroots(coeffs, dps=50, maxsteps=400, extraprec=400):
    """All complex roots of the polynomial with the exact binary coefficients
    ``coeffs`` (highest degree first), at ``dps`` digits. A real root comes
    back as an ``mpf``. The Durand-Kerner iteration of ``mpmath.polyroots``
    starts from numpy's float64 roots where those are finite, which takes a
    quarter of the time of mpmath's default start, and from that default
    start where it does not converge from them; mpmath raises NoConvergence
    where it does not converge from either within ``maxsteps`` steps."""
    while coeffs and coeffs[0] == 0.0:
        coeffs = coeffs[1:]
    if len(coeffs) < 2:
        return []
    start = np.roots([float(c) for c in coeffs])
    with mpmath.workdps(dps):
        exact = [mpmath.mpf(c) for c in coeffs]
        if np.isfinite(start).all():
            try:
                return mpmath.polyroots(exact, maxsteps=maxsteps, extraprec=extraprec,
                                        roots_init=[mpmath.mpc(complex(z)) for z in start])
            except mpmath.libmp.NoConvergence:
                pass
        return mpmath.polyroots(exact, maxsteps=maxsteps, extraprec=extraprec)


def random_interior_iterate(lp, start, rng, spread=0.5, theta=0.99):
    """A strictly feasible iterate inside the theta-neighborhood.

    Perturbs the centered start along exact null-space (primal) and
    row-space (dual) directions, shrinking until the point is acceptable,
    so feasibility holds to machine precision by construction.
    """
    q, _ = np.linalg.qr(lp.a.T, mode="complete")
    nullbasis = q[:, lp.m:]
    for _ in range(60):
        u = spread * rng.normal(size=lp.n - lp.m) / np.sqrt(lp.n - lp.m)
        w = spread * rng.normal(size=lp.m) / np.sqrt(lp.m)
        x = start.x + nullbasis @ u
        s = start.s + lp.a.T @ w
        y = start.y - w
        if np.min(x) > 1e-3 and np.min(s) > 1e-3:
            it = Iterate(x, y, s)
            if it.neighborhood_dist <= theta * it.mu:
                return it
        spread *= 0.7
    raise RuntimeError("could not build a random interior iterate")


def synthetic_family(count, rng_seed=20240, n_max=64):
    """A deterministic batch of (lp, start) pairs of varied shapes."""
    rng = np.random.default_rng(rng_seed)
    problems = []
    for i in range(count):
        n = int(rng.integers(6, n_max + 1))
        m = int(rng.integers(2, max(3, n // 2)))
        problems.append(generate_synthetic(n, m, seed=int(rng.integers(0, 2**31))))
    return problems


def step_vectors(dec):
    """(p, q, r) = (p_x o p_s, q_x o p_s + p_x o q_s, q_x o q_s) from
    :func:`optlp.direction.decompose`'s (pq, y): h(sigma) = ||p - sigma q +
    sigma^2 r||^2."""
    pq, _ = dec
    n = pq.shape[0] // 2
    (p_x, q_x), (p_s, q_s) = pq[:n].T, pq[n:].T
    return p_x * p_s, q_x * p_s + p_x * q_s, q_x * q_s


def step_grid_best(h, theta, mu, grid=200):
    """Brute-force best predicted gap over a (sigma, alpha) feasibility grid.

    Evaluates f directly from the coefficients of the step quartic h
    (highest degree first); returns the smallest predicted mu among feasible
    grid points, or None if none is feasible.
    """
    sigmas = np.arange(1, grid + 1) / (grid + 1.0)
    alphas = np.arange(1, grid + 1) / (grid + 1.0)
    best = None
    for sig in sigmas:
        fvals = np.polyval(h, sig) - (theta * mu * sig / alphas) ** 2
        ok = fvals <= 0.0
        if ok.any():
            predicted = mu * (1.0 - alphas[ok] * (1.0 - sig))
            cand = float(predicted.min())
            if best is None or cand < best:
                best = cand
    return best


def mp_best_step(h, theta, mu, dps=50):
    """The least predicted gap ratio mu+/mu of any admissible (sigma, alpha),
    at ``dps`` digits, as (phi, sigma), for the step quartic h (highest
    degree first).

    For fixed sigma the largest admissible alpha is alpha*(sigma) =
    min(1, theta mu sigma / sqrt(h(sigma))), so the problem is to minimize
    phi(sigma) = 1 - alpha*(sigma)(1 - sigma) over sigma in (0, 1]. phi is
    increasing where alpha* = 1 and stationary where alpha* < 1 only at
    roots of g, so its minimizer is a root of f(., 1) or of g in (0, 1), or
    sigma = 1. The coefficients are taken as exact binary values.

    The roots come from :func:`mp_polyroots`. Where it does not converge at
    ``dps`` digits, as on a multiple root such as the quadruple root at 1
    of g at an exactly centred start, where h = h0 (sigma - 1)^4, they are
    sought again at 100 digits, with 5,000 steps and 2,000 guard bits.
    """
    def unit_roots(coeffs):
        try:
            roots = mp_polyroots(coeffs, dps)
        except mpmath.libmp.NoConvergence:
            roots = mp_polyroots(coeffs, 100, maxsteps=5000, extraprec=2000)
        return [z.real for z in roots if z.imag == 0 and 0 < z.real < 1]

    with mpmath.workdps(dps):
        h0, h1, h2, h3, h4 = (mpmath.mpf(v) for v in h)
        tm = mpmath.mpf(theta) * mpmath.mpf(mu)

        def phi(sigma):
            hs = (((h0 * sigma + h1) * sigma + h2) * sigma + h3) * sigma + h4
            alpha = 1 if hs <= 0 else min(mpmath.mpf(1), tm * sigma / mpmath.sqrt(hs))
            return 1 - alpha * (1 - sigma)

        f1 = [h0, h1, h2 - tm**2, h3, h4]
        g = [2 * h0 + h1, 2 * h2 + h1, 3 * h3, 4 * h4 - h3, -2 * h4]
        candidates = [mpmath.mpf(1)] + unit_roots(f1) + unit_roots(g)
        best = min(candidates, key=phi)
        return phi(best), best


def sampled_best_step(h, theta, mu, count=100_000):
    """min phi over ``count`` evenly spaced sigmas in (0, 1], in float64: the
    brute-force check on :func:`mp_best_step`."""
    sigma = np.arange(1, count + 1) / count
    hs = np.polyval(h, sigma)
    with np.errstate(divide="ignore"):
        alpha = np.minimum(1.0, theta * mu * sigma / np.sqrt(np.maximum(hs, 0.0)))
    return float(np.min(1.0 - alpha * (1.0 - sigma)))

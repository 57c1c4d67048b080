"""Per-iteration factorization and the sigma-parameterized Newton direction.

The Newton system solved implicitly here is

    [ A   0    0 ] [dx]   [ 0             ]
    [ 0   A^T  I ] [dy] = [ 0             ]
    [ S   0    X ] [ds]   [ x o s - sigma mu e ]

with the update convention (x,y,s) <- (x - alpha dx, y - alpha dy, s - alpha ds).
Rather than forming the inverses of the reduced systems directly, the
directions come from one Householder QR factorization of the scaled row
space, which stays accurate as components of x and s approach zero:

    Q R = [Q1 Q2] [R1; 0] = D A^T          (D = diag(sqrt(x_i / s_i)))

dx splits as p_x - sigma q_x and ds as p_s - sigma q_s, where the p/q vectors
are the projections of the columns of V = [v, mu / v] (v = sqrt(x o s)) onto
range(D A^T) = range(Q1) and onto its orthogonal complement range(Q2) =
range(D^-1 Z) (Z any null-space basis of A; for Az = 0, (D^-1 z)^T (D A^T u)
= (Az)^T u = 0), rescaled by D. Q is never formed: it stays as the n x m
block of reflectors that LAPACK leaves below R1, and is applied with dormqr
(Golub & Van Loan, Matrix Computations, 5.1.6 and 5.2). With c = Q^T V
split into its first m rows c1 and the rest c2, the projections are
Q [c1; 0] and Q [0; c2]: the null-space part comes from an orthogonal
transformation, not from a subtraction that would cancel.

Two LAPACK routines factor D A^T, chosen by m alone. Below 64 rows dgeqrf
does, whose panels are level-2 (dgeqr2). From 64 rows on dgeqrt does, with
32-column blocks whose panels are factored recursively in level-3 BLAS
(Elmroth & Gustavson, IBM J. Res. Dev. 44(4), 2000). Medians per
factorization on a 2-core Xeon with one BLAS thread, dgeqrf against dgeqrt:
21 against 57 us at 51 x 27 (AFIRO's shape), 42 against 58 us at 123 x 48,
within 3% of each other at 164 x 64, 254 against 194 us at 205 x 80,
1.03 against 0.55 ms at 328 x 128 and 13.1 against 11.2 ms at 1024 x 400.
dgeqrt leaves the same reflectors and R1 as dgeqrf, and instead of tau the
upper-triangular factors T of its block reflectors, whose diagonals are
the tau. So both routes end in the same (qr, tau) and the same dormqr
applications.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .errors import IllConditionedError, InvalidInputError
from .linalg import solve_upper_triangular
from .model import Iterate, StandardLp

# From this many rows on, dgeqrt with nb-column blocks factors D A^T, and
# below it dgeqrf: the measured crossover (module docstring)
BLOCKED_QR_MIN_ROWS = 64
BLOCKED_QR_NB = 32


@dataclass(frozen=True)
class FactorCache:
    """Householder QR of one iterate's scaled row space, Q [R1; 0] = D A^T.

    qr (n x m, Fortran order) holds R1 on and above its diagonal and, below
    it, the reflectors whose product is Q; tau holds their scalar factors,
    from dgeqrf or, when m >= BLOCKED_QR_MIN_ROWS, read off the diagonals
    of the T blocks of dgeqrt (tau[k] = T[k % nb, k]).
    Applied through them, Q1 Q1^T projects onto range(D A^T) and Q2 Q2^T
    onto the scaled null space range(D^-1 Z) of A. R1 recovers the dual
    direction by back-substitution. d holds sqrt(x_i/s_i).
    """

    qr: np.ndarray
    tau: np.ndarray
    d: np.ndarray


@dataclass(frozen=True)
class DirectionDecomposition:
    """sigma-independent pieces of the Newton direction.

    dx(sigma) = p_x - sigma q_x, ds(sigma) = p_s - sigma q_s,
    dy(sigma) = -(y_p - sigma y_q).
    """

    p_x: np.ndarray
    q_x: np.ndarray
    p_s: np.ndarray
    q_s: np.ndarray
    y_p: np.ndarray
    y_q: np.ndarray


@dataclass(frozen=True)
class StepPolynomials:
    """Coefficients of the step-feasibility quartic at one iterate.

    With p = p_x o p_s, q = q_x o p_s + p_x o q_s, r = q_x o q_s:

        || p - sigma q + sigma^2 r ||^2
            = a4 s^4 - a3 s^3 + a2 s^2 - a1 s + a0   (s = sigma)

    theta and mu are frozen alongside so the feasibility function
    f(sigma, alpha) is self-contained.
    """

    a0: float
    a1: float
    a2: float
    a3: float
    a4: float
    theta: float
    mu: float
    p: np.ndarray
    q: np.ndarray
    r: np.ndarray


def build_factors(lp: StandardLp, it: Iterate) -> FactorCache:
    """Factor the scaled row space D A^T at an iterate."""
    ratio = it.x / it.s
    # Householder QR stays accurate however widely d spreads (Cox & Higham
    # 1998): only a ratio that overflowed to inf or underflowed to 0 fails
    if not (0.0 < ratio.min() and ratio.max() < np.inf):
        i = int(np.argmin((ratio > 0.0) & (ratio < np.inf)))
        raise IllConditionedError(
            f"x[{i}]/s[{i}] = {ratio[i]:.3e} is not a finite positive number", index=i
        )
    d = np.sqrt(ratio)
    # D A^T comes out in Fortran order, which either routine factors in place
    dat = (lp.a * d).T
    if lp.m >= BLOCKED_QR_MIN_ROWS:
        qr, t, info = lapack.dgeqrt(BLOCKED_QR_NB, dat, overwrite_a=1)
        k = np.arange(lp.m)
        tau = t[k % BLOCKED_QR_NB, k]
    else:
        lwork, _ = lapack.dgeqrf_lwork(lp.n, lp.m)
        qr, tau, _, info = lapack.dgeqrf(dat, lwork=int(lwork), overwrite_a=1)
    if info != 0 or not np.isfinite(qr).all():
        raise IllConditionedError("scaled QR factors are not finite", index=-1)
    return FactorCache(qr=qr, tau=tau, d=d)


def decompose(cache: FactorCache, it: Iterate) -> DirectionDecomposition:
    """Split the Newton direction into its sigma-independent components."""
    d, qr, tau = cache.d, cache.qr, cache.tau
    n, m = qr.shape
    vw = np.empty((n, 2), order="F")  # [v, mu (x o s)^{-1/2}], v = sqrt(x o s)
    v = np.sqrt(it.x * it.s, out=vw[:, 0])
    np.divide(it.mu, v, out=vw[:, 1])
    # lwork = the operand's column count selects the unblocked dorm2r, the
    # faster one on so few columns
    c, _, _ = lapack.dormqr("L", "T", qr, tau, vw, 2, overwrite_c=1)
    parts = np.zeros((n, 4), order="F")
    parts[:m, :2] = c[:m]
    parts[m:, 2:] = c[m:]
    parts, _, _ = lapack.dormqr("L", "N", qr, tau, parts, 4, overwrite_c=1)
    row, null = parts[:, :2], parts[:, 2:]
    p_x, q_x = d * null[:, 0], d * null[:, 1]
    p_s, q_s = row[:, 0] / d, row[:, 1] / d
    y = solve_upper_triangular(qr[:m], c[:m])  # reads only R1
    y_p, y_q = y[:, 0], y[:, 1]
    return DirectionDecomposition(p_x=p_x, q_x=q_x, p_s=p_s, q_s=q_s, y_p=y_p, y_q=y_q)


def assemble_direction(
    dec: DirectionDecomposition, sigma: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(dx, dy, ds) for a concrete centering parameter sigma in [0, 1]."""
    if not 0.0 <= sigma <= 1.0:
        raise InvalidInputError(f"sigma must be in [0,1], got {sigma}")
    dx = dec.p_x - sigma * dec.q_x
    ds = dec.p_s - sigma * dec.q_s
    dy = -(dec.y_p - sigma * dec.y_q)
    return dx, dy, ds


def step_polynomials(dec: DirectionDecomposition, theta: float, mu: float) -> StepPolynomials:
    """Quartic coefficients of ||dx(sigma) o ds(sigma)||^2."""
    p = dec.p_x * dec.p_s
    q = dec.q_x * dec.p_s + dec.p_x * dec.q_s
    r = dec.q_x * dec.q_s
    return StepPolynomials(
        a0=float(p @ p),
        a1=2.0 * float(q @ p),
        a2=2.0 * float(p @ r) + float(q @ q),
        a3=2.0 * float(q @ r),
        a4=float(r @ r),
        theta=theta,
        mu=mu,
        p=p,
        q=q,
        r=r,
    )

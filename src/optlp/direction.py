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

D A^T is factored by :func:`optlp.linalg.householder_qr`, the package's
one unpivoted QR, which the rank reveal shares: dgeqrf below 64 rows,
dgeqrt in 32-column blocks from 64 rows on (the ``linalg`` module
docstring gives the measured crossover). Both routes end in the same
reflectors, R1 and tau, so in the same dormqr applications. The dual
direction comes from R1 y = c1, solved by dtrtrs on the leading m x m block
of the factor where it lies, without a copy.

Each layer hands the next the arrays it built: :func:`build_factors`
returns (qr, tau, d) and :func:`decompose` returns (pq, y). The x and s
parts of the direction are held stacked, as x and s are in
:class:`~optlp.model.Iterate`, from :func:`decompose` to the step: p =
(p_x; p_s) and q = (q_x; q_s) are the two columns of pq, and
:func:`assemble_direction` gives (dx; ds) = p - sigma q in one pass over 2n
entries, which the step subtracts from (x; s) as it is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .errors import IllConditionedError, InvalidInputError
from .linalg import householder_qr
from .model import Iterate, StandardLp


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


def build_factors(lp: StandardLp, it: Iterate) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Householder QR of the iterate's scaled row space, Q [R1; 0] = D A^T.

    Returns (qr, tau, d). qr (n x m, Fortran order) holds R1 on and above
    its diagonal and, below it, the reflectors whose product is Q; tau holds
    their scalar factors (:func:`optlp.linalg.householder_qr`). Applied
    through them, Q1 Q1^T projects onto range(D A^T) and Q2 Q2^T onto the
    scaled null space range(D^-1 Z) of A. R1 recovers the dual direction by
    back-substitution. d holds sqrt(x_i/s_i).
    """
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
    qr, tau = householder_qr(dat)
    if not np.isfinite(qr).all():
        raise IllConditionedError("scaled QR factors are not finite", index=-1)
    return qr, tau, d


def decompose(factors, it: Iterate) -> tuple[np.ndarray, np.ndarray]:
    """Split the Newton direction into its sigma-independent components.

    ``factors`` is (qr, tau, d) from :func:`build_factors`. Returns (pq, y):
    pq is the Fortran-order (2n, 2) array [p, q] of the stacked p = (p_x;
    p_s) and q = (q_x; q_s), and y the (m, 2) array [y_p, y_q], with

        (dx; ds)(sigma) = p - sigma q,   dy(sigma) = -(y_p - sigma y_q).
    """
    qr, tau, d = factors
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
    # pq = [p, q]: D (null part) over D^-1 (row part)
    pq = np.empty((2 * n, 2), order="F")
    np.multiply(parts[:, 2:], d[:, None], out=pq[:n])
    np.divide(parts[:, :2], d[:, None], out=pq[n:])
    # R1 y = c1, with R1 read in place: the factor was checked finite
    c1 = c[:m]
    if not np.isfinite(c1).all():
        raise IllConditionedError("projected right-hand side is not finite", index=-1)
    y, info = lapack.dtrtrs(qr, c1)
    if info > 0:
        raise IllConditionedError(f"R1 is singular at diagonal {info - 1}", index=info - 1)
    return pq, y


def assemble_direction(dec, sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """(dxs, dy) for a concrete centering parameter sigma in [0, 1] from
    :func:`decompose`'s (pq, y), where dxs is the stacked 2n vector (dx; ds)."""
    if not 0.0 <= sigma <= 1.0:
        raise InvalidInputError(f"sigma must be in [0,1], got {sigma}")
    pq, y = dec
    return pq[:, 0] - sigma * pq[:, 1], -(y[:, 0] - sigma * y[:, 1])


def step_polynomials(dec, theta: float, mu: float) -> StepPolynomials:
    """Quartic coefficients of ||dx(sigma) o ds(sigma)||^2, from
    :func:`decompose`'s (pq, y)."""
    pq, _ = dec
    n = pq.shape[0] // 2
    (p_x, q_x), (p_s, q_s) = pq[:n].T, pq[n:].T
    p = p_x * p_s
    q = q_x * p_s + p_x * q_s
    r = q_x * q_s
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

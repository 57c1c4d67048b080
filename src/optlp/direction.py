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
block of reflectors that LAPACK leaves below R1, and is applied by
:func:`optlp.linalg.apply_q` (Golub & Van Loan, Matrix Computations, 5.1.6
and 5.2). With c = Q^T V split into its first m rows c1 and the rest c2,
the projections are Q [c1; 0] and Q [0; c2]: the null-space part comes
from an orthogonal transformation, not from a subtraction that would
cancel.

D A^T is factored by :func:`optlp.linalg.householder_qr`, the package's
one unpivoted QR, which the rank reveal shares; its two LAPACK routes, and
how :func:`~optlp.linalg.apply_q` applies Q on each, are measured and
chosen in the ``linalg`` module docstring. The dual direction comes from
R1 y = c1, solved by dtrtrs on the leading m x m block of the factor where
it lies, without a copy. v = sqrt(x o s) is taken from the product the
iterate carries (:class:`~optlp.model.Iterate`).

Each layer hands the next the arrays it built: :func:`build_factors`
returns (qr, t, d) and :func:`decompose` returns (pq, y), fresh on every
call. Their working arrays are a :class:`Workspace` that a solve allocates
once, so qr lives for one iteration, until the next overwrites it.
:func:`step_polynomials` returns the step quartic h as a tuple of five
floats, highest degree first, which is how :mod:`optlp.stepsel` holds f(., 1)
and g as well. The x and s parts of the direction are held stacked, as x
and s are in :class:`~optlp.model.Iterate`, from :func:`decompose` to the
step: p = (p_x; p_s) and q = (q_x; q_s) are the two columns of pq, and
:func:`assemble_direction` gives (dx; ds) = p - sigma q in one pass over 2n
entries, which the step subtracts from (x; s) as it is.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import IllConditionedError, InvalidInputError
from .linalg import apply_q, householder_qr, lapack
from .model import Iterate, StandardLp, norm


class Workspace:
    """The working arrays of a solve with an m x n A. ``dat``, C-order
    (m, n), takes A D, factored in place as D A^T in Fortran order; it is
    64-byte aligned, where forming and factoring D A^T at 1024 x 400 took
    0.88x the time it took 16 bytes off, with the same bits."""

    def __init__(self, m: int, n: int):
        raw = np.empty(m * n + 8)  # numpy aligns to at least 8 bytes
        self.dat = raw[(-raw.ctypes.data % 64) // 8:][:m * n].reshape(m, n)
        self.vw = np.empty((n, 2), order="F")  # [v, mu (x o s)^{-1/2}], then Q^T of it
        self.v, self.w = self.vw[:, 0], self.vw[:, 1]
        self.parts = np.empty((n, 4), order="F")  # [c1; 0] and [0; c2], then Q of them
        self.row_c1, self.null_c2 = self.parts[:m, :2], self.parts[m:, 2:]


def build_factors(lp: StandardLp, it: Iterate,
                  ws: Workspace | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Householder QR of the iterate's scaled row space, Q [R1; 0] = D A^T.

    Returns (qr, t, d). qr (n x m, Fortran order) holds R1 on and above
    its diagonal and, below it, the reflectors whose product is Q; t holds
    their scalar factors, as tau or as dgeqrt's block factors T
    (:func:`optlp.linalg.householder_qr`). Applied through them, Q1 Q1^T
    projects onto range(D A^T) and Q2 Q2^T onto the scaled null space
    range(D^-1 Z) of A. R1 recovers the dual direction by back-substitution.
    d holds sqrt(x_i/s_i). qr lies in ``ws``, which the next call overwrites.

    A factor that overflowed is caught on R1's diagonal, m entries, not by
    a scan of all n m: a non-finite reflector, or a non-finite entry above
    R1's diagonal, reaches the dual direction y, which :func:`decompose`
    checks.
    """
    ws = ws if ws is not None else Workspace(lp.m, lp.n)
    ratio = it.x / it.s
    # Householder QR stays accurate however widely d spreads (Cox & Higham
    # 1998): only a ratio that overflowed to inf or underflowed to 0 fails
    if not (0.0 < np.minimum.reduce(ratio) and norm(ratio) < math.inf):
        i = int(np.argmin((ratio > 0.0) & (ratio < np.inf)))
        raise IllConditionedError(f"x[{i}]/s[{i}] = {ratio[i]:.3e} is not a finite positive number")
    d = np.sqrt(ratio, out=ratio)
    # A D in C order is D A^T in Fortran order, which either routine factors
    np.multiply(lp.a, d, out=ws.dat)
    qr, t = householder_qr(ws.dat.T)
    if not norm(qr.diagonal()) < math.inf:
        raise IllConditionedError("scaled QR factor R1 is not finite")
    return qr, t, d


def decompose(factors, it: Iterate,
              ws: Workspace | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Split the Newton direction into its sigma-independent components.

    ``factors`` is (qr, t, d) from :func:`build_factors`. Returns fresh (pq, y):
    pq is the Fortran-order (2n, 2) array [p, q] of the stacked p = (p_x;
    p_s) and q = (q_x; q_s), and y the (m, 2) array [y_p, y_q], with

        (dx; ds)(sigma) = p - sigma q,   dy(sigma) = -(y_p - sigma y_q).
    """
    qr, t, d = factors
    n, m = qr.shape
    ws = ws if ws is not None else Workspace(m, n)
    np.sqrt(it.xos, out=ws.v)
    np.divide(it.mu, ws.v, out=ws.w)
    c = apply_q(qr, t, ws.vw, "T")
    ws.parts.fill(0.0)
    np.copyto(ws.row_c1, c[:m])
    np.copyto(ws.null_c2, c[m:])
    parts = apply_q(qr, t, ws.parts, "N")
    # pq = [p, q]: D (null part) over D^-1 (row part)
    pq = np.empty((2 * n, 2), order="F")
    d = d[:, None]
    np.multiply(parts[:, 2:], d, out=pq[:n])
    np.divide(parts[:, :2], d, out=pq[n:])
    # R1 y = c1, with R1 read in place and c1 copied into y; R1's diagonal was
    # checked finite, so a non-finite y comes from c1 or from an overflow
    y, info = lapack.dtrtrs(qr, c[:m])
    if info > 0:
        raise IllConditionedError(f"R1 is singular at diagonal {info - 1}")
    if not norm(y.T) < math.inf:  # y.T is C-contiguous, which vdot reads in place
        raise IllConditionedError("dual direction y is not finite")
    return pq, y


def assemble_direction(dec, sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """(dxs, dy) for a concrete centering parameter sigma in [0, 1] from
    :func:`decompose`'s (pq, y), where dxs is the stacked 2n vector (dx; ds)."""
    if not 0.0 <= sigma <= 1.0:
        raise InvalidInputError(f"sigma must be in [0,1], got {sigma}")
    pq, y = dec
    return pq[:, 0] - sigma * pq[:, 1], -(y[:, 0] - sigma * y[:, 1])


def step_polynomials(dec) -> tuple[float, float, float, float, float]:
    """The step quartic h(sigma) = ||p - sigma q + sigma^2 r||^2, from
    :func:`decompose`'s (pq, y), as its coefficients highest degree first,
    where p = p_x o p_s, q = q_x o p_s + p_x o q_s and r = q_x o q_s."""
    pq, _ = dec
    n = pq.shape[0] // 2
    (p_x, q_x), (p_s, q_s) = pq[:n].T, pq[n:].T
    p = p_x * p_s
    q = q_x * p_s + p_x * q_s
    r = q_x * q_s
    return (float(r @ r), -2.0 * float(q @ r), 2.0 * float(p @ r) + float(q @ q),
            -2.0 * float(q @ p), float(p @ p))

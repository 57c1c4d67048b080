"""Dense linear-algebra kernels: thin QR factorizations, rank detection
and triangular solves.

Matrices are plain 2-d float64 ``numpy`` arrays in row-major (C) layout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import InvalidInputError

DEFAULT_RANK_TOL = 1e-12


@dataclass(frozen=True)
class QrFactors:
    """Thin QR product, unpivoted: ``q @ r == input``.

    ``q`` has orthonormal columns, ``r`` is upper triangular with a
    nonnegative diagonal.
    """

    q: np.ndarray
    r: np.ndarray


def as_matrix(mat) -> np.ndarray:
    """Coerce to a finite, C-contiguous 2-d float array."""
    a = np.ascontiguousarray(mat, dtype=float)
    if a.ndim != 2:
        raise InvalidInputError(f"expected a 2-d matrix, got ndim={a.ndim}")
    if not np.isfinite(a).all():
        raise InvalidInputError("matrix contains non-finite entries")
    return a


def qr_thin(mat) -> QrFactors:
    """Householder thin QR, without column pivoting, of a tall matrix
    (rows >= cols).

    The sign ambiguity is fixed by making the diagonal of R nonnegative,
    so results are deterministic and e.g. qr_thin of the identity is
    (I, I).
    """
    a = as_matrix(mat)
    rows, cols = a.shape
    if rows < cols:
        raise InvalidInputError(f"qr_thin needs rows >= cols, got {rows}x{cols}")
    q, r = np.linalg.qr(a, mode="reduced")
    q, r = _normalize_signs(q, r)
    return QrFactors(q=q, r=r)


def _normalize_signs(q: np.ndarray, r: np.ndarray):
    flip = np.sign(np.diag(r))
    flip[flip == 0.0] = 1.0
    return q * flip, r * flip[:, None]


def rank_reveal(a, rel_tol: float = DEFAULT_RANK_TOL) -> tuple[int, list[int]]:
    """Numerical row rank of ``a`` plus indices of independent rows.

    Runs a column-pivoted QR of ``a.T`` and counts pivoted diagonal entries
    with |R_ii| > rel_tol * |R_11|. The returned row indices (sorted) select
    a maximal independent subset of the rows of ``a``.
    """
    if not 0.0 < rel_tol < 1.0:
        raise InvalidInputError(f"rel_tol must be in (0,1), got {rel_tol}")
    a = as_matrix(a)
    if min(a.shape) == 0:
        return 0, []
    r, pivots = scipy.linalg.qr(a.T, mode="r", pivoting=True)
    diag = np.abs(np.diag(r))
    if diag.size == 0 or diag[0] == 0.0:
        return 0, []
    rank = int(np.count_nonzero(diag > rel_tol * diag[0]))
    kept = sorted(int(i) for i in pivots[:rank])
    return rank, kept


def solve_upper_triangular(r, b, transpose: bool = False) -> np.ndarray:
    """Solve R x = b (or R^T x = b) for upper-triangular R."""
    return scipy.linalg.solve_triangular(r, b, trans="T" if transpose else "N")


def least_squares(factors: QrFactors, rhs) -> np.ndarray:
    """argmin_x ||M x - rhs|| given the thin QR of a full-column-rank M."""
    return solve_upper_triangular(factors.r, factors.q.T @ np.asarray(rhs, dtype=float))


def min_norm_solution(factors: QrFactors, rhs) -> np.ndarray:
    """Minimum-norm x with M^T x = rhs, given the thin QR of M (full column rank)."""
    w = solve_upper_triangular(factors.r, np.asarray(rhs, dtype=float), transpose=True)
    return factors.q @ w

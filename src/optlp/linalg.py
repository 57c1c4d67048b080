"""Dense linear-algebra kernels: rank detection and triangular solves.

Matrices are plain 2-d float64 ``numpy`` arrays in row-major (C) layout.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import InvalidInputError

DEFAULT_RANK_TOL = 1e-12


def as_matrix(mat) -> np.ndarray:
    """Coerce to a finite, C-contiguous 2-d float array."""
    a = np.ascontiguousarray(mat, dtype=float)
    if a.ndim != 2:
        raise InvalidInputError(f"expected a 2-d matrix, got ndim={a.ndim}")
    if not np.isfinite(a).all():
        raise InvalidInputError("matrix contains non-finite entries")
    return a


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


def solve_upper_triangular(r, b) -> np.ndarray:
    """Solve R x = b for upper-triangular R; the strict lower triangle of
    ``r`` is never read. ``r`` is copied to Fortran order first: on a strided
    view (R inside Householder factors) the solve is otherwise about 4x slower."""
    return scipy.linalg.solve_triangular(np.asfortranarray(r), b)

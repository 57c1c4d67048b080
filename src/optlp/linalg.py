"""Dense linear-algebra kernels: matrix coercion and rank detection.

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


def rank_reveal(a) -> tuple[int, list[int]]:
    """Numerical row rank of ``a`` plus indices of independent rows.

    Runs a column-pivoted QR of ``a.T`` and counts pivoted diagonal entries
    with |R_ii| > DEFAULT_RANK_TOL * |R_11|. The returned row indices
    (sorted) select a maximal independent subset of the rows of ``a``.
    """
    a = as_matrix(a)
    if min(a.shape) == 0:
        return 0, []
    r, pivots = scipy.linalg.qr(a.T, mode="r", pivoting=True)
    diag = np.abs(np.diag(r))
    if diag.size == 0 or diag[0] == 0.0:
        return 0, []
    rank = int(np.count_nonzero(diag > DEFAULT_RANK_TOL * diag[0]))
    kept = sorted(int(i) for i in pivots[:rank])
    return rank, kept

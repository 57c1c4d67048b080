"""Dense linear-algebra kernels: rank detection and triangular solves.

Matrices are plain 2-d float64 ``numpy`` arrays in row-major (C) layout.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
from scipy.linalg import lapack

from .errors import IllConditionedError, InvalidInputError

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


def solve_upper_triangular(r, b) -> np.ndarray:
    """Solve R x = b for upper-triangular R; the strict lower triangle of
    ``r`` is never read. Calls LAPACK's dtrtrs as ``scipy.linalg.
    solve_triangular`` does, without its per-call validation; a zero on the
    diagonal or a non-finite operand raises :class:`IllConditionedError`.
    Operands not in Fortran order, such as R inside Householder factors,
    are copied to it on the way in."""
    r, b = np.asarray(r), np.asarray(b)
    if r.ndim != 2 or r.shape[0] != r.shape[1] or b.ndim not in (1, 2) or b.shape[0] != r.shape[0]:
        raise InvalidInputError(f"shapes of R {r.shape} and b {b.shape} do not match")
    if not (np.isfinite(r).all() and np.isfinite(b).all()):
        raise IllConditionedError("triangular system is not finite", index=-1)
    x, info = lapack.dtrtrs(r, b)
    if info > 0:
        raise IllConditionedError(f"triangular factor is singular at diagonal {info - 1}",
                                  index=info - 1)
    if info < 0:
        raise InvalidInputError(f"illegal value in argument {-info} of dtrtrs")
    return x

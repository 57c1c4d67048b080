"""Dense linear-algebra kernels: matrix coercion, Householder QR and rank
detection.

Matrices are plain 2-d float64 ``numpy`` arrays in row-major (C) layout;
the QR routines work on Fortran-order operands, which a transposed C array
already is.

:func:`householder_qr` is the one unpivoted QR of the package: the
iteration factors D A^T with it (``direction.build_factors``) and the rank
reveal factors A^T with it. It picks one of two LAPACK routines by the
smaller dimension k of the matrix. Below 64, dgeqrf, whose panels are
level-2 (dgeqr2); from 64 on, dgeqrt with 32-column blocks whose panels are
factored recursively in level-3 BLAS (Elmroth & Gustavson, IBM J. Res.
Dev. 44(4), 2000). The crossover is measured on D A^T: medians per
factorization on a 2-core Xeon with one BLAS thread, dgeqrf against dgeqrt,
21 against 57 us at 51 x 27 (AFIRO's shape), 42 against 58 us at 123 x 48,
within 3% of each other at 164 x 64, 254 against 194 us at 205 x 80, 1.03
against 0.55 ms at 328 x 128 and 13.1 against 11.2 ms at 1024 x 400. dgeqrt
leaves the same reflectors and R as dgeqrf and, instead of tau, the
upper-triangular factors T of its block reflectors, whose diagonals are the
tau; so both routes end in the same (qr, tau). The route goes by k, not by
the column count, because dgeqrt needs k >= nb.

:func:`rank_reveal` finds the rank in two steps on one working copy of A^T
(n x m for an m x n A): that QR, A^T = Q R, then a column-pivoted QR
(dgeqp3) of the small R alone, which is min(n, m) x m. Column pivoting
picks each pivot by the norms of the remaining columns after the earlier
pivots are projected out, which depends only on the columns' inner
products; Q preserves those, so R's pivots are A^T's pivots and R's
pivoted diagonal is A^T's (Golub & Van Loan, Matrix Computations, 5.4).
The cost is that of the blocked QR, 2nm^2 - 2m^3/3 flops mostly in level-3
BLAS, plus dgeqp3 on an m x m matrix, against dgeqp3 on the whole n x m
A^T, half of whose flops are matrix-vector products. The extra memory is
the n x m copy, freed before dgeqp3 runs, and R.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import lapack

from .errors import IllConditionedError, InvalidInputError

DEFAULT_RANK_TOL = 1e-12

# From this smaller dimension on, dgeqrt with nb-column blocks factors a
# matrix, and below it dgeqrf: the measured crossover (module docstring)
BLOCKED_QR_MIN_ROWS = 64
BLOCKED_QR_NB = 32


def as_matrix(mat) -> np.ndarray:
    """Coerce to a finite, C-contiguous 2-d float array."""
    a = np.ascontiguousarray(mat, dtype=float)
    if a.ndim != 2:
        raise InvalidInputError(f"expected a 2-d matrix, got ndim={a.ndim}")
    if not np.isfinite(a).all():
        raise InvalidInputError("matrix contains non-finite entries")
    return a


def householder_qr(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Householder QR of a Fortran-order float64 matrix, in place: (qr, tau).

    qr is ``mat`` overwritten with R on and above its diagonal and the
    reflectors below it; tau holds the reflectors' scalar factors, from
    dgeqrf or, when min(mat.shape) >= BLOCKED_QR_MIN_ROWS, read off the
    diagonals of the T blocks of dgeqrt (tau[k] = T[k % nb, k]).
    """
    rows, cols = mat.shape
    if min(rows, cols) >= BLOCKED_QR_MIN_ROWS:
        qr, t, info = lapack.dgeqrt(BLOCKED_QR_NB, mat, overwrite_a=1)
        k = np.arange(t.shape[1])
        tau = t[k % BLOCKED_QR_NB, k]
    else:
        lwork, _ = lapack.dgeqrf_lwork(rows, cols)
        qr, tau, _, info = lapack.dgeqrf(mat, lwork=int(lwork), overwrite_a=1)
    if info != 0:
        raise IllConditionedError(f"Householder QR failed (LAPACK info {info})", index=-1)
    return qr, tau


def rank_reveal(a) -> tuple[int, list[int]]:
    """Numerical row rank of ``a`` plus indices of independent rows.

    Factors a copy of ``a.T`` by :func:`householder_qr`, then runs a
    column-pivoted QR of its upper-triangular R (module docstring), and
    counts pivoted diagonal entries with |R_ii| > DEFAULT_RANK_TOL * |R_11|.
    The returned row indices (sorted) select a maximal independent subset of
    the rows of ``a``. Where rows tie exactly, such as a duplicated row,
    which of them is kept follows rounding in R.
    """
    a = as_matrix(a)
    if min(a.shape) == 0:
        return 0, []
    qr, _ = householder_qr(a.T.copy(order="F"))
    r = qr[:min(a.shape)].copy(order="F")
    del qr
    r[np.tri(*r.shape, k=-1, dtype=bool)] = 0.0  # the reflectors
    _, _, _, work, _ = lapack.dgeqp3(r, lwork=-1, overwrite_a=1)
    r, pivots, _, _, info = lapack.dgeqp3(r, lwork=int(work[0]), overwrite_a=1)
    if info != 0:
        raise IllConditionedError(f"pivoted QR failed (LAPACK info {info})", index=-1)
    diag = np.abs(np.diagonal(r))
    if diag[0] == 0.0:
        return 0, []
    rank = int(np.count_nonzero(diag > DEFAULT_RANK_TOL * diag[0]))
    kept = sorted(int(i) - 1 for i in pivots[:rank])
    return rank, kept

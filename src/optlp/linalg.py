"""Dense linear-algebra kernels: matrix coercion, Householder QR and rank
detection.

Matrices are plain 2-d float64 ``numpy`` arrays in row-major (C) layout;
the QR routines work on Fortran-order operands, which a transposed C array
already is.

:func:`householder_qr` is the one unpivoted QR of the package: the
iteration factors D A^T with it (``direction.build_factors``) and the rank
reveal factors A^T with it. It picks one of two LAPACK routines by the
smaller dimension k of the matrix. Below 64, dgeqrf, whose panels are
level-2 (dgeqr2); from 64 on, dgeqrt with nb-column blocks whose panels are
factored recursively in level-3 BLAS (Elmroth & Gustavson, IBM J. Res.
Dev. 44(4), 2000). The route goes by k, not by the column count, because
dgeqrt needs k >= nb; the crossover is measured below.

Both routes leave the same reflectors and R. dgeqrf returns the
reflectors' scalar factors tau, a vector; dgeqrt returns, instead, the
upper-triangular factors T of its nb-reflector blocks (compact WY,
Schreiber & Van Loan, SIAM J. Sci. Stat. Comput. 10(1), 1989), an nb x k
array whose diagonals are the tau. :func:`householder_qr` hands back
whichever it got, and :func:`apply_q` applies Q or Q^T from it: dormqr with
tau, and dgemqrt with T, which applies each block as matrix products.
dormqr is called with lwork equal to the operand's column count, which
selects the unblocked dorm2r, the faster on so few columns at the small
sizes of that route: at 51 x 27, an iteration's two applies took 8.7 us
by dormqr against 20.4 us by dgemqrt with tau as a 1 x k T (nb = 1), and
changed bits. dgeqrf is likewise called with lwork equal to the column
count, the least it accepts, and without a workspace query
(dgeqrf_lwork): reference LAPACK's dgeqrf blocks only where k exceeds
its crossover NX = 128, so on this route, k < 64, it runs the unblocked
dgeqr2 whatever workspace it is given, and the bits are the same. The
wrappers' optional arguments, overwrite_a and overwrite_c, are passed by
position: f2py parses a keyword at about 0.3 us a call.

dgeqrt's block size nb is 64 (BLOCKED_QR_NB), one size for every m. The
QR of D A^T (n = 2.56 m) plus an iteration's two applies, with dgemqrt at
nb = 32 and at nb = 64, took 0.89x and 1.02x of nb = 32 with dormqr at
m = 64, and 0.95x and 0.90x at m = 400 (interleaved medians of 81 rounds):
32-column blocks are the faster below about 384 rows, and one size keeps
the gain where the QR dominates the solve. Against dgeqrf with dormqr,
dgeqrt at nb = 64 takes 0.87x at m = 64 and 0.64x at 128, so the crossover
stays at 64 rows; at 51 x 27 (AFIRO's shape) the QR alone took 21 us by
dgeqrf against 57 us by dgeqrt (medians, 2-core Xeon, one BLAS thread).

:func:`rank_reveal` judges the rank of A with each row scaled to largest
magnitude 1 (:func:`row_scales`), so that a row's size cannot make it look
dependent, and finds it in two steps on one working copy, the scaled A^T
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

:data:`lapack` is the one handle on LAPACK in the package: scipy's f2py
extension module ``scipy.linalg._flapack``, whose routines
``scipy.linalg.lapack`` re-exports, so every call and every bit are those
of scipy's wrappers. It is loaded from its file under the ``scipy``
package's search locations, because importing it by name runs
``scipy/linalg/__init__.py``, which with scipy 1.17 takes about 0.25 s
against about 0.1 s for the rest of ``import optlp.cli`` (``python -X
importtime``). A scipy with no such file, such as an editable install,
gets ``scipy.linalg.lapack`` by its package import instead.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
from types import ModuleType

import numpy as np

from .errors import IllConditionedError, InvalidInputError

DEFAULT_RANK_TOL = 1e-12

# From this smaller dimension on, dgeqrt with BLOCKED_QR_NB-column blocks
# factors a matrix, and below it dgeqrf: the measured crossover and block
# size (module docstring)
BLOCKED_QR_MIN_ROWS = 64
BLOCKED_QR_NB = 64


def _load_flapack(scipy_dirs) -> ModuleType:
    """``scipy.linalg._flapack`` from the first of ``scipy_dirs`` (the
    ``scipy`` package's directories) that holds it, without importing
    ``scipy.linalg``; ImportError where none does."""
    name = "scipy.linalg._flapack"
    for scipy_dir in scipy_dirs or ():
        finder = importlib.machinery.FileFinder(
            os.path.join(scipy_dir, "linalg"),
            (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES))
        spec = finder.find_spec(name)
        if spec is not None:
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    raise ImportError(f"no {name} extension file under {scipy_dirs}", name=name)


try:
    lapack = _load_flapack(importlib.util.find_spec("scipy").submodule_search_locations)
except ImportError:
    from scipy.linalg import lapack


def row_scales(a: np.ndarray) -> np.ndarray:
    """The largest magnitude of each row of ``a``, with 1 for a zero row.
    Taken from the row maxima and minima, as a row's 2-norm may overflow."""
    big = np.maximum(a.max(axis=1), -a.min(axis=1))
    big[big == 0.0] = 1.0
    return big


def as_matrix(mat) -> np.ndarray:
    """Coerce to a finite, C-contiguous 2-d float array."""
    a = np.ascontiguousarray(mat, dtype=float)
    if a.ndim != 2:
        raise InvalidInputError(f"expected a 2-d matrix, got ndim={a.ndim}")
    if not np.isfinite(a).all():
        raise InvalidInputError("matrix contains non-finite entries")
    return a


def householder_qr(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Householder QR of a Fortran-order float64 matrix, in place: (qr, t).

    qr is ``mat`` overwritten with R on and above its diagonal and the
    reflectors below it. t describes their scalar factors: the vector tau
    from dgeqrf or, when k = min(mat.shape) >= BLOCKED_QR_MIN_ROWS, the
    nb x k block factors T from dgeqrt (nb = BLOCKED_QR_NB), whose
    diagonals hold the tau (tau[j] = T[j % nb, j]). :func:`apply_q` takes
    either.
    """
    rows, cols = mat.shape
    k = min(rows, cols)
    if k >= BLOCKED_QR_MIN_ROWS:
        qr, t, info = lapack.dgeqrt(BLOCKED_QR_NB, mat, 1)
    else:
        # unblocked at this size whatever lwork allows (module docstring)
        qr, t, _, info = lapack.dgeqrf(mat, cols, 1)
    if info != 0:
        raise IllConditionedError(f"Householder QR failed (LAPACK info {info})")
    return qr, t


def apply_q(qr: np.ndarray, t: np.ndarray, c: np.ndarray, trans: str) -> np.ndarray:
    """Q c (``trans`` "N") or Q^T c ("T"), in place on the Fortran-order c,
    with Q the product of the reflectors of :func:`householder_qr`'s (qr, t):
    by dgemqrt where t is dgeqrt's T, by dormqr where it is dgeqrf's tau."""
    if t.ndim == 2:
        c, _ = lapack.dgemqrt(qr, t, c, "L", trans, 1)
    else:
        c, _, _ = lapack.dormqr("L", trans, qr, t, c, c.shape[1], 1)
    return c


def rank_reveal(a: np.ndarray) -> tuple[int, list[int]]:
    """Numerical row rank of the finite, C-order float64 matrix ``a`` (as
    :func:`as_matrix` gives) plus indices of independent rows.

    Scales each row of ``a`` to largest magnitude 1 (:func:`row_scales`),
    factors the transpose of that scaled copy by :func:`householder_qr`,
    then runs a column-pivoted QR of its upper-triangular R (module
    docstring), and counts pivoted diagonal entries with |R_ii| >
    DEFAULT_RANK_TOL * |R_11|. The returned row indices (sorted) select a
    maximal independent subset of the rows of ``a``. Where scaled rows tie
    exactly, such as a row and a multiple of it, which of them is kept
    follows rounding in R.
    """
    if min(a.shape) == 0:
        return 0, []
    # the scaled copy, transposed to Fortran order, is the one working copy
    qr, _ = householder_qr((a / row_scales(a)[:, None]).T)
    r = qr[:min(a.shape)].copy(order="F")
    del qr
    r[np.tri(*r.shape, k=-1, dtype=bool)] = 0.0  # the reflectors
    _, _, _, work, _ = lapack.dgeqp3(r, lwork=-1, overwrite_a=1)
    r, pivots, _, _, info = lapack.dgeqp3(r, lwork=int(work[0]), overwrite_a=1)
    if info != 0:
        raise IllConditionedError(f"pivoted QR failed (LAPACK info {info})")
    diag = np.abs(np.diagonal(r))
    if diag[0] == 0.0:
        return 0, []
    rank = int(np.count_nonzero(diag > DEFAULT_RANK_TOL * diag[0]))
    kept = sorted(int(i) - 1 for i in pivots[:rank])
    return rank, kept

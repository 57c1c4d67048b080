import numpy as np
import pytest

from optlp.errors import InvalidInputError
from optlp.linalg import (
    least_squares,
    min_norm_solution,
    qr_thin,
    rank_reveal,
    solve_upper_triangular,
)


def test_qr_thin_identity():
    f = qr_thin(np.eye(3))
    assert np.array_equal(f.q, np.eye(3))
    assert np.array_equal(f.r, np.eye(3))


def test_qr_thin_column_vector_normalization():
    f = qr_thin(np.array([[3.0], [4.0]]))
    assert np.allclose(f.q[:, 0], [0.6, 0.8])
    assert np.allclose(f.r, [[5.0]])


def test_qr_thin_reconstruction_and_orthonormality():
    rng = np.random.default_rng(42)
    for _ in range(10):
        a = rng.normal(size=(5, 3))
        f = qr_thin(a)
        assert np.max(np.abs(f.q.T @ f.q - np.eye(3))) <= 1e-12
        assert np.linalg.norm(f.q @ f.r - a) <= 1e-12 * np.linalg.norm(a)
        # R upper triangular with nonnegative diagonal
        assert np.allclose(f.r, np.triu(f.r))
        assert np.min(np.diag(f.r)) >= 0.0


def test_qr_thin_rejects_nonfinite_and_wide():
    with pytest.raises(InvalidInputError):
        qr_thin(np.array([[1.0, np.nan], [0.0, 1.0]]))
    with pytest.raises(InvalidInputError):
        qr_thin(np.ones((2, 3)))


def test_rank_reveal_duplicated_row():
    rank, kept = rank_reveal(np.array([[1.0, 1.0], [2.0, 2.0]]))
    assert rank == 1
    assert len(kept) == 1


def test_rank_reveal_identity():
    rank, kept = rank_reveal(np.eye(3))
    assert rank == 3
    assert kept == [0, 1, 2]


def test_rank_reveal_constructed_dependency():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 6))
    a[2] = a[0] + a[1]
    rank, kept = rank_reveal(a)
    assert rank == 2
    assert len(kept) == 2
    sub = a[kept]
    assert np.linalg.matrix_rank(sub) == 2


def test_rank_reveal_row_permutation_invariant():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(4, 7))
    a[3] = 2.0 * a[1] - a[0]
    perm = rng.permutation(4)
    rank1, _ = rank_reveal(a)
    rank2, _ = rank_reveal(a[perm])
    assert rank1 == rank2 == 3


def test_rank_reveal_zero_matrix_and_bad_tol():
    rank, kept = rank_reveal(np.zeros((2, 3)))
    assert rank == 0 and kept == []
    with pytest.raises(InvalidInputError):
        rank_reveal(np.eye(2), rel_tol=1.5)


def test_triangular_and_least_squares_helpers():
    rng = np.random.default_rng(11)
    r = np.triu(rng.normal(size=(4, 4))) + 4.0 * np.eye(4)
    b = rng.normal(size=4)
    assert np.allclose(r @ solve_upper_triangular(r, b), b)
    assert np.allclose(r.T @ solve_upper_triangular(r, b, transpose=True), b)

    mat = rng.normal(size=(6, 3))
    rhs = rng.normal(size=6)
    f = qr_thin(mat)
    x = least_squares(f, rhs)
    expected, *_ = np.linalg.lstsq(mat, rhs, rcond=None)
    assert np.allclose(x, expected)

    target = rng.normal(size=3)
    u = min_norm_solution(f, target)
    assert np.allclose(mat.T @ u, target)
    # minimum-norm solution lies in range(mat)
    coeffs, *_ = np.linalg.lstsq(mat, u, rcond=None)
    assert np.allclose(mat @ coeffs, u)

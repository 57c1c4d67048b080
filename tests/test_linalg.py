import numpy as np
import pytest

from optlp.errors import IllConditionedError, InvalidInputError
from optlp.linalg import rank_reveal, solve_upper_triangular


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


def test_rank_reveal_zero_matrix():
    rank, kept = rank_reveal(np.zeros((2, 3)))
    assert rank == 0 and kept == []


def test_solve_upper_triangular_ignores_the_lower_triangle():
    rng = np.random.default_rng(11)
    r = np.triu(rng.normal(size=(4, 4))) + 4.0 * np.eye(4)
    b = rng.normal(size=4)
    assert np.allclose(r @ solve_upper_triangular(r, b), b)
    # below the diagonal may sit anything, e.g. Householder reflectors
    stored = r + np.tril(rng.normal(size=(4, 4)), -1)
    assert np.array_equal(solve_upper_triangular(stored, b), solve_upper_triangular(r, b))


def test_solve_upper_triangular_failures_are_package_errors():
    r = np.triu(np.ones((3, 3))) + np.eye(3)
    b = np.ones(3)
    singular = r.copy()
    singular[1, 1] = 0.0
    with pytest.raises(IllConditionedError) as info:
        solve_upper_triangular(singular, b)
    assert info.value.index == 1
    for bad_r, bad_b in ((r, np.array([1.0, np.nan, 1.0])), (np.where(r == 2.0, np.inf, r), b)):
        with pytest.raises(IllConditionedError):
            solve_upper_triangular(bad_r, bad_b)
    # shapes that dtrtrs would not reject on its own
    for bad_r, bad_b in ((r, np.ones(4)), (r[:2], b), (r, np.ones((3, 1, 1)))):
        with pytest.raises(InvalidInputError):
            solve_upper_triangular(bad_r, bad_b)

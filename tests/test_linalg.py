import numpy as np

from optlp.linalg import rank_reveal


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

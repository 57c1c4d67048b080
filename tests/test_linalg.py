import re

import numpy as np
import pytest
import scipy.linalg

from optlp import linalg
from optlp.linalg import DEFAULT_RANK_TOL, rank_reveal

from helpers import SRC, run_python


def python_output(code: str, *args: str) -> str:
    done = run_python("-c", code, *args)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_importing_the_package_leaves_scipy_linalg_unimported():
    out = python_output("import sys, optlp, optlp.cli\n"
                        "print('scipy.linalg' in sys.modules, optlp.linalg.lapack.__name__)")
    assert out.split() == ["False", "scipy.linalg._flapack"]


def test_every_lapack_routine_called_is_scipys_own():
    called = {name for path in (SRC / "optlp").glob("*.py")
              for name in re.findall(r"\blapack\.(\w+)\(", path.read_text())}
    assert called >= {"dgeqrf", "dgeqrt", "dgemqrt", "dgeqp3", "dormqr", "dtrtrs"}
    for name in called:
        assert getattr(linalg.lapack, name) is getattr(scipy.linalg.lapack, name)


def test_missing_extension_file_falls_back_to_scipy_linalg(tmp_path):
    with pytest.raises(ImportError):
        linalg._load_flapack([str(tmp_path)])
    # the scipy package reports a directory without the extension file
    out = python_output(
        "import importlib.util, sys, types\n"
        "find_spec = importlib.util.find_spec\n"
        "importlib.util.find_spec = lambda name, *rest: (\n"
        "    types.SimpleNamespace(submodule_search_locations=[sys.argv[1]])\n"
        "    if name == 'scipy' else find_spec(name, *rest))\n"
        "import numpy as np, optlp, scipy.linalg\n"
        "print(optlp.linalg.lapack is scipy.linalg.lapack, optlp.linalg.rank_reveal(np.eye(3))[0])",
        str(tmp_path))
    assert out.split() == ["True", "3"]


def test_row_scales_are_largest_magnitudes():
    # a zero row reads 1; no square is taken, so 1e305 rows do not overflow
    a = np.array([[0.0, -3.0, 2.0], [0.0, 0.0, 0.0], [1e305, -1.7e305, 5.0]])
    assert linalg.row_scales(a).tolist() == [3.0, 1.0, 1.7e305]


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


def _scipy_rank_reveal(a):
    # the reference: one column-pivoted QR of the whole A^T, with its rows
    # scaled as rank_reveal scales them, same 1e-12 rule
    r, pivots = scipy.linalg.qr((a / linalg.row_scales(a)[:, None]).T, mode="r", pivoting=True)
    diag = np.abs(np.diag(r))
    rank = int(np.count_nonzero(diag > DEFAULT_RANK_TOL * diag[0]))
    return rank, sorted(int(i) for i in pivots[:rank])


def _draws(rng, m, n):
    """(kind, a, tied) for one seeded draw of each kind at shape (m, n);
    tied marks draws whose candidate rows can tie exactly."""
    k = min(m, n)
    gauss = rng.normal(size=(m, n))
    yield "gauss", gauss, False
    yield "product", rng.normal(size=(m, k // 2)) @ rng.normal(size=(k // 2, n)), False
    dup = rng.normal(size=(m, n))
    dup[m - 1] = dup[0]
    yield "duplicate", dup, True
    ints = rng.integers(-3, 4, size=(m, n)) * (rng.random((m, n)) < 0.3)
    ints[m - 1] = ints[0] + ints[1]
    yield "sparse-int", ints.astype(float), True
    scaled = gauss * 10.0 ** rng.uniform(-3, 3, size=(m, 1)) * 10.0 ** rng.uniform(-3, 3, size=n)
    yield "scaled", scaled, False


# min(m, n) on both sides of BLOCKED_QR_MIN_ROWS, with m < n and m > n; at
# (100, 20) A^T has 100 columns but too few rows for dgeqrt's blocks
@pytest.mark.parametrize("shape", [(40, 100), (100, 20), (80, 200), (200, 80)])
def test_rank_reveal_matches_pivoted_qr_of_the_whole_transpose(shape):
    # R's pivots are A^T's in exact arithmetic; in floating point they agree
    # wherever no two candidate rows tie exactly, and the rank always does
    rng = np.random.default_rng(shape[0] * 1000 + shape[1])
    for draw in range(2):
        for kind, a, tied in _draws(rng, *shape):
            rank, kept = rank_reveal(a)
            ref_rank, ref_kept = _scipy_rank_reveal(a)
            assert rank == ref_rank, (kind, draw)
            if not tied:
                assert kept == ref_kept, (kind, draw)
                continue
            sub = a[kept]
            assert np.linalg.matrix_rank(sub) == rank, (kind, draw)
            dropped = np.setdiff1d(np.arange(shape[0]), kept)
            w = np.linalg.lstsq(sub.T, a[dropped].T, rcond=None)[0]
            err = np.linalg.norm(sub.T @ w - a[dropped].T, axis=0)
            assert np.all(err <= 1e-10 * np.linalg.norm(a[dropped], axis=1)), (kind, draw)

import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.optimize import linprog

from optlp.errors import InvalidInputError
from optlp.linalg import rank_reveal
from optlp.model import (
    Iterate,
    SolverConfig,
    StandardLp,
    gap_and_distance,
    residuals,
    stopping_criterion,
)
from optlp.solver import STATUS_OPTIMAL, generate_synthetic, solve

from helpers import random_interior_iterate


def test_neighborhood_distance_cases():
    e = np.ones(4)
    assert Iterate(e, [0.0], e).neighborhood_dist == 0.0
    assert Iterate([2.0, 1.0], [0.0], [1.0, 2.0]).neighborhood_dist == 0.0
    assert Iterate([1.0, 1.0], [0.0], [3.0, 1.0]).neighborhood_dist == pytest.approx(np.sqrt(2.0))
    for x, s in (([1.0, 0.0], [1.0, 1.0]), ([1.0, 1.0], [1.0, -1.0]), ([], [])):
        with pytest.raises(InvalidInputError):
            Iterate(x, [0.0], s)


def test_neighborhood_zero_iff_constant_product():
    rng = np.random.default_rng(8)
    for _ in range(25):
        x = rng.uniform(0.1, 3.0, size=6)
        s = rng.uniform(0.1, 3.0, size=6)
        d = gap_and_distance(np.concatenate((x, s)))[1]
        if np.allclose(x * s, (x * s)[0]):
            assert d <= 1e-12
        else:
            assert d > 0.0
        # exact construction: s makes the product constant
        s_centered = 1.7 / x
        assert gap_and_distance(np.concatenate((x, s_centered)))[1] <= 1e-12


def test_iterate_owns_its_vectors():
    x, y, s = np.ones(3), np.zeros(1), np.ones(3)
    it = Iterate(x, y, s)
    x[0], y[0], s[1] = 100.0, 5.0, 7.0
    assert it.x[0] == 1.0 and it.y[0] == 0.0 and it.s[1] == 1.0
    assert it.mu == float(it.x @ it.s) / 3 == 1.0


def test_iterate_stacks_x_and_s():
    it = Iterate([1.0, 2.0], [0.5], [3.0, 1.0])
    assert it.xs.tolist() == [1.0, 2.0, 3.0, 1.0]
    assert np.shares_memory(it.x, it.xs) and np.shares_memory(it.s, it.xs)
    assert it.x.tolist() == [1.0, 2.0] and it.s.tolist() == [3.0, 1.0]
    assert it.neighborhood_dist == gap_and_distance(it.xs)[1] == np.sqrt(0.5)


def test_standard_lp_owns_its_arrays():
    # contiguous float64 input passes coercion as it is; the LP must not keep
    # it, or a later write changes A and b under the cached b_scale. With a
    # dependent row dropped, A and b are new arrays and c is still copied.
    dependent = np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 0.0]]), np.array([1.0, 2.0]), np.ones(3)
    for a, b, c in ((np.array([[1.0, 1.0]]), np.array([3.0]), np.array([1.0, 2.0])), dependent):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            lp = StandardLp(a, b, c)
        before = lp.a.tolist(), lp.b.tolist(), lp.c.tolist(), lp.b_scale
        a[:], b[:], c[:] = 5.0, 100.0, 9.0
        assert (lp.a.tolist(), lp.b.tolist(), lp.c.tolist(), lp.b_scale) == before
        assert lp.b_scale == 1.0 + np.linalg.norm(lp.b)


def test_standard_lp_peak_memory_is_one_working_copy():
    # the rank reveal factors one copy of A^T and keeps only its m x m R;
    # a pivoted QR of the whole A^T, with an n x m R and mask, peaked at 2.2x
    rng = np.random.default_rng(0)
    a = rng.normal(size=(200, 512))
    b, c = rng.normal(size=200), rng.normal(size=512)
    tracemalloc.start()
    try:
        StandardLp(a, b, c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.6 * a.nbytes


@pytest.mark.filterwarnings("error")
def test_residual_scales_survive_a_norm_above_1e154():
    # ||b||^2 overflows; 1 + ||b|| must not, or every primal residual reads 0
    a = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    c = np.array([1.0, 1.0, 3.0])
    lp = StandardLp(a, np.array([2e155, 2e155]), c)
    assert lp.b_scale == pytest.approx(2e155 * np.sqrt(2.0), rel=1e-15)
    it = Iterate(1e155 * np.array([1.0, 1.0, 1.0 - 1e-6]), np.zeros(2), c)
    xs = it.x * it.s / 1e155
    assert it.neighborhood_dist == pytest.approx(1e155 * np.linalg.norm(xs - xs.mean()), rel=1e-12)
    pr, dr = residuals(lp, it)
    assert pr == pytest.approx(5e-7, rel=1e-9)
    assert dr == 0.0
    # below the overflow the scale keeps the plain norm's bits
    assert StandardLp(a, np.array([2e150, 2e150]), c).b_scale == 1.0 + np.linalg.norm([2e150, 2e150])


def test_standard_lp_drops_dependent_rows():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(3, 6))
    a[2] = a[0] - 0.5 * a[1]
    b = np.array([1.0, 2.0, 1.0 - 0.5 * 2.0])
    c = rng.normal(size=6)
    with pytest.warns(UserWarning, match="dropping"):
        lp = StandardLp(a, b, c, name="dep")
    assert lp.m == 2
    assert lp.a.shape == (2, 6)


def test_standard_lp_checks_dropped_rows_are_consistent():
    # (1, 1, 1) and (2, 2, 2) tie exactly once scaled to largest magnitude 1,
    # so rounding picks the one dropped; it must carry its share of the
    # other's b, to roundoff relative to the size of b
    a = np.array([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]])
    _, kept = rank_reveal(a)
    dropped = 1 - kept[0]
    for b in ((1.0, 2.0), (1e6, 2e6)):
        with pytest.warns(UserWarning, match="dropping 1"):
            lp = StandardLp(a, np.array(b), np.ones(3))
        assert lp.m == 1
        assert lp.a.tolist() == [a[kept[0]].tolist()] and lp.b.tolist() == [b[kept[0]]]
    for b in ((1.0, 3.0), (1e6, 2e6 + 1.0)):
        with pytest.warns(UserWarning, match="dropping 1"), \
                pytest.raises(InvalidInputError, match=f"row {dropped} .* inconsistent"):
            StandardLp(a, np.array(b), np.ones(3))


def test_a_row_of_tiny_magnitude_is_independent():
    # rank is judged on rows scaled to largest magnitude 1, so a row scaled
    # by 1e-13 stays, and A and b stay as given
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 6))
    a[2] *= 1e-13
    e = np.ones(6)
    b = a @ e
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lp = StandardLp(a, b, e)
    assert lp.m == 3 and np.array_equal(lp.a, a) and np.array_equal(lp.b, b)
    report = solve(lp, Iterate(e, np.zeros(3), e))
    assert report.status == STATUS_OPTIMAL
    # HiGHS's feasibility tolerance ignores the tiny row, so the oracle
    # solves the same LP with row 2 and b_2 scaled by 1e13; the objective
    # lies within the gap x.s = n mu of the optimum
    a[2] *= 1e13
    b[2] *= 1e13
    oracle = linprog(e, A_eq=a, b_eq=b, bounds=(0, None), method="highs")
    assert oracle.status == 0
    assert abs(report.objective - oracle.fun) <= lp.n * report.final.mu + 1e-9 * abs(oracle.fun)


def test_row_and_column_scaling_moves_no_consistency_verdict():
    # seeded rank-deficient LPs with rows and columns scaled by 10^U(-3, 3):
    # a consistent b is never rejected, and a dropped row's b moved by 1e-7
    # of the magnitude of its terms always is, by that row
    rng = np.random.default_rng(2026)
    for _ in range(500):
        n = int(rng.integers(6, 40))
        m = int(rng.integers(2, n))
        rank = int(rng.integers(1, m))
        a = rng.normal(size=(m, rank)) @ rng.normal(size=(rank, n))
        a *= 10.0 ** rng.uniform(-3, 3, size=(m, 1)) * 10.0 ** rng.uniform(-3, 3, size=n)
        x = rng.uniform(0.5, 2.0, size=n)
        b = a @ x
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            assert StandardLp(a, b, np.ones(n)).m == rank
            _, kept = rank_reveal(a)
            row = int(rng.choice(np.setdiff1d(np.arange(m), kept)))
            b[row] += 1e-7 * (np.abs(a[row]) @ x)
            with pytest.raises(InvalidInputError, match=f"row {row} of LP .* inconsistent"):
                StandardLp(a, b, np.ones(n))


def test_standard_lp_rejects_square_and_bad_dims():
    with pytest.raises(InvalidInputError):
        StandardLp(np.eye(3), np.ones(3), np.ones(3))
    with pytest.raises(InvalidInputError):
        StandardLp(np.ones((1, 3)), np.ones(2), np.ones(3))
    with pytest.raises(InvalidInputError, match="^c has length 2, expected 3$"):
        StandardLp(np.ones((1, 3)), np.ones(1), np.ones(2))


def test_standard_lp_rejects_no_constraint_row():
    with pytest.raises(InvalidInputError, match="at least one"):
        StandardLp(np.zeros((0, 3)), np.zeros(0), np.ones(3))
    with pytest.warns(UserWarning, match="dropping 1"), \
            pytest.raises(InvalidInputError, match="at least one"):
        StandardLp(np.zeros((1, 3)), np.zeros(1), np.ones(3))


def test_iterate_validation_and_cached_mu():
    rng = np.random.default_rng(4)
    for _ in range(50):
        x = rng.uniform(1e-6, 5.0, size=7)
        s = rng.uniform(1e-6, 5.0, size=7)
        it = Iterate(x, np.zeros(3), s)
        assert it.mu == pytest.approx(float(x @ s) / 7, rel=1e-14)
        # fuzz: nonpositive entries must be rejected wherever they land
        i = rng.integers(0, 7)
        bad = x.copy()
        bad[i] = -rng.uniform(0.0, 1.0)
        with pytest.raises(InvalidInputError):
            Iterate(bad, np.zeros(3), s)
        bad_s = s.copy()
        bad_s[i] = 0.0
        with pytest.raises(InvalidInputError):
            Iterate(x, np.zeros(3), bad_s)


def test_residuals_feasible_point_and_perturbations():
    lp, start = generate_synthetic(12, 5, seed=9)
    pr, dr = residuals(lp, start)
    assert pr <= 1e-12 and dr <= 1e-12

    # null-space perturbation of x leaves the primal residual unchanged
    rng = np.random.default_rng(10)
    q, _ = np.linalg.qr(lp.a.T, mode="complete")
    delta = 0.01 * (q[:, lp.m:] @ rng.normal(size=lp.n - lp.m))
    x2 = start.x + delta
    assert np.min(x2) > 0
    pr2, _ = residuals(lp, Iterate(x2, start.y, start.s))
    assert pr2 <= 1e-12

    # y perturbation must show up in the dual residual
    _, dr2 = residuals(lp, Iterate(start.x, start.y + 0.1, start.s))
    assert dr2 > 1e-6


def test_residuals_dimension_mismatch():
    lp, _ = generate_synthetic(8, 3, seed=1)
    with pytest.raises(InvalidInputError):
        residuals(lp, Iterate(np.ones(5), np.ones(3), np.ones(5)))


def test_stopping_criterion_formula():
    # one equality row, hand-sized numbers: the rule is
    # mu / max{1, |c.x|, |b.y|} < tol
    lp = StandardLp(np.array([[1.0, 1.0]]), np.array([2.0]), np.array([0.25, 0.25]))

    # mu = 1e-9, |c.x| = 0.5, |b.y| = 0.5: denominator clamps at 1 -> true
    it = Iterate([1.0, 1.0], [0.25], [1e-9, 1e-9])
    assert abs(lp.c @ it.x) == 0.5 and abs(lp.b @ it.y) == 0.5
    assert it.mu == pytest.approx(1e-9)
    assert stopping_criterion(lp, it, 1e-8)

    # mu = 1e-6 against |c.x| = 1e3: ratio 1e-9 -> true
    lp2 = StandardLp(np.array([[1.0, 1.0]]), np.array([2.0]), np.array([500.0, 500.0]))
    it2 = Iterate([1.0, 1.0], [0.0], [1e-6, 1e-6])
    assert abs(lp2.c @ it2.x) == 1e3
    assert stopping_criterion(lp2, it2, 1e-8)

    # mu = 1e-6 against |c.x| = 1: ratio 1e-6 -> false at tol 1e-8
    lp3 = StandardLp(np.array([[1.0, 1.0]]), np.array([2.0]), np.array([0.5, 0.5]))
    it3 = Iterate([1.0, 1.0], [0.0], [1e-6, 1e-6])
    assert not stopping_criterion(lp3, it3, 1e-8)


def test_solver_config_validation():
    cfg = SolverConfig()
    assert cfg.theta == 0.99 and cfg.tol == 1e-8 and cfg.max_iter == 1000
    with pytest.raises(InvalidInputError):
        SolverConfig(theta=1.0)
    with pytest.raises(InvalidInputError):
        SolverConfig(tol=0.0)
    with pytest.raises(InvalidInputError):
        SolverConfig(max_iter=0)
    for bad in (2.5, 3.0, True, "3", None, np.int64(0), np.float64(4.0)):
        with pytest.raises(InvalidInputError):
            SolverConfig(max_iter=bad)
    assert SolverConfig(max_iter=np.int64(7)).max_iter == 7


def test_random_interior_iterates_are_member_points():
    lp, start = generate_synthetic(20, 8, seed=33)
    rng = np.random.default_rng(0)
    for _ in range(5):
        it = random_interior_iterate(lp, start, rng)
        pr, dr = residuals(lp, it)
        assert pr <= 1e-12 and dr <= 1e-12
        assert gap_and_distance(it.xs)[1] <= 0.99 * it.mu

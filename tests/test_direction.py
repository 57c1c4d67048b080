import math
from collections import deque
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import lapack
from scipy.optimize import linprog

from optlp.cli import read_start_file
from optlp.direction import (
    assemble_direction,
    build_factors,
    decompose,
    step_polynomials,
)
from optlp.errors import IllConditionedError, InvalidInputError
from optlp.linalg import BLOCKED_QR_MIN_ROWS
from optlp.model import Iterate, SolverConfig, StandardLp
from optlp.mps import parse_mps, to_standard_form
from optlp.solver import STATUS_OPTIMAL, generate_synthetic, solve

from helpers import (
    dense_kkt_direction,
    mp_kkt_direction,
    random_interior_iterate,
    synthetic_family,
)

NETLIB = Path(__file__).parent / "data" / "netlib"


@pytest.fixture(scope="module")
def problem():
    return generate_synthetic(14, 6, seed=77)


@pytest.fixture(scope="module")
def both_routes(problem):
    """One problem on each side of BLOCKED_QR_MIN_ROWS: dgeqrf factors the
    first, dgeqrt the second. The tests loop over them rather than being
    parametrized, which keeps their names."""
    blocked = generate_synthetic(160, 64, seed=77)
    assert problem[0].m < BLOCKED_QR_MIN_ROWS <= blocked[0].m
    return [problem, blocked]


def reflector_bases(factors):
    """Orthonormal bases (range, null) of range(D A^T) and its complement:
    the columns of Q, formed by applying the factor's reflectors to I."""
    qr, tau, _ = factors
    n, m = qr.shape
    q = lapack.dormqr("L", "N", qr, tau, np.eye(n), n)[0]
    return q[:, :m], q[:, m:]


def halves(dec):
    """p_x, p_s, q_x and q_s: the x and s halves of decompose's p and q."""
    pq, _ = dec
    n = pq.shape[0] // 2
    return pq[:n, 0], pq[n:, 0], pq[:n, 1], pq[n:, 1]


def test_build_factors_unit_scaling(both_routes):
    for lp, start in both_routes:
        factors = build_factors(lp, start)
        assert np.allclose(factors[2], 1.0)
        # Q1 spans range(A^T); Q2 Q2^T projects onto null(A)
        q1, q2 = reflector_bases(factors)
        proj = q1 @ (q1.T @ lp.a.T)
        assert np.allclose(proj, lp.a.T, atol=1e-10)
        complement = q2 @ q2.T
        assert np.max(np.abs(lp.a @ complement)) <= 1e-10 * np.max(np.abs(lp.a))
        z = scipy.linalg.null_space(lp.a)
        assert z.shape[1] + lp.m == lp.n
        assert np.max(np.abs(q1.T @ z)) <= 1e-12


def test_build_factors_orthonormal_and_complementary(both_routes):
    for lp, start in both_routes:
        z = scipy.linalg.null_space(lp.a)
        assert z.shape[1] + lp.m == lp.n
        rng = np.random.default_rng(5)
        for _ in range(5):
            it = random_interior_iterate(lp, start, rng)
            factors = build_factors(lp, it)
            q1, q2 = reflector_bases(factors)
            assert np.max(np.abs(q1.T @ q1 - np.eye(lp.m))) <= 1e-12
            assert np.max(np.abs(q2.T @ q2 - np.eye(lp.n - lp.m))) <= 1e-12
            # an independent orthonormal basis of the scaled null space range(D^-1 Z)
            zd, _ = np.linalg.qr(z / factors[2][:, None])
            assert np.max(np.abs(q1.T @ zd)) <= 1e-12
            combined = zd @ zd.T + q1 @ q1.T
            assert np.max(np.abs(combined - np.eye(lp.n))) <= 1e-9
            assert np.max(np.abs(zd @ zd.T - q2 @ q2.T)) <= 1e-9
            p_x, _, q_x, _ = halves(decompose(factors, it))
            for u in (p_x, q_x):
                bound = 1e-10 * np.max(np.abs(lp.a)) * np.linalg.norm(u)
                assert np.max(np.abs(lp.a @ u)) <= bound


def test_blocked_route_matches_dgeqrf(both_routes):
    # dgeqrt leaves the same reflectors and R1 as dgeqrf; its tau are read
    # off the diagonals of T's blocks
    lp, start = both_routes[1]
    rng = np.random.default_rng(8)
    for _ in range(3):
        qr, tau, d = build_factors(lp, random_interior_iterate(lp, start, rng))
        ref, ref_tau, _, info = lapack.dgeqrf(lp.a.T * d[:, None])
        assert info == 0
        r1, ref_r1 = np.triu(qr[:lp.m]), np.triu(ref[:lp.m])
        assert np.linalg.norm(r1 - ref_r1) <= 1e-12 * np.linalg.norm(ref_r1)
        assert np.linalg.norm(tau - ref_tau) <= 1e-12 * np.linalg.norm(ref_tau)


def test_build_factors_ill_conditioning_error(both_routes):
    # a ratio x_i/s_i that overflows to inf or underflows to 0 breaks down by
    # index; one far out but representable, 1e20, is factored
    for lp, start in both_routes:
        for x3, s3 in ((1e300, 1e-300), (1e-170, 1e170)):
            x, s = start.x.copy(), start.s.copy()
            x[3], s[3] = x3, s3
            with np.errstate(over="ignore"), pytest.raises(IllConditionedError) as exc:
                build_factors(lp, Iterate(x, start.y, s))
            assert exc.value.index == 3
        x = start.x.copy()
        x[3] = 1e20
        qr, tau, _ = build_factors(lp, Iterate(x, start.y, start.s))
        assert np.isfinite(qr).all() and np.isfinite(tau).all()


def test_build_factors_overflow_is_ill_conditioned(both_routes):
    # x/s = 1e14 is finite and positive, but D A^T overflows
    for lp, start in both_routes:
        it = Iterate(np.full(lp.n, 1e7), start.y, np.full(lp.n, 1e-7))
        with np.errstate(over="ignore"):
            big = StandardLp(lp.a * 1e305, lp.b * 1e305, lp.c * 1e305)
            with pytest.raises(IllConditionedError):
                build_factors(big, it)


def test_decompose_centered_point_merges_pq(problem):
    lp, start = problem
    # x o s = mu e exactly at the built-in start
    p_x, p_s, q_x, q_s = halves(decompose(build_factors(lp, start), start))
    assert np.allclose(q_x, p_x, atol=1e-12)
    assert np.allclose(q_s, p_s, atol=1e-12)


def test_decompose_triangular_failures_are_package_errors(both_routes):
    # R1 is read inside the factor, under which the reflectors lie: a zero
    # on its diagonal is found by index, and a non-finite right-hand side
    # (here from a gap that overflowed) before the solve
    for lp, start in both_routes:
        qr, tau, d = build_factors(lp, start)
        singular = qr.copy(order="F")
        singular[2, 2] = 0.0
        with pytest.raises(IllConditionedError) as info:
            decompose((singular, tau, d), start)
        assert info.value.index == 2
        overflowed = Iterate.unchecked(start.xs, start.y, math.inf, math.inf)
        with pytest.raises(IllConditionedError):
            decompose((qr, tau, d), overflowed)


def test_decompose_two_variable_hand_case():
    # A = [1 1], x = s = e: p_x is the projection of e on span(1,-1) -> 0,
    # p_s the projection on span(1,1) -> e
    lp = StandardLp(np.array([[1.0, 1.0]]), np.array([2.0]), np.array([1.0, 1.0]))
    it = Iterate([1.0, 1.0], [0.0], [1.0, 1.0])
    p_x, p_s, _, _ = halves(decompose(build_factors(lp, it), it))
    assert np.allclose(p_x, 0.0, atol=1e-14)
    assert np.allclose(p_s, 1.0, atol=1e-14)


def test_decompose_split_identities(problem):
    lp, start = problem
    rng = np.random.default_rng(6)
    for _ in range(8):
        it = random_interior_iterate(lp, start, rng)
        p_x, p_s, q_x, q_s = halves(decompose(build_factors(lp, it), it))
        xs = it.x * it.s
        assert np.allclose(it.s * p_x + it.x * p_s, xs, rtol=1e-10, atol=1e-12)
        assert np.allclose(
            it.s * q_x + it.x * q_s, np.full(lp.n, it.mu), rtol=1e-10, atol=1e-12
        )
        # null-space / row-space membership
        scale_x = np.linalg.norm(p_x) + np.linalg.norm(q_x)
        assert np.linalg.norm(lp.a @ p_x) <= 1e-9 * max(scale_x, 1e-30)
        assert np.linalg.norm(lp.a @ q_x) <= 1e-9 * max(scale_x, 1e-30)
        for v in (p_s, q_s):
            coeffs, *_ = np.linalg.lstsq(lp.a.T, v, rcond=None)
            assert np.linalg.norm(lp.a.T @ coeffs - v) <= 1e-9 * max(np.linalg.norm(v), 1e-30)
        # cross products vanish
        for u in (p_x, q_x):
            for v in (p_s, q_s):
                denom = max(np.linalg.norm(u) * np.linalg.norm(v), 1e-30)
                assert abs(u @ v) <= 1e-9 * denom


def test_assemble_direction_hand_case_sigma_zero():
    lp = StandardLp(np.array([[1.0, 1.0]]), np.array([2.0]), np.array([1.0, 1.0]))
    it = Iterate([1.0, 1.0], [0.0], [1.0, 1.0])
    dec = decompose(build_factors(lp, it), it)
    dxs, dy = assemble_direction(dec, 0.0)
    dx, ds = np.split(dxs, 2)
    ex_dx, ex_dy, ex_ds = dense_kkt_direction(lp.a, it.x, it.s, 0.0)
    assert np.allclose(dx, ex_dx, atol=1e-12)
    assert np.allclose(dy, ex_dy, atol=1e-12)
    assert np.allclose(ds, ex_ds, atol=1e-12)
    assert np.allclose(dx, 0.0, atol=1e-14)
    assert np.allclose(dy, [-1.0])
    assert np.allclose(ds, [1.0, 1.0])


def test_assemble_direction_centered_sigma_one(problem):
    lp, start = problem
    dec = decompose(build_factors(lp, start), start)
    dxs, dy = assemble_direction(dec, 1.0)
    dx, ds = np.split(dxs, 2)
    assert np.max(np.abs(dx)) <= 1e-12
    assert np.max(np.abs(ds)) <= 1e-12


def test_assemble_direction_newton_residuals(problem):
    lp, start = problem
    rng = np.random.default_rng(9)
    for sigma in (0.0, 0.31, 0.5, 1.0):
        it = random_interior_iterate(lp, start, rng)
        dec = decompose(build_factors(lp, it), it)
        dxs, dy = assemble_direction(dec, sigma)
        dx, ds = np.split(dxs, 2)
        rhs = it.x * it.s - sigma * it.mu
        scale = max(np.max(np.abs(rhs)), 1e-30)
        assert np.linalg.norm(lp.a @ dx) <= 1e-9 * max(np.linalg.norm(dx), 1e-30)
        assert np.linalg.norm(lp.a.T @ dy + ds) <= 1e-9 * max(np.linalg.norm(ds), 1e-30)
        third = it.s * dx + it.x * ds - rhs
        assert np.linalg.norm(third) <= 1e-10 * max(np.linalg.norm(rhs), 1.0) * lp.n
        assert np.linalg.norm(third) / max(np.linalg.norm(rhs), 1e-30) <= 1e-9


def test_assemble_direction_sigma_bounds(problem):
    lp, start = problem
    dec = decompose(build_factors(lp, start), start)
    with pytest.raises(InvalidInputError):
        assemble_direction(dec, -0.1)
    with pytest.raises(InvalidInputError):
        assemble_direction(dec, 1.1)


def test_qr_route_matches_dense_solve(problem):
    lp, start = problem
    rng = np.random.default_rng(12)
    for _ in range(6):
        it = random_interior_iterate(lp, start, rng)
        sigma = float(rng.uniform(0.0, 1.0))
        dec = decompose(build_factors(lp, it), it)
        dxs, dy = assemble_direction(dec, sigma)
        dx, ds = np.split(dxs, 2)
        ex_dx, ex_dy, ex_ds = dense_kkt_direction(lp.a, it.x, it.s, sigma)
        for got, ref in ((dx, ex_dx), (dy, ex_dy), (ds, ex_ds)):
            denom = max(np.linalg.norm(ref), 1e-30)
            assert np.linalg.norm(got - ref) <= 1e-8 * max(denom, 1.0)


def test_directions_match_extended_precision_kkt_near_the_optimum():
    # the last iterates of a tight solve have x_i/s_i spread over ~1e-12..1e12,
    # where the null-space projection is most prone to cancellation
    afiro, _ = to_standard_form(parse_mps((NETLIB / "afiro.mps").read_text()))
    afiro_start = read_start_file(NETLIB / "afiro.start", afiro.n, afiro.m)
    worst = 0.0
    for lp, start in synthetic_family(9, n_max=24) + [(afiro, afiro_start)]:
        last = deque(maxlen=3)
        report = solve(lp, start, SolverConfig(tol=1e-12),
                       observer=lambda k, it, dec, sp, pair: last.append((it, dec)))
        assert report.status == STATUS_OPTIMAL
        for it, dec in last:
            for sigma in (0.0, 0.5):
                dx, ds = np.split(assemble_direction(dec, sigma)[0], 2)
                ref_dx, _, ref_ds = mp_kkt_direction(lp.a, it.x, it.s, sigma)
                err = max(np.max(np.abs((dx - ref_dx) * it.s)),
                          np.max(np.abs((ds - ref_ds) * it.x)))
                worst = max(worst, err / it.mu)
    assert worst <= 1e-12


def test_blocked_route_directions_match_extended_precision_kkt():
    # the same oracle and bound on one problem factored by dgeqrt, at the
    # last iterate of a tight solve (x_i/s_i spans ~1e-9..1e9 there)
    lp, start = generate_synthetic(130, 64, 5)
    assert lp.m >= BLOCKED_QR_MIN_ROWS
    last = []
    report = solve(lp, start, SolverConfig(tol=1e-12),
                   observer=lambda k, it, dec, sp, pair: last.append((it, dec)))
    assert report.status == STATUS_OPTIMAL
    it, dec = last[-1]
    dx, ds = np.split(assemble_direction(dec, 0.0)[0], 2)
    ref_dx, _, ref_ds = mp_kkt_direction(lp.a, it.x, it.s, 0.0)
    err = max(np.max(np.abs((dx - ref_dx) * it.s)), np.max(np.abs((ds - ref_ds) * it.x)))
    assert err / it.mu <= 1e-12


def test_directions_match_extended_precision_kkt_beyond_1e16():
    # AFIRO at theta 0.4 and tol 1e-15 ends with x_i/s_i spread over
    # ~1e-13..3e17, where Householder QR of D A^T still gives accurate
    # directions; 80 digits because the spread is wider than 40 cover
    lp, _ = to_standard_form(parse_mps((NETLIB / "afiro.mps").read_text()))
    start = read_start_file(NETLIB / "afiro.start", lp.n, lp.m)
    last = deque(maxlen=3)
    report = solve(lp, start, SolverConfig(theta=0.4, tol=1e-15),
                   observer=lambda k, it, dec, sp, pair: last.append((it, dec)))
    assert report.status == STATUS_OPTIMAL
    oracle = linprog(lp.c, A_eq=lp.a, b_eq=lp.b, bounds=(0, None), method="highs")
    assert oracle.status == 0
    assert abs(report.objective - oracle.fun) <= 1e-6 * abs(oracle.fun)
    it, _ = last[-1]
    assert np.max(it.x / it.s) > 1e16
    for it, dec in last:
        for sigma in (0.0, 0.5):
            dx, ds = np.split(assemble_direction(dec, sigma)[0], 2)
            ref_dx, _, ref_ds = mp_kkt_direction(lp.a, it.x, it.s, sigma, dps=80)
            err = max(np.max(np.abs((dx - ref_dx) * it.s)), np.max(np.abs((ds - ref_ds) * it.x)))
            assert err / it.mu <= 1e-12


def test_gap_identity_inner_products(problem):
    lp, start = problem
    rng = np.random.default_rng(13)
    for _ in range(6):
        it = random_interior_iterate(lp, start, rng)
        sigma = float(rng.uniform(0.0, 1.0))
        dec = decompose(build_factors(lp, it), it)
        dx, ds = np.split(assemble_direction(dec, sigma)[0], 2)
        lhs = float(it.s @ dx + it.x @ ds)
        rhs = float(it.x @ it.s) - sigma * it.mu * lp.n
        assert abs(lhs - rhs) <= 1e-10 * max(abs(rhs), 1.0)


def test_step_polynomials_zero_and_scalar():
    sp = step_polynomials((np.zeros((6, 2), order="F"), np.zeros((1, 2))), theta=0.5, mu=1.0)
    assert (sp.a0, sp.a1, sp.a2, sp.a3, sp.a4) == (0.0, 0.0, 0.0, 0.0, 0.0)

    # n = 1 with (p_x, p_s) = (2, 1) and (q_x, q_s) = (1, 1), giving p = 2,
    # q = 3, r = 1: coefficients must be (4, 12, 13, 6, 1)
    pq = np.array([[2.0, 1.0], [1.0, 1.0]], order="F")
    sp1 = step_polynomials((pq, np.zeros((1, 2))), theta=0.5, mu=1.0)
    assert sp1.p[0] == 2.0 and sp1.q[0] == 3.0 and sp1.r[0] == 1.0
    assert (sp1.a0, sp1.a1, sp1.a2, sp1.a3, sp1.a4) == (4.0, 12.0, 13.0, 6.0, 1.0)


def test_step_polynomial_coefficients_match_quartic_norm(problem):
    lp, start = problem
    rng = np.random.default_rng(15)
    for _ in range(5):
        it = random_interior_iterate(lp, start, rng)
        dec = decompose(build_factors(lp, it), it)
        sp = step_polynomials(dec, theta=0.99, mu=it.mu)
        assert sp.a0 >= 0.0 and sp.a4 >= 0.0
        assert sp.a0 == pytest.approx(float(sp.p @ sp.p), rel=1e-12)
        assert sp.a4 == pytest.approx(float(sp.r @ sp.r), rel=1e-12)
        for sigma in rng.uniform(0.0, 1.0, size=10):
            brute = float(np.linalg.norm(sp.p - sigma * sp.q + sigma**2 * sp.r) ** 2)
            horner = (((sp.a4 * sigma - sp.a3) * sigma + sp.a2) * sigma - sp.a1) * sigma + sp.a0
            assert brute == pytest.approx(horner, rel=1e-10, abs=1e-14)

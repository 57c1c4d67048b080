import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from optlp.direction import StepPolynomials, build_factors, decompose, step_polynomials
from optlp.errors import DegenerateInputError, InvalidInputError, NoFeasibleStepError
from optlp.model import Iterate, SolverConfig, StandardLp
from optlp.solver import STATUS_OPTIMAL, generate_synthetic, safeguarded_step, solve
from optlp.stepsel import (
    CandidatePair,
    eval_f,
    eval_h,
    f_alpha1_poly,
    g_poly,
    real_roots_in_open_unit,
    select_step,
)

from helpers import (
    float64_sign,
    mp_best_step,
    mp_polyroots,
    random_interior_iterate,
    sampled_best_step,
    step_grid_best,
)


def make_sp(a0, a1, a2, a3, a4, theta=1.0, mu=1.0, n=4):
    """StepPolynomials with prescribed coefficients (vectors only carry n)."""
    return StepPolynomials(
        a0=a0, a1=a1, a2=a2, a3=a3, a4=a4, theta=theta, mu=mu,
        p=np.zeros(n), q=np.zeros(n), r=np.zeros(n),
    )


def expand_roots(roots, lead=1.0):
    """Exact coefficient expansion of lead * prod (x - r)."""
    coeffs = [lead]
    for r in roots:
        coeffs = [coeffs[0]] + [
            coeffs[i + 1] - r * coeffs[i] for i in range(len(coeffs) - 1)
        ] + [-r * coeffs[-1]]
    return coeffs


def poly_from_roots(roots, lead=1.0):
    c = expand_roots(roots, lead)
    assert len(c) == 5
    return c


# ---------------------------------------------------------------------------
# f, g, h evaluations


def test_eval_f_arithmetic_case():
    sp = make_sp(4.0, 12.0, 13.0, 6.0, 1.0, theta=1.0, mu=1.0)
    # theta*mu = 1, alpha = 1, sigma = 1: 1 - 6 + 12 - 12 + 4 = -1
    assert eval_f(sp, 1.0, 1.0) == pytest.approx(-1.0)


def test_eval_f_sigma_zero_is_a0():
    sp = make_sp(7.5, 1.0, 2.0, 3.0, 4.0)
    for alpha in (0.1, 0.5, 1.0):
        assert eval_f(sp, 0.0, alpha) == 7.5


def test_eval_f_alpha_zero_rejected():
    sp = make_sp(1.0, 0.0, 0.0, 0.0, 0.0)
    with pytest.raises(InvalidInputError):
        eval_f(sp, 0.5, 0.0)


def test_eval_f_monotone_in_alpha():
    rng = np.random.default_rng(2)
    for _ in range(20):
        sp = make_sp(*rng.uniform(0.0, 3.0, size=5), theta=0.8, mu=1.3)
        sigma = float(rng.uniform(0.05, 0.95))
        alphas = np.linspace(0.05, 1.0, 40)
        vals = [eval_f(sp, sigma, a) for a in alphas]
        assert all(v2 >= v1 for v1, v2 in zip(vals, vals[1:]))


def test_eval_g_endpoints():
    rng = np.random.default_rng(3)
    for _ in range(10):
        a0, a1, a2, a3, a4 = rng.uniform(0.1, 2.0, size=5)
        sp = make_sp(a0, a1, a2, a3, a4)
        g = g_poly(sp)
        assert np.polyval(g, 0.0) == pytest.approx(-2.0 * a0, rel=1e-14)
        assert np.polyval(g, 1.0) == pytest.approx(2.0 * eval_h(sp, 1.0), rel=1e-12, abs=1e-12)
    sp = make_sp(4.0, 12.0, 13.0, 6.0, 1.0)
    assert np.polyval(g_poly(sp), 1.0) == pytest.approx(0.0, abs=1e-12)
    assert eval_h(sp, 1.0) == pytest.approx(0.0, abs=1e-12)


def test_eval_h_is_quartic_norm_and_links_to_f():
    rng = np.random.default_rng(4)
    lp, start = generate_synthetic(12, 5, seed=40)
    for _ in range(5):
        it = random_interior_iterate(lp, start, rng)
        dec = decompose(build_factors(lp, it), it)
        sp = step_polynomials(dec, theta=0.9, mu=it.mu)
        assert eval_h(sp, 0.0) == sp.a0
        for _ in range(10):
            sigma = float(rng.uniform(0.0, 1.0))
            alpha = float(rng.uniform(0.05, 1.0))
            brute = float(np.linalg.norm(sp.p - sigma * sp.q + sigma**2 * sp.r) ** 2)
            assert eval_h(sp, sigma) == pytest.approx(brute, rel=1e-10, abs=1e-14)
            gap = eval_h(sp, sigma) - eval_f(sp, sigma, alpha)
            assert gap == pytest.approx((sp.theta * sp.mu * sigma / alpha) ** 2,
                                        rel=1e-12, abs=1e-14)


# ---------------------------------------------------------------------------
# quartic roots


def test_roots_constructed_quartic():
    poly = poly_from_roots([0.25, 0.5, 2.0, -1.0])
    roots = real_roots_in_open_unit(poly)
    assert len(roots) == 2
    assert roots[0] == pytest.approx(0.25, abs=1e-12)
    assert roots[1] == pytest.approx(0.5, abs=1e-12)


def test_roots_none_real():
    assert real_roots_in_open_unit((1.0, 0.0, 0.0, 0.0, 1.0)) == []


def test_roots_double_root_reported_once():
    # (x - 0.5)^2 (x^2 + 1)
    poly = (1.0, -1.0, 1.25, -1.0, 0.25)
    roots = real_roots_in_open_unit(poly)
    assert len(roots) == 1
    assert roots[0] == pytest.approx(0.5, abs=1e-10)


def test_roots_excludes_boundary_and_outside():
    poly = poly_from_roots([0.0, 1.0, 0.75, -2.0])
    roots = real_roots_in_open_unit(poly)
    assert len(roots) == 1
    assert roots[0] == pytest.approx(0.75, abs=1e-12)


def test_roots_degenerate_degrees():
    # leading zeros: cubic, quadratic, linear, constant
    assert real_roots_in_open_unit((0.0, 1.0, -0.9, 0.08, 0.0)) == pytest.approx(
        [0.1, 0.8], abs=1e-10
    )  # x(x - 0.1)(x - 0.8)
    assert real_roots_in_open_unit((0.0, 0.0, 1.0, -0.5, 0.06)) == pytest.approx(
        [0.2, 0.3], abs=1e-10
    )
    assert real_roots_in_open_unit((0.0, 0.0, 0.0, 2.0, -1.0)) == pytest.approx(
        [0.5], abs=1e-14
    )
    assert real_roots_in_open_unit((0.0, 0.0, 0.0, 0.0, 3.0)) == []
    with pytest.raises(DegenerateInputError):
        real_roots_in_open_unit((0.0, 0.0, 0.0, 0.0, 0.0))


def test_roots_random_reconstruction():
    rng = np.random.default_rng(7)
    for _ in range(50):
        inside = sorted(rng.uniform(0.05, 0.95, size=2))
        while inside[1] - inside[0] < 0.05:
            inside = sorted(rng.uniform(0.05, 0.95, size=2))
        outside = [float(rng.uniform(1.5, 4.0)), float(rng.uniform(-3.0, -0.5))]
        lead = float(rng.uniform(0.5, 2.0))
        poly = poly_from_roots(inside + outside, lead)
        roots = real_roots_in_open_unit(poly)
        assert len(roots) == 2
        assert roots[0] == pytest.approx(inside[0], abs=1e-10)
        assert roots[1] == pytest.approx(inside[1], abs=1e-10)


@pytest.mark.parametrize("coeffs, root", [
    # f(sigma, 1) from a solve of synthetic_family(60, n_max=128): a root of
    # coefficients between 1e-16 and 1e-30 that the closed form missed
    ([1.8757934879358936e-30, -7.263283417991107e-30, -1.6155104489135038e-16,
      -5.232775580103332e-30, 9.773499198527757e-31], 7.778038074643606e-08),
    # one for which it returned 2.299e-07, not a root
    ([7.438420461243829e-24, -2.8908752678783237e-23, -4.502997015003186e-14,
      -1.91093854715203e-23, 3.351067191324626e-24], 8.626409217113688e-06),
])
def test_roots_tiny_coefficients(coeffs, root):
    assert real_roots_in_open_unit(coeffs) == [pytest.approx(root, rel=1e-12)]


# zero, or of a magnitude in [1e-30, 1]: wider ranges put roots beyond the
# reach of the mpmath oracle
_unit_coefficient = st.floats(-1.0, 1.0).filter(lambda c: c == 0.0 or abs(c) >= 1e-30)
_scaled_coefficient = st.just(0.0) | st.builds(
    lambda sign, exponent: sign * 10.0**exponent,
    st.sampled_from([-1.0, 1.0]),
    st.floats(-30.0, 0.0),
)


@given(st.lists(_unit_coefficient, min_size=5, max_size=5)
       | st.lists(_scaled_coefficient, min_size=5, max_size=5))
def test_roots_match_extended_precision(coeffs):
    """Against mpmath.polyroots at 50 digits: every root in (0, 1) across
    which float64 sees a sign change is found to relative 1e-9, and every
    root reported matches one of mpmath's. A root r is exempt only where
    float64 cannot tell p from zero at r (1 +- 1e-6), clipped to [0, 1]."""
    assume(any(coeffs))
    found = real_roots_in_open_unit(coeffs)
    roots = mp_polyroots(coeffs)

    def signs_around(r):
        return (float64_sign(coeffs, r * (1 - 1e-6)),
                float64_sign(coeffs, min(r * (1 + 1e-6), 1.0)))

    for z in roots:
        r = float(z.real)
        if z.imag == 0 and 0.0 < r < 1.0 and signs_around(r) in ((-1, 1), (1, -1)):
            assert any(abs(x - r) <= 1e-9 * r for x in found), (r, found)
    for x in found:
        assert 0.0 < x < 1.0
        if 0 not in signs_around(x):
            assert any(abs(complex(z) - x) <= 1e-9 * x for z in roots), (x, roots)


# ---------------------------------------------------------------------------
# select_step


def harvested_polynomials(count=40, theta=0.99):
    lp, start = generate_synthetic(18, 7, seed=90)
    rng = np.random.default_rng(17)
    out = []
    for _ in range(count):
        it = random_interior_iterate(lp, start, rng, theta=theta)
        dec = decompose(build_factors(lp, it), it)
        out.append(step_polynomials(dec, theta, it.mu))
    return out


def test_select_step_a0_zero_branch():
    sp = make_sp(0.0, 0.0, 0.0, 0.0, 0.0, mu=0.5, n=6)
    pair = select_step(sp)
    assert pair == CandidatePair(sigma=0.0, alpha=1.0, predicted_mu=0.0, origin="a0_zero")
    # just-below-threshold a0 also triggers the branch
    n = 6
    sp2 = make_sp((1e-13 * 0.5 * math.sqrt(n)) ** 2, 0.0, 1.0, 0.0, 1.0, mu=0.5, n=n)
    assert select_step(sp2).origin == "a0_zero"


def test_select_step_prefers_known_f_root():
    # construct f(sigma, 1) with root exactly at 0.3: start from h and theta mu
    # f(s,1) = h(s) - (theta mu)^2 s^2; pick h so that f(0.3) = 0
    theta, mu = 0.9, 1.0
    a0, a1, a2, a3, a4 = 0.09, 1.0, 1.5, 0.2, 0.1
    # tune a0: f(0.3,1) = a4*.0081 - a3*.027 + (a2 - (tm)^2)*.09 - a1*.3 + a0 = 0
    tm2 = (theta * mu) ** 2
    a0 = -(a4 * 0.3**4 - a3 * 0.3**3 + (a2 - tm2) * 0.3**2 - a1 * 0.3)
    sp = make_sp(a0, a1, a2, a3, a4, theta=theta, mu=mu)
    assert eval_f(sp, 0.3, 1.0) == pytest.approx(0.0, abs=1e-15)
    pair = select_step(sp)
    grid = step_grid_best(sp)
    assert pair.predicted_mu <= grid + 1e-6 * mu
    # the exact-root candidate must be at least as good as sigma = 0.3
    assert pair.predicted_mu <= mu * 0.3 + 1e-12


def test_select_step_live_instances_beat_grid():
    for sp in harvested_polynomials(25):
        pair = select_step(sp)
        assert 0.0 < pair.alpha <= 1.0
        assert (0.0 < pair.sigma < 1.0) or (pair.sigma == 0.0 and pair.alpha == 1.0)
        assert pair.predicted_mu == pytest.approx(
            sp.mu * (1.0 - pair.alpha * (1.0 - pair.sigma)), rel=1e-14
        )
        # feasibility of the selected pair
        scale = abs(sp.a0) + (sp.theta * sp.mu) ** 2
        assert eval_f(sp, pair.sigma, pair.alpha) <= 1e-9 * scale
        best = step_grid_best(sp)
        if best is not None:
            assert pair.predicted_mu <= best + 1e-6 * sp.mu


def test_select_step_g_root_identity():
    for sp in harvested_polynomials(15):
        for sigma in real_roots_in_open_unit(g_poly(sp)):
            h = eval_h(sp, sigma)
            if h <= 0.0:
                continue
            alpha = sp.theta * sp.mu * sigma / math.sqrt(h)
            if 0.0 < alpha < 1.0:
                lhs = (sp.theta * sp.mu * sigma / alpha) ** 2
                assert lhs == pytest.approx(h, rel=1e-9)


def test_select_step_shortstep_dominance_when_feasible():
    for sp in harvested_polynomials(25, theta=0.4):
        n = sp.p.shape[0]
        sigma_ss = 1.0 - 0.4 / math.sqrt(n)
        if eval_f(sp, sigma_ss, 1.0) <= 0.0:
            pair = select_step(sp)
            assert pair.predicted_mu <= sp.mu * sigma_ss + 1e-12 * sp.mu


def test_sigma_one_when_root_finding_fails(monkeypatch):
    # any vector-realizable coefficient set has an f or g root analytically,
    # so the endpoint wins only when the root finder comes up empty;
    # simulate that failure mode directly
    import optlp.stepsel as stepsel_mod

    monkeypatch.setattr(stepsel_mod, "real_roots_in_open_unit", lambda poly: [])
    sp = make_sp(1.0, 0.0, 2.0, 0.0, 1.0, theta=0.9, mu=1.0, n=4)
    pair = select_step(sp)
    assert pair.origin == "sigma_one"
    assert pair.sigma == 1.0 and pair.predicted_mu == sp.mu
    assert pair.alpha == sp.theta * sp.mu / math.sqrt(eval_h(sp, 1.0))
    assert eval_f(sp, pair.sigma, pair.alpha) <= 0.0


def test_select_step_huge_h_takes_a_vanishing_sigma_one_step(monkeypatch):
    import optlp.stepsel as stepsel_mod

    monkeypatch.setattr(stepsel_mod, "real_roots_in_open_unit", lambda poly: [])
    # h astronomically large against theta*mu: only a vanishing alpha is
    # admissible, and the safeguard ends the solve on it
    sp = make_sp(1e30, 0.0, 0.0, 0.0, 0.0, theta=1e-6, mu=1e-6, n=4)
    pair = select_step(sp)
    assert pair.origin == "sigma_one" and pair.sigma == 1.0
    assert 0.0 < pair.alpha < 1e-20
    assert eval_f(sp, pair.sigma, pair.alpha) <= 1e-14 * (sp.a0 + (sp.theta * sp.mu) ** 2)
    it = Iterate(np.ones(4), np.zeros(2), np.ones(4))
    direction = (np.full(8, 0.5), np.ones(2))
    with pytest.raises(NoFeasibleStepError):
        safeguarded_step(it, direction, pair, SolverConfig(theta=0.5))


def realizable_polynomials(count, seed=5):
    """Step polynomials of random (p, q, r) with n in 2..8, entries scaled by
    10^U(-1, 1) and mu = 1: h is often large against theta mu, where g wins."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        n = int(rng.integers(2, 9))
        p, q, r = (rng.normal(size=n) * 10.0 ** rng.uniform(-1.0, 1.0, size=n)
                   for _ in range(3))
        out.append(StepPolynomials(
            a0=float(p @ p), a1=2.0 * float(q @ p), a2=2.0 * float(p @ r) + float(q @ q),
            a3=2.0 * float(q @ r), a4=float(r @ r), theta=(0.25, 0.5, 0.9, 0.99)[i % 4],
            mu=1.0, p=p, q=q, r=r,
        ))
    return out


def test_select_step_matches_extended_precision_oracle():
    """select_step's predicted gap is the least over the whole admissible set,
    to relative 1e-12, against the 50-digit one-variable oracle; the oracle is
    itself checked against a float64 sample of 10^5 sigmas. The chosen pair is
    admissible at 50 digits up to the rounding of a float64 root."""
    # polynomials harvested at random iterates only ever give f_root_alpha1
    # (the one live g_root step is test_live_solve_takes_a_g_root_step's);
    # the realizable batch and the last case (h > theta^2 sigma^2, so f(., 1)
    # has no root) give g_root
    cases = (harvested_polynomials(25) + realizable_polynomials(60)
             + [make_sp(1.0, 0.0, 2.0, 0.0, 1.0, theta=0.9)])
    origins = set()
    for sp in cases:
        pair = select_step(sp)
        origins.add(pair.origin)
        phi, sigma_best = mp_best_step(sp)
        assert pair.predicted_mu / sp.mu == pytest.approx(float(phi), rel=1e-12), (
            pair, float(sigma_best))
        assert float(phi) <= sampled_best_step(sp) * (1.0 + 1e-12)
        with mpmath.workdps(50):
            sigma, alpha = mpmath.mpf(pair.sigma), mpmath.mpf(pair.alpha)
            h = sum(mpmath.mpf(c) * sigma**k for k, c in
                    enumerate((sp.a0, -sp.a1, sp.a2, -sp.a3, sp.a4)))
            f = h - (mpmath.mpf(sp.theta) * sp.mu * sigma / alpha) ** 2
            assert f <= 1e-14 * (sp.a0 + (sp.theta * sp.mu) ** 2)
    assert {"f_root_alpha1", "g_root"} <= origins


# An LP and start, n = 4, m = 2, from tools/find_g_root_case.py (seed 0):
# the start lies just inside the theta = 0.7 neighborhood, with y = 0,
# b = A x and c = s
G_ROOT_A = [[0.16210339, -0.32808343, 0.46377585, 0.083694697],
            [0.019377321, -1.1445052, 1.7112299, 0.30188392]]
G_ROOT_X = [0.038777368, 0.46389292, 90.846808, 1.1815073]
G_ROOT_S = [11.062421, 2.979154, 0.0120026, 0.92984784]


def test_live_solve_takes_a_g_root_step():
    """A live solve whose first step is a g root, which predicts the least
    gap over the admissible set against the 50-digit oracle, and which the
    solve goes on from to the optimum."""
    a, x, s = (np.array(v) for v in (G_ROOT_A, G_ROOT_X, G_ROOT_S))
    steps = []
    report = solve(StandardLp(a, a @ x, s), Iterate(x, np.zeros(2), s), SolverConfig(theta=0.7),
                   observer=lambda k, it, dec, sp, pair: steps.append((sp, pair)))
    assert report.status == STATUS_OPTIMAL
    sp, pair = steps[0]
    assert pair.origin == report.iterations[0].origin == "g_root"
    phi, _ = mp_best_step(sp)
    assert pair.predicted_mu / sp.mu == pytest.approx(float(phi), rel=1e-12)


def test_poly_builders_match_definitions():
    sp = make_sp(4.0, 12.0, 13.0, 6.0, 1.0, theta=0.7, mu=2.0)
    c4, c3, c2, c1, c0 = f_alpha1_poly(sp)
    assert (c4, c3, c1, c0) == (1.0, -6.0, -12.0, 4.0)
    assert c2 == pytest.approx(13.0 - (0.7 * 2.0) ** 2)
    assert g_poly(sp) == (
        2.0 * 1.0 - 6.0, 2.0 * 13.0 - 6.0, -36.0, 28.0, -8.0
    )

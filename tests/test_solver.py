import functools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from optlp.cli import read_start_file
from optlp.direction import assemble_direction, build_factors, decompose
from optlp.errors import InvalidInputError, NoFeasibleStepError
from optlp.model import Iterate, SolverConfig, StandardLp, gap_and_distance, residuals
from optlp.mps import parse_mps, to_standard_form
from optlp.solver import (
    SHORTSTEP_THETA,
    STATUS_BREAKDOWN,
    STATUS_MAX_ITER,
    STATUS_NO_START,
    STATUS_OPTIMAL,
    SolveReport,
    generate_synthetic,
    heuristic_start,
    safeguarded_step,
    solve,
    solve_shortstep_baseline,
)
from optlp.stepsel import CandidatePair

from helpers import centred_gaussian_lp, synthetic_family

NETLIB = Path(__file__).parent / "data" / "netlib"


def test_generate_synthetic_contract():
    lp, start = generate_synthetic(12, 5, seed=123)
    pr, dr = residuals(lp, start)
    assert pr <= 1e-14 and dr <= 1e-14
    assert start.mu == 1.0
    assert start.neighborhood_dist == 0.0

    lp2, start2 = generate_synthetic(12, 5, seed=123)
    assert np.array_equal(lp.a, lp2.a)
    assert np.array_equal(lp.b, lp2.b)
    assert np.array_equal(lp.c, lp2.c)
    assert np.array_equal(start.y, start2.y)

    with pytest.raises(InvalidInputError):
        generate_synthetic(4, 4, seed=0)
    with pytest.raises(InvalidInputError):
        generate_synthetic(4, 0, seed=0)


def _count_rank_reveals(monkeypatch, fake_rank=None):
    import optlp.linalg
    import optlp.model
    import optlp.solver

    calls = []

    def counted(a):
        calls.append(a.shape)
        rank, kept = optlp.linalg.rank_reveal(a)
        return (rank, kept) if fake_rank is None else (fake_rank, kept[:fake_rank])

    for module in (optlp.model, optlp.solver):
        monkeypatch.setattr(module, "rank_reveal", counted, raising=False)
    return calls


def test_generate_synthetic_checks_rank_once(monkeypatch):
    calls = _count_rank_reveals(monkeypatch)
    generate_synthetic(16, 7, seed=5)
    assert calls == [(7, 16)]


def test_generate_synthetic_rank_deficient_draw_raises(monkeypatch):
    _count_rank_reveals(monkeypatch, fake_rank=6)
    with pytest.warns(UserWarning, match="rank 6 < 7"), pytest.raises(InvalidInputError):
        generate_synthetic(16, 7, seed=5)


@pytest.mark.parametrize("seed", [0, 1])
def test_tied_rows_solve_to_the_reduced_lps_optimum(seed):
    # a duplicated row and a row equal to the sum of two others, each with
    # a consistent b: whichever of the tied rows the reveal keeps, both
    # algorithms reach the optimum of the LP without them
    lp, start = generate_synthetic(24, 10, seed=seed)
    cfg = SolverConfig(tol=1e-12)
    ref = solve(lp, start, cfg)
    assert ref.status == STATUS_OPTIMAL
    extra = np.vstack((lp.a[0], lp.a[1] + lp.a[2]))
    with pytest.warns(UserWarning, match="dropping 2"):
        tied = StandardLp(np.vstack((lp.a, extra)), np.concatenate((lp.b, extra @ start.x)), lp.c)
    y = np.linalg.lstsq(tied.a.T, lp.c - start.s, rcond=None)[0]
    tied_start = Iterate(start.x, y, start.s)
    for run, theta in ((solve, cfg.theta), (solve_shortstep_baseline, SHORTSTEP_THETA)):
        report = run(tied, tied_start, SolverConfig(theta=theta, tol=cfg.tol, max_iter=1000))
        assert report.status == STATUS_OPTIMAL, run.__name__
        assert report.objective == pytest.approx(ref.objective, rel=1e-8), run.__name__


def test_solve_synthetic_to_optimality():
    lp, start = generate_synthetic(20, 9, seed=11)
    report = solve(lp, start)
    assert report.status == STATUS_OPTIMAL
    mus = [rec.mu for rec in report.iterations]
    assert all(m2 < m1 for m1, m2 in zip(mus, mus[1:]))
    assert mus[0] < start.mu
    pr, dr = residuals(lp, report.final)
    assert pr <= 1e-9 and dr <= 1e-9


def test_solve_gap_law_and_neighborhood_records():
    lp, start = generate_synthetic(24, 10, seed=29)
    cfg = SolverConfig()
    report = solve(lp, start, cfg)
    assert report.status == STATUS_OPTIMAL
    prev_mu = start.mu
    for rec in report.iterations:
        if rec.origin != "a0_zero":
            predicted = prev_mu * (1.0 - rec.alpha * (1.0 - rec.sigma))
            assert rec.mu == pytest.approx(predicted, rel=1e-10)
            assert rec.neighborhood_dist <= cfg.theta * rec.mu * (1.0 + 1e-8)
        prev_mu = rec.mu
        assert rec.primal_res <= 1e-9
        assert rec.dual_res <= 1e-9


def test_solve_rejects_bad_starts():
    lp, start = generate_synthetic(10, 4, seed=3)
    # outside the neighborhood: scale one product way up
    x = start.x.copy()
    x[0] = 60.0
    bad = Iterate(x, start.y, start.s)
    report = solve(lp, bad, SolverConfig())
    assert report.status == STATUS_NO_START
    assert report.iterations == []

    # infeasible start: right b, wrong x
    infeasible = Iterate(start.x + 0.5, start.y, start.s)
    assert solve(lp, infeasible).status == STATUS_NO_START


def test_overflowing_start_has_no_interior_start():
    # A x overflows, so the primal residual is NaN; such a start is not
    # known to be feasible and must not pass as one. A^T y does not: the
    # dual residual is 1e305 ||s0|| / (1 + 1e305 ||c||), s0 = e the start's s
    lp, start = generate_synthetic(14, 6, seed=77)
    it = Iterate(np.full(lp.n, 1e7), start.y, np.full(lp.n, 1e-7))
    with np.errstate(over="ignore", invalid="ignore"):
        big = StandardLp(lp.a * 1e305, lp.b * 1e305, lp.c * 1e305)
        pr, dr = residuals(big, it)
        assert math.isnan(pr)
        assert dr == pytest.approx(math.sqrt(lp.n) / np.linalg.norm(lp.c), rel=1e-9)
        report = solve(big, it)
    assert report.status == STATUS_NO_START
    assert report.iterations == []

    # a feasible start whose gap x.s/n overflows
    with np.errstate(over="ignore", invalid="ignore"):
        lp = StandardLp(np.array([[1.0, -1.0]]), np.array([0.0]), np.array([1e200, 1e200]))
        it = Iterate([1e200, 1e200], [0.0], [1e200, 1e200])
        assert residuals(lp, it) == (0.0, 0.0) and math.isinf(it.mu)
        assert solve(lp, it).status == STATUS_NO_START


@pytest.mark.filterwarnings("error")
def test_overflowing_start_is_rejected_without_a_warning():
    # A x overflows: the primal residual reads NaN without a RuntimeWarning
    # from the product, and the start is rejected
    lp, start = generate_synthetic(14, 6, seed=77)
    it = Iterate(np.full(lp.n, 1e7), start.y, np.full(lp.n, 1e-7))
    with np.errstate(over="ignore", invalid="ignore"):
        big = StandardLp(lp.a * 1e305, lp.b * 1e305, lp.c * 1e305)
    assert math.isnan(residuals(big, it)[0])
    assert solve(big, it).status == STATUS_NO_START


def test_shortstep_default_config_solves_afiro():
    # SolverConfig's default max_iter, which the command line shares, covers
    # the short step's 290 iterations on AFIRO
    lp, _ = to_standard_form(parse_mps((NETLIB / "afiro.mps").read_bytes()))
    report = solve_shortstep_baseline(lp, read_start_file(NETLIB / "afiro.start", lp.n, lp.m))
    assert report.status == STATUS_OPTIMAL
    assert report.iteration_count == 290


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("runner", [solve, solve_shortstep_baseline])
@pytest.mark.parametrize("seed", range(3))
def test_a_power_of_two_scaling_scales_every_iterate_exactly(runner, seed):
    # x = s = 2^32 e against 2^256 e: mu starts at 2^64 and 2^512, where the
    # step quartic h, about mu^2, would overflow unless it is formed scaled
    small, large = (runner(*centred_gaussian_lp(seed, 2.0**k)) for k in (32, 256))
    assert small.status == large.status == STATUS_OPTIMAL
    assert ([(r.sigma, r.alpha, r.origin) for r in small.iterations]
            == [(r.sigma, r.alpha, r.origin) for r in large.iterations])
    assert [r.mu * 2.0**448 for r in small.iterations] == [r.mu for r in large.iterations]
    assert np.array_equal(small.final.x * 2.0**224, large.final.x)


def test_solve_observer_sees_every_iteration():
    lp, start = generate_synthetic(16, 7, seed=41)
    seen = []
    report = solve(lp, start, observer=lambda k, it, dec, pair: seen.append((k, pair)))
    assert len(seen) == report.iteration_count
    assert [k for k, _ in seen] == [rec.k for rec in report.iterations]


def test_one_iteration_exact_case():
    # s0 lies in range(A^T), so p_x = 0 and a0 = 0: one pure Newton step
    # lands exactly on an optimal pair
    lp = StandardLp(np.array([[1.0, 1.0]]), np.array([2.0]), np.array([2.0, 2.0]))
    start = Iterate([1.0, 1.0], [1.0], [1.0, 1.0])
    report = solve(lp, start)
    assert report.status == STATUS_OPTIMAL
    assert report.iteration_count == 1
    rec = report.iterations[0]
    assert rec.origin == "a0_zero"
    assert rec.sigma == 0.0 and rec.alpha == 1.0
    assert report.final.mu <= 1e-15
    assert report.objective == pytest.approx(4.0)


def exact_landing_problem(n, m, seed):
    # s0 = A^T e_0 > 0 lies in range(A^T), so a0 = 0, and x0 = mean(s0)/s0
    # is centered: the pure Newton step lands on s = 0, where every landed
    # s_i is roundoff of either sign
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(m, n))
    a[0] = np.abs(a[0])
    s0, y0 = a[0].copy(), rng.normal(size=m)
    x0 = np.mean(s0) / s0
    return StandardLp(a, a @ x0, a.T @ y0 + s0), Iterate(x0, y0, s0)


@pytest.mark.parametrize("n, m, seed", [(64, 24, 3), (512, 200, 2), (1024, 400, 1)])
def test_exact_landing_takes_one_iteration(n, m, seed):
    lp, start = exact_landing_problem(n, m, seed)
    report = solve(lp, start)
    assert report.status == STATUS_OPTIMAL
    assert [rec.origin for rec in report.iterations] == ["a0_zero"]
    assert report.final.mu <= 1e-12 * np.mean(start.s)


@pytest.mark.parametrize("index", [9, 17, 27, 39, 54, 57])
def test_tight_tolerance_ends_optimal(index):
    # at tol 1e-14 these once ended in an exact step whose roundoff-negative
    # components (down to -4.7e-25) raised instead of being set to zero
    lp, start = synthetic_family(60, n_max=128)[index]
    report = solve(lp, start, SolverConfig(tol=1e-14))
    assert report.status == STATUS_OPTIMAL
    assert np.min(report.final.x) >= 0.0 and np.min(report.final.s) >= 0.0


def test_exact_step_far_from_the_optimum_is_safeguarded(monkeypatch):
    # an a0_zero pair whose pure Newton step leaves the positive orthant by
    # far more than roundoff is applied like any other candidate
    import optlp.solver as solver_mod
    from optlp.stepsel import select_step

    calls = []

    def exact_first(*args):
        calls.append(args)
        if len(calls) == 1:
            return CandidatePair(sigma=0.0, alpha=1.0, predicted_mu=0.0, origin="a0_zero")
        return select_step(*args)

    monkeypatch.setattr(solver_mod, "select_step", exact_first)
    lp, start = generate_synthetic(20, 9, seed=11)
    report = solve(lp, start)
    assert report.status == STATUS_OPTIMAL
    first = report.iterations[0]
    assert first.origin == "a0_zero" and first.alpha < 1.0
    assert first.mu == pytest.approx(start.mu * (1.0 - first.alpha), rel=1e-10)


def test_every_accepted_iterate_carries_its_own_product(monkeypatch):
    # x o s is carried from the step's gap_and_distance into the next
    # factorization: after every accepted step, on both QR routes, of both
    # algorithms, and of an a0_zero pair taken exactly and safeguarded, it
    # is x * s to the bit, and mu and the distance are those of xs
    import optlp.solver as solver_mod
    from optlp.stepsel import select_step

    accepted = []

    def recorded(step):
        def wrapper(*args):
            result = step(*args)
            if result is not None:
                accepted.append(result[0] if isinstance(result, tuple) else result)
            return result
        return wrapper

    monkeypatch.setattr(solver_mod, "safeguarded_step", recorded(safeguarded_step))
    monkeypatch.setattr(solver_mod, "_exact_step", recorded(solver_mod._exact_step))
    lp, _ = to_standard_form(parse_mps((NETLIB / "afiro.mps").read_bytes()))
    afiro = (lp, read_start_file(NETLIB / "afiro.start", lp.n, lp.m))
    blocked = generate_synthetic(160, 64, 1)  # 64 rows: dgeqrt
    for problem in (afiro, blocked):
        for runner in (solve, solve_shortstep_baseline):
            assert runner(*problem).status == STATUS_OPTIMAL
    assert solve(*exact_landing_problem(64, 24, 3)).iterations[0].origin == "a0_zero"
    # an a0_zero pair far from the optimum, whose exact step is refused
    pairs = iter([CandidatePair(sigma=0.0, alpha=1.0, predicted_mu=0.0, origin="a0_zero")])
    monkeypatch.setattr(solver_mod, "select_step", lambda *args: next(pairs, None) or select_step(*args))
    report = solve(*blocked)
    assert report.iterations[0].origin == "a0_zero" and report.iterations[0].alpha < 1.0
    assert len(accepted) > 600
    for it in accepted:
        assert it.xos.tobytes() == (it.x * it.s).tobytes()
        assert (it.mu, it.neighborhood_dist) == gap_and_distance(it.xs)[:2]


def test_safeguarded_step_full_alpha_on_clean_pair():
    lp, start = generate_synthetic(14, 6, seed=55)
    report = solve(lp, start)
    # every accepted alpha equals the selected pair's alpha when no
    # backtracking was needed; on this well-conditioned run none should be
    assert all(rec.alpha > 0 for rec in report.iterations)
    cfg = SolverConfig()
    dec = decompose(build_factors(lp, start), start)
    from optlp.direction import step_polynomials
    from optlp.stepsel import select_step

    pair = select_step(step_polynomials(dec), cfg.theta, start.mu, lp.n)
    direction = assemble_direction(dec, pair.sigma)
    accepted, alpha = safeguarded_step(start, direction, pair, cfg)
    assert alpha == pair.alpha


def test_safeguarded_step_backtracks_on_inflated_alpha():
    start = Iterate(np.full(4, 1.0), np.zeros(2), np.full(4, 1.0))
    # direction that overshoots positivity at alpha = 1
    dx = 2.0 * start.x
    dy = np.zeros(2)
    ds = np.zeros(4)
    pair = CandidatePair(sigma=0.5, alpha=1.0, predicted_mu=0.5, origin="g_root")
    accepted, alpha = safeguarded_step(start, (np.concatenate((dx, ds)), dy), pair, SolverConfig())
    assert alpha < 1.0
    assert np.min(accepted.x) > 0.0


def test_safeguarded_step_vanishing_update_raises():
    start = Iterate(np.full(4, 1.0), np.zeros(2), np.full(4, 1.0))
    dx = np.full(4, 1.0)
    pair = CandidatePair(sigma=0.5, alpha=1e-300, predicted_mu=1.0, origin="g_root")
    with pytest.raises(NoFeasibleStepError):
        safeguarded_step(start, (np.concatenate((dx, np.zeros(4))), np.zeros(2)), pair,
                         SolverConfig())


@pytest.mark.parametrize("size", [0.0, 1e-300], ids=["zero", "below precision"])
def test_a_step_that_moves_nothing_is_a_breakdown(monkeypatch, size):
    # a direction that leaves x and s as they are, zero or too small to
    # change them, gives no progress: the safeguard says so, and both
    # drivers end in numerical_breakdown before any iteration is recorded
    import optlp.solver as solver_mod

    lp, start = generate_synthetic(10, 4, seed=6)
    direction = (np.full(2 * lp.n, size), np.full(lp.m, size))
    assert (start.xs - direction[0] == start.xs).all()
    pair = CandidatePair(sigma=0.5, alpha=1.0, predicted_mu=0.5, origin="shortstep")
    with pytest.raises(NoFeasibleStepError, match="^step update fell below machine precision$"):
        safeguarded_step(start, direction, pair, SolverConfig(theta=0.4))
    monkeypatch.setattr(solver_mod, "assemble_direction", lambda dec, sigma: direction)
    for runner in (solve, solve_shortstep_baseline):
        report = runner(lp, start)
        assert report.status == STATUS_BREAKDOWN
        assert report.iterations == [] and report.final is start


def test_safeguarded_step_halves_a_trial_whose_gap_overflows():
    start = Iterate([1.0, 1.0], [0.0], [1.0, 1.0])
    pair = CandidatePair(sigma=0.5, alpha=1.0, predicted_mu=0.5, origin="shortstep")
    with np.errstate(all="ignore"):
        # each x_i s_i overflows at every one of the 31 trial alphas
        with pytest.raises(NoFeasibleStepError, match="within 30 halvings"):
            safeguarded_step(start, (np.full(4, -1e200), np.zeros(1)), pair,
                             SolverConfig(theta=0.4))
        # x_i s_i = 1e308 is finite, but their sum overflows: the trial at
        # alpha = 1 has no finite gap, and the one at alpha = 1/2 is taken
        accepted, alpha = safeguarded_step(start, (np.full(4, -1e154), np.zeros(1)), pair,
                                           SolverConfig(theta=0.4))
    assert alpha == 0.5 and math.isfinite(accepted.mu)


def test_shortstep_factor_and_closed_form():
    lp, start = generate_synthetic(16, 6, seed=19)
    cfg = SolverConfig(theta=0.4, max_iter=400)
    report = solve_shortstep_baseline(lp, start, cfg)
    assert report.status == STATUS_OPTIMAL
    factor = 1.0 - 0.4 / math.sqrt(16)  # n = 16 -> 0.9
    assert factor == 0.9
    mu = start.mu
    for k, rec in enumerate(report.iterations, start=1):
        assert rec.sigma == pytest.approx(factor)
        assert rec.alpha == 1.0
        assert rec.mu == pytest.approx(start.mu * factor**k, rel=1e-12)
        mu = rec.mu
    # neighborhood stays within the short-step radius
    for rec in report.iterations:
        assert rec.neighborhood_dist <= 0.4 * rec.mu * (1.0 + 1e-8)


@pytest.mark.parametrize("index", [9, 47])
def test_shortstep_stays_in_a_small_neighborhood(index):
    # the full short step leaves a theta = 0.02 neighborhood on these
    # problems; the safeguard shortens it instead
    lp, start = synthetic_family(60, n_max=128)[index]
    cfg = SolverConfig(theta=0.02)
    report = solve_shortstep_baseline(lp, start, cfg)
    assert report.status == STATUS_OPTIMAL
    for rec in report.iterations:
        assert rec.neighborhood_dist <= cfg.theta * rec.mu * (1.0 + 1e-8)


def test_optimal_beats_baseline_iterations():
    for seed in (1, 2, 3):
        lp, start = generate_synthetic(25, 10, seed=seed)
        cfg = SolverConfig(theta=0.4, max_iter=500)
        fast = solve(lp, start, cfg)
        slow = solve_shortstep_baseline(lp, start, cfg)
        assert fast.status == STATUS_OPTIMAL and slow.status == STATUS_OPTIMAL
        assert fast.iteration_count <= slow.iteration_count


def test_solve_reports_numerical_breakdown(monkeypatch):
    import optlp.solver as solver_mod
    from optlp.errors import NoFeasibleStepError as NFS

    lp, start = generate_synthetic(10, 4, seed=6)

    def explode(*args):
        raise NFS("synthetic failure")

    monkeypatch.setattr(solver_mod, "select_step", explode)
    report = solver_mod.solve(lp, start)
    assert report.status == "numerical_breakdown"
    assert report.iterations == []
    assert report.final is start


def test_non_finite_dual_update_is_a_breakdown(monkeypatch):
    import optlp.solver as solver_mod

    def nan_in_dy(dec, sigma):
        dxs, dy = assemble_direction(dec, sigma)
        dy = dy.copy()
        dy[0] = np.nan
        return dxs, dy

    lp, start = generate_synthetic(10, 4, seed=6)
    dxs, dy = nan_in_dy(decompose(build_factors(lp, start), start), 0.5)
    pair = CandidatePair(sigma=0.5, alpha=0.1, predicted_mu=0.95, origin="g_root")
    with pytest.raises(NoFeasibleStepError):
        safeguarded_step(start, (dxs, dy), pair, SolverConfig())

    monkeypatch.setattr(solver_mod, "assemble_direction", nan_in_dy)
    runs = [(lp, start, solve), (lp, start, solve_shortstep_baseline)]
    # the exact Newton step of test_one_iteration_exact_case turns the point
    # down and hands it to the safeguard
    exact_lp = StandardLp(np.array([[1.0, 1.0]]), np.array([2.0]), np.array([2.0, 2.0]))
    runs.append((exact_lp, Iterate([1.0, 1.0], [1.0], [1.0, 1.0]), solve))
    for problem, point, runner in runs:
        report = runner(problem, point)
        assert report.status == STATUS_BREAKDOWN
        assert report.iterations == [] and report.final is point


@functools.lru_cache(maxsize=1)
def _small_family():
    return synthetic_family(20, n_max=24)


@given(
    index=st.integers(0, 19),
    tol=st.floats(-16.0, -2.0).map(lambda e: 10.0**e),
    theta=st.floats(0.01, 0.999),
    shortstep=st.booleans(),
)
def test_any_tolerance_and_theta_end_in_a_status(index, tol, theta, shortstep):
    lp, start = _small_family()[index]
    runner = solve_shortstep_baseline if shortstep else solve
    report = runner(lp, start, SolverConfig(theta=theta, tol=tol))
    assert isinstance(report, SolveReport)
    assert report.status in (STATUS_OPTIMAL, STATUS_MAX_ITER, STATUS_BREAKDOWN, STATUS_NO_START)
    for rec in report.iterations:
        if rec.origin == "a0_zero" and rec is report.iterations[-1]:
            continue  # the exact step lands on the boundary, off the path
        assert rec.neighborhood_dist <= theta * rec.mu * (1.0 + 1e-8)


def test_heuristic_start_on_synthetic_is_exact():
    lp, _ = generate_synthetic(15, 6, seed=8)
    it = heuristic_start(lp)
    assert it is not None
    assert np.allclose(it.x, 1.0, atol=1e-12)
    assert np.allclose(it.s, 1.0, atol=1e-12)


def test_heuristic_start_outcome_on_afiro_recorded():
    # the heuristic is deliberately weak: on AFIRO its x has a negative
    # component
    from pathlib import Path
    from optlp.mps import parse_mps, to_standard_form

    path = Path(__file__).parent / "data" / "netlib" / "afiro.mps"
    lp, _ = to_standard_form(parse_mps(path.read_text()))
    assert heuristic_start(lp) is None


def test_heuristic_start_negative_component_is_none():
    # x = e + A^T (A A^T)^-1 (b - A e); with b = -10 the correction makes
    # both components of x negative
    lp = StandardLp(np.array([[1.0, 1.0]]), np.array([-10.0]), np.array([1.0, 2.0]))
    assert heuristic_start(lp) is None


def test_iteration_count_envelope_across_sizes():
    # observational: counts stay within a generous sqrt(n) log(1/eps) envelope
    counts = {}
    for n in (8, 16, 32, 64):
        lp, start = generate_synthetic(n, n // 2, seed=100 + n)
        report = solve(lp, start)
        assert report.status == STATUS_OPTIMAL
        counts[n] = report.iteration_count
        envelope = math.sqrt(n) * math.log(1e8)
        assert report.iteration_count <= envelope
    print("iteration counts by n:", counts)


def test_feasibility_preserved_along_run():
    lp, start = generate_synthetic(30, 12, seed=77)
    report = solve(lp, start)
    pr0, dr0 = residuals(lp, start)
    for i, rec in enumerate(report.iterations, start=1):
        budget = 1e-10 * (1.0 + i)
        assert rec.primal_res <= pr0 + budget
        assert rec.dual_res <= dr0 + budget

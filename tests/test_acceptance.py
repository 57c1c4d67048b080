"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

Criterion 7 exercises the Netlib AFIRO instance from tests/data/netlib
and checks the solver's objective against the published AFIRO optimum.
"""

import math
from pathlib import Path

import numpy as np

from optlp.cli import REFERENCE_ITERATIONS, main as cli_main, read_start_file
from optlp.direction import assemble_direction, build_factors, decompose, step_polynomials
from optlp.model import Iterate, SolverConfig, residuals
from optlp.mps import parse_mps, to_standard_form
from optlp.solver import (
    STATUS_OPTIMAL,
    generate_synthetic,
    solve,
    solve_shortstep_baseline,
)
from optlp.stepsel import f_alpha1_poly, real_roots_in_open_unit

from helpers import (
    dense_kkt_direction,
    random_interior_iterate,
    step_grid_best,
    step_vectors,
    synthetic_family,
)

DATA = Path(__file__).parent / "data" / "netlib"
PUBLISHED_AFIRO_OPTIMUM = -464.75314286


def _report(criterion, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] {criterion}" + (f" — {detail}" if detail else ""))
    assert ok, f"{criterion}: {detail}"


def _direction_at(lp, it):
    dec = decompose(build_factors(lp, it), it)
    return dec, step_polynomials(dec)


def test_criterion_1_algebraic_identities():
    rng = np.random.default_rng(101)
    problems = synthetic_family(10, rng_seed=11, n_max=64)
    checked = 0
    worst = {"gap": 0.0, "inner": 0.0, "newton": 0.0, "quartic": 0.0}
    while checked < 50:
        lp, start = problems[checked % len(problems)]
        it = random_interior_iterate(lp, start, rng)
        sigma = float(rng.uniform(0.0, 1.0))
        alpha = float(rng.uniform(0.05, 1.0))
        dec, h = _direction_at(lp, it)
        dxs, dy = assemble_direction(dec, sigma)
        dx, ds = np.split(dxs, 2)

        # (a) gap law after applying the step with arbitrary alpha
        x2, s2 = it.x - alpha * dx, it.s - alpha * ds
        mu2 = float(x2 @ s2) / lp.n
        predicted = it.mu * (1.0 - alpha * (1.0 - sigma))
        rel = abs(mu2 - predicted) / abs(predicted)
        worst["gap"] = max(worst["gap"], rel)
        assert rel <= 1e-10

        # (b) s.dx + x.ds = x.s - sigma mu n
        lhs = float(it.s @ dx + it.x @ ds)
        rhs = float(it.x @ it.s) - sigma * it.mu * lp.n
        rel = abs(lhs - rhs) / max(abs(float(it.x @ it.s)), 1e-30)
        worst["inner"] = max(worst["inner"], rel)
        assert rel <= 1e-10

        # (c) the Newton system rows
        r1 = np.linalg.norm(lp.a @ dx) / max(np.linalg.norm(dx), 1e-30)
        r2 = np.linalg.norm(lp.a.T @ dy + ds) / max(np.linalg.norm(ds), 1e-30)
        rhs3 = it.x * it.s - sigma * it.mu
        r3 = np.linalg.norm(it.s * dx + it.x * ds - rhs3) / max(np.linalg.norm(rhs3), 1e-30)
        worst["newton"] = max(worst["newton"], r1, r2, r3)
        assert r1 <= 1e-9 and r2 <= 1e-9 and r3 <= 1e-9

        # (d) ||p - sq + s^2 r||^2 equals the quartic h at 10 random sigmas
        p, q, r = step_vectors(dec)
        for sg in rng.uniform(0.0, 1.0, size=10):
            brute = float(np.linalg.norm(p - sg * q + sg * sg * r) ** 2)
            horner = (((h[0] * sg + h[1]) * sg + h[2]) * sg + h[3]) * sg + h[4]
            rel = abs(brute - horner) / max(abs(brute), 1e-30)
            worst["quartic"] = max(worst["quartic"], rel)
            assert rel <= 1e-10
        checked += 1
    _report(
        "criterion 1: algebraic identity suite (50 iterates)",
        True,
        "worst rel errors " + ", ".join(f"{k}={v:.1e}" for k, v in worst.items()),
    )


def test_criterion_2_qr_matches_dense_solve():
    rng = np.random.default_rng(202)
    problems = synthetic_family(5, rng_seed=22, n_max=40)
    worst = 0.0
    for i in range(20):
        lp, start = problems[i % len(problems)]
        it = random_interior_iterate(lp, start, rng, spread=0.4)
        sigma = float(rng.uniform(0.0, 1.0))
        dec, _ = _direction_at(lp, it)
        dxs, dy = assemble_direction(dec, sigma)
        dx, ds = np.split(dxs, 2)
        got = (dx, dy, ds)
        ref = dense_kkt_direction(lp.a, it.x, it.s, sigma)
        for g, r in zip(got, ref):
            rel = np.linalg.norm(g - r) / max(np.linalg.norm(r), 1.0)
            worst = max(worst, rel)
            assert rel <= 1e-8
    _report("criterion 2: QR route matches dense KKT solves", True, f"worst rel {worst:.1e}")


def test_criterion_3_step_selection_beats_grid():
    harvested = []

    def observer(k, it, dec, pair):
        harvested.append((step_polynomials(dec), it.mu, pair))

    rng = np.random.default_rng(303)
    seeds = iter(range(1000, 1100))
    while len(harvested) < 100:
        n = int(rng.integers(8, 40))
        m = int(rng.integers(2, n // 2 + 1))
        lp, start = generate_synthetic(n, m, seed=next(seeds))
        solve(lp, start, SolverConfig(), observer=observer)
    worst = 0.0
    theta = SolverConfig().theta
    for h, mu, pair in harvested[:100]:
        best = step_grid_best(h, theta, mu, grid=200)
        if best is None:
            continue
        slack = pair.predicted_mu - best
        worst = max(worst, slack / mu)
        assert pair.predicted_mu <= best + 1e-6 * mu
    _report(
        "criterion 3: selected pairs beat the 200x200 feasibility grid (100 live instances)",
        True,
        f"worst (selected - grid)/mu = {worst:.2e}",
    )


def _expand(roots, lead=1.0):
    coeffs = [lead]
    for r in roots:
        coeffs = [coeffs[0]] + [coeffs[i + 1] - r * coeffs[i] for i in range(len(coeffs) - 1)] \
            + [-r * coeffs[-1]]
    return coeffs


def test_criterion_4_quartic_root_recovery():
    rng = np.random.default_rng(404)
    cases = []
    # 80 well-separated fully real quartics, two roots inside (0,1)
    for _ in range(80):
        while True:
            inside = sorted(rng.uniform(0.03, 0.97, size=2))
            if inside[1] - inside[0] > 0.05:
                break
        outside = [float(rng.uniform(1.3, 4.0)), float(rng.uniform(-3.0, -0.3))]
        cases.append((inside + outside, inside))
    # 40 with one real pair inside/outside and one complex pair
    for _ in range(40):
        r_in = float(rng.uniform(0.05, 0.95))
        r_out = float(rng.uniform(1.5, 3.0))
        a, b = float(rng.uniform(-1.0, 2.0)), float(rng.uniform(0.3, 2.0))
        # complex pair contributes x^2 - 2a x + (a^2 + b^2)
        quad = [1.0, -2.0 * a, a * a + b * b]
        lin = _expand([r_in, r_out])
        coeffs = np.convolve(lin, quad).tolist()
        cases.append((coeffs, [r_in], "coeffs"))
    # 40 dyadic double roots inside (0,1) (exactly representable)
    for _ in range(40):
        k = int(rng.integers(5, 124))
        double = k / 128.0
        others = [float(rng.integers(2, 5)), -float(rng.integers(1, 4)) / 2.0]
        cases.append(([double, double] + others, [double]))
    # 20 with no real roots at all
    for _ in range(20):
        a1, b1 = float(rng.uniform(-1, 2)), float(rng.uniform(0.2, 1.5))
        a2, b2 = float(rng.uniform(-1, 2)), float(rng.uniform(0.2, 1.5))
        coeffs = np.convolve([1.0, -2 * a1, a1 * a1 + b1 * b1],
                             [1.0, -2 * a2, a2 * a2 + b2 * b2]).tolist()
        cases.append((coeffs, [], "coeffs"))
    # 20 with roots pinned at the boundary (excluded) plus one interior;
    # all dyadic so the expansion is exact and 1.0 stays exactly 1.0
    for _ in range(20):
        interior = float(rng.integers(1, 128)) / 128.0
        outside = float(rng.integers(3, 7)) / 2.0
        cases.append(([0.0, 1.0, interior, outside], [interior]))

    assert len(cases) == 200
    worst = 0.0
    for case in cases:
        if len(case) == 3:
            coeffs, expected = case[0], case[1]
        else:
            roots, expected = case
            coeffs = _expand(list(roots))
        found = real_roots_in_open_unit(coeffs)
        assert len(found) == len(expected), f"{coeffs}: got {found}, want {expected}"
        for got, want in zip(found, sorted(expected)):
            err = abs(got - want)
            worst = max(worst, err)
            assert err <= 1e-10, f"root {want}: error {err:.2e}"
    _report("criterion 4: quartic solver recovers known roots (200 cases)",
            True, f"worst abs error {worst:.1e}")


def _desk_problems():
    rng = np.random.default_rng(505)
    problems = []
    for i in range(20):
        n = int(rng.integers(10, 51))
        m = int(rng.integers(3, min(n // 2, 25) + 1))
        problems.append(generate_synthetic(n, m, seed=7000 + i))
    return problems


def test_criterion_5_desk_scale_convergence():
    worst_iters = 0
    worst_res = 0.0
    for lp, start in _desk_problems():
        report = solve(lp, start, SolverConfig(theta=0.99, tol=1e-8, max_iter=100))
        assert report.status == STATUS_OPTIMAL, f"{lp.name}: {report.status}"
        assert report.iteration_count <= 100
        worst_iters = max(worst_iters, report.iteration_count)
        mus = [rec.mu for rec in report.iterations]
        assert all(b < a for a, b in zip(mus, mus[1:])), f"{lp.name}: mu not decreasing"
        pr, dr = residuals(lp, report.final)
        worst_res = max(worst_res, pr, dr)
        assert pr <= 1e-7 and dr <= 1e-7
    _report("criterion 5: 20 desk-scale problems converge (tol 1e-8, theta 0.99)",
            True, f"max iterations {worst_iters}, worst residual {worst_res:.1e}")


def test_criterion_6_shortstep_dominance():
    checked_iters = []
    for lp, start in _desk_problems():
        sigma_ss = 1.0 - 0.4 / math.sqrt(lp.n)
        cfg = SolverConfig(theta=0.4, max_iter=2000)
        events = []

        def observer(k, it, dec, pair):
            events.append((f_alpha1_poly(step_polynomials(dec), cfg.theta, it.mu), pair))

        fast = solve(lp, start, cfg, observer=observer)
        slow = solve_shortstep_baseline(lp, start, cfg)
        assert fast.status == STATUS_OPTIMAL and slow.status == STATUS_OPTIMAL
        for f1, pair in events:
            if np.polyval(f1, sigma_ss) <= 0.0:
                factor = 1.0 - pair.alpha * (1.0 - pair.sigma)
                assert factor <= sigma_ss + 1e-12, (
                    f"{lp.name}: factor {factor} vs shortstep {sigma_ss}"
                )
        assert fast.iteration_count <= slow.iteration_count, lp.name
        checked_iters.append((fast.iteration_count, slow.iteration_count))
    ratio = np.mean([s / f for f, s in checked_iters])
    _report("criterion 6: per-iteration and total dominance over short-step (theta 0.4)",
            True, f"baseline/optimal iteration ratio ~ {ratio:.1f}x")


def test_criterion_7_netlib_bracket(capsys):
    path = DATA / "afiro.mps"
    assert path.exists(), "tests/data/netlib/afiro.mps missing"
    prob = parse_mps(path.read_text())
    assert len(prob.row_kinds) == 28 and len(prob.column_names()) == 32
    lp, _ = to_standard_form(prob)
    start = read_start_file(path.with_suffix(".start"), lp.n, lp.m)

    report = solve(lp, start, SolverConfig(theta=0.99, tol=1e-8, max_iter=200))
    assert report.status == STATUS_OPTIMAL
    bracket = (1, 3 * REFERENCE_ITERATIONS["afiro"])
    assert bracket[0] <= report.iteration_count <= bracket[1], (
        f"iterations {report.iteration_count} outside {bracket}"
    )

    # independent oracle for the shipped instance's own optimum
    from scipy.optimize import linprog

    oracle = linprog(lp.c, A_eq=lp.a, b_eq=lp.b, bounds=(0, None), method="highs")
    assert oracle.status == 0
    rel_instance = abs(report.objective - oracle.fun) / abs(oracle.fun)
    assert rel_instance <= 1e-6, f"solver vs instance optimum: {rel_instance:.2e}"

    # the bench report over the netlib directory must state start coverage
    code = cli_main(["bench", str(DATA), "--max-iter", "500"])
    captured = capsys.readouterr()
    assert code == 0
    lines = captured.out.splitlines()
    afiro_rows = [l for l in lines if l.startswith("afiro,")]
    assert len(afiro_rows) == 1
    fields = afiro_rows[0].split(",")
    assert fields[3] == "4"  # reference iteration count column
    assert int(fields[1]) == report.iteration_count
    assert "of 11 reference problems" in captured.err

    detail = (
        f"iterations {report.iteration_count} in {bracket}, solver matches the "
        f"instance optimum to {rel_instance:.1e}; 1 of 11 reference problems available"
    )
    rel_published = abs(report.objective - PUBLISHED_AFIRO_OPTIMUM) / abs(PUBLISHED_AFIRO_OPTIMUM)
    _report(
        "criterion 7: Netlib bracket (AFIRO)",
        rel_published <= 1e-6,
        detail + f"; objective {report.objective:.8f} vs published "
        f"{PUBLISHED_AFIRO_OPTIMUM} (rel {rel_published:.1e})",
    )


def test_criterion_8_one_iteration_exact_case():
    # s0 in range(A^T) makes p_x = 0, hence a0 = 0: sigma = 0, alpha = 1
    # reaches an exactly complementary point in a single iteration
    from optlp.model import StandardLp

    lp = StandardLp(np.array([[1.0, 1.0]]), np.array([2.0]), np.array([2.0, 2.0]))
    start = Iterate([1.0, 1.0], [1.0], [1.0, 1.0])
    report = solve(lp, start, SolverConfig())
    ok = (
        report.status == STATUS_OPTIMAL
        and report.iteration_count == 1
        and report.iterations[0].sigma == 0.0
        and report.iterations[0].alpha == 1.0
        and report.iterations[0].origin == "a0_zero"
        and report.final.mu <= 1e-15
    )
    _report("criterion 8: constructed a0 = 0 problem solves in exactly 1 iteration",
            ok, f"status {report.status}, iterations {report.iteration_count}")

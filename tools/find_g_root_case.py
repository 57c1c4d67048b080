"""Search for a small LP and strictly feasible start whose first step is a
``g_root`` pair, and print it as arrays for a test to hold.

On the LPs the package otherwise meets, the joint choice of (sigma, alpha)
lands on the smallest root of f(., 1) with alpha = 1 (``f_root_alpha1``) or
on the exact Newton step: no solve exercises the paper's other candidate
source, the roots of the stationarity quartic g. This script looks for an
iterate where a g root wins, by Nelder-Mead over (A, x, x o s) for n = 4,
m = 2 and theta = 0.7:

- x = exp(u) and x o s = mu (e + r w / ||w||), with w the centred part of a
  free vector, mu = 1 and r = 0.9999 theta, so every point the search tries
  lies just inside the theta-neighborhood;
- y = 0, b = A x and c = s, so the point is feasible by construction;
- the search minimizes min phi(sigma) - sigma_f over a geometric grid of
  sigma in (0, sigma_f), where phi(sigma) = 1 - alpha*(sigma)(1 - sigma) is
  the predicted gap ratio at the largest admissible alpha*(sigma) = min(1,
  theta mu sigma / sqrt(h(sigma))) and sigma_f, the smallest root of f(., 1),
  is what the f root predicts. A negative value means that some sigma below
  the f root predicts a smaller gap, which only a g root can give.

Each restart draws a new point from the seeded generator. The first point
found is rounded to 8 significant digits and solved anew by
``optlp.solve``; it is printed, with its first step, when that step is a
``g_root`` pair and the solve ends ``optimal``. Run it from the root of a
checkout:

    python tools/find_g_root_case.py [seed]
"""

import sys
from pathlib import Path

import numpy as np
from scipy.optimize import minimize

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from optlp.direction import build_factors, decompose, step_polynomials  # noqa: E402
from optlp.errors import OptLpError  # noqa: E402
from optlp.model import Iterate, SolverConfig, StandardLp  # noqa: E402
from optlp.solver import STATUS_OPTIMAL, solve  # noqa: E402
from optlp.stepsel import f_alpha1_poly, real_roots_in_open_unit  # noqa: E402

N, M, THETA = 4, 2, 0.7
RESTARTS = 50


def case(z):
    """(A, x, s) from the search vector z = (A, log x, free part of x o s)."""
    a = z[:M * N].reshape(M, N)
    x = np.exp(z[M * N:M * N + N])
    w = z[M * N + N:] - z[M * N + N:].mean()
    xs = 1.0 + 0.9999 * THETA * w / np.linalg.norm(w)
    return a, x, xs / x


def build(a, x, s):
    return StandardLp(a, a @ x, s), Iterate(x, np.zeros(M), s)


def advantage(z) -> float:
    """min phi over sigma below the f root, minus what the f root predicts;
    0 where there is no f root, or where the point cannot be factored."""
    try:
        lp, it = build(*case(z))
        h = step_polynomials(decompose(build_factors(lp, it), it))
    except OptLpError:
        return 0.0
    roots = real_roots_in_open_unit(f_alpha1_poly(h, THETA, it.mu))
    if not roots:
        return 0.0
    sigma_f = roots[0]
    sigma = sigma_f * np.geomspace(1e-7, 1.0, 400, endpoint=False)
    h_sigma = np.polyval(h, sigma)
    alpha = np.minimum(1.0, THETA * it.mu * sigma / np.sqrt(np.maximum(h_sigma, 1e-300)))
    return float(np.min(1.0 - alpha * (1.0 - sigma))) - sigma_f


def live_first_step(a, x, s):
    """The first pair of a full solve from (x, 0, s), and the solve's status."""
    lp, it = build(a, x, s)
    pairs = []
    report = solve(lp, it, SolverConfig(theta=THETA),
                   observer=lambda k, it, dec, pair: pairs.append(pair))
    return (pairs[0] if pairs else None), report


def main(seed: int) -> int:
    rng = np.random.default_rng(seed)
    for restart in range(RESTARTS):
        z0 = rng.normal(size=M * N + 2 * N)
        with np.errstate(all="ignore"):
            res = minimize(advantage, z0, method="Nelder-Mead",
                           options={"maxfev": 6000, "xatol": 1e-10, "fatol": 1e-12})
        if res.fun >= 0.0:
            continue
        a, x, s = (np.array([float(f"{v:.8g}") for v in arr.ravel()]).reshape(arr.shape)
                   for arr in case(res.x))
        pair, report = live_first_step(a, x, s)
        if pair is None or pair.origin != "g_root" or report.status != STATUS_OPTIMAL:
            continue
        print(f"# seed {seed}, restart {restart}: advantage {res.fun:.3e}")
        print(f"# first step {pair.origin}: sigma = {pair.sigma!r}, alpha = {pair.alpha!r}, "
              f"predicted mu = {pair.predicted_mu!r}")
        print(f"# solve: {report.status} in {report.iteration_count} iterations")
        for name, arr in (("A", a), ("X", x), ("S", s)):
            print(f"{name} = {arr.tolist()!r}")
        return 0
    print(f"no g_root case found in {RESTARTS} restarts", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 0))

"""Build an interior starting point for an MPS instance and freeze it.

Finds max-margin primal and dual interior points with an auxiliary LP
(HiGHS), then runs damped pure-centering Newton steps (sigma = 1, which
leaves the gap unchanged) until the point is comfortably inside the
theta = 0.99 neighborhood. Usage:

    python tools/make_netlib_start.py tests/data/netlib/afiro.mps
"""

import sys
from pathlib import Path

import numpy as np
from scipy.optimize import linprog

from optlp.cli import write_start_file
from optlp.direction import assemble_direction, build_factors, decompose
from optlp.model import Iterate, gap_and_distance
from optlp.mps import parse_mps, to_standard_form


def max_margin_primal(a, b):
    m, n = a.shape
    # max t  s.t.  A x = b, x - t e >= 0, t <= 1
    c = np.zeros(n + 1)
    c[-1] = -1.0
    a_eq = np.hstack([a, np.zeros((m, 1))])
    a_ub = np.hstack([-np.eye(n), np.ones((n, 1))])
    res = linprog(c, A_ub=a_ub, b_ub=np.zeros(n), A_eq=a_eq, b_eq=b,
                  bounds=[(None, None)] * n + [(None, 1.0)], method="highs")
    if res.status != 0 or res.x[-1] <= 0:
        raise SystemExit(f"no strict primal interior (t = {res.x[-1] if res.status == 0 else '?'})")
    return res.x[:-1], res.x[-1]


def max_margin_dual(a, c_vec):
    m, n = a.shape
    # max t  s.t.  c - A^T y - t e >= 0, t <= 1
    obj = np.zeros(m + 1)
    obj[-1] = -1.0
    a_ub = np.hstack([a.T, np.ones((n, 1))])
    res = linprog(obj, A_ub=a_ub, b_ub=c_vec,
                  bounds=[(None, None)] * m + [(None, 1.0)], method="highs")
    if res.status != 0 or res.x[-1] <= 0:
        raise SystemExit("no strict dual interior")
    y = res.x[:-1]
    return y, c_vec - a.T @ y, res.x[-1]


def center(lp, it, target=0.25, max_steps=400):
    for k in range(max_steps):
        dist = it.neighborhood_dist
        if dist <= target * it.mu:
            return it, k
        dec = decompose(build_factors(lp, it), it)
        dxs, dy = assemble_direction(dec, 1.0)
        alpha = 1.0
        for _ in range(60):
            xs = it.xs - alpha * dxs
            if np.min(xs) > 0 and gap_and_distance(xs)[1] < dist:
                it = Iterate(xs[:lp.n], it.y - alpha * dy, xs[lp.n:])
                break
            alpha *= 0.5
        else:
            raise SystemExit(f"centering stalled at distance {dist:.3e}")
    raise SystemExit("centering did not converge")


def main(path):
    path = Path(path)
    lp, _ = to_standard_form(parse_mps(path.read_text()))
    x, tp = max_margin_primal(lp.a, lp.b)
    y, s, td = max_margin_dual(lp.a, lp.c)
    print(f"primal margin {tp:.4f}, dual margin {td:.4f}")
    it = Iterate(x, y, s)
    print(f"initial mu {it.mu:.4f}, distance/mu {it.neighborhood_dist / it.mu:.3f}")
    it, steps = center(lp, it)
    print(f"centered in {steps} steps: mu {it.mu:.4f}, "
          f"distance/mu {it.neighborhood_dist / it.mu:.4f}")
    out = path.with_suffix(".start")
    write_start_file(out, it)
    print(f"wrote {out}")


if __name__ == "__main__":
    main(sys.argv[1])

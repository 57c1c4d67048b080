"""Fingerprint a fixed set of 488 solves, to show that a change leaves every
iterate bit-identical.

The set is AFIRO from its sidecar start plus the 60 problems of
``tests/helpers.py::synthetic_family(60, n_max=128)``, each solved by both
algorithms at theta 0.4 and 0.99 and tol 1e-8 and 1e-12, with max_iter
1000. The SHA-256 covers, per solve and in that order, every
``IterationRecord``, the final x, y and s, the status and the objective.
Floats enter by their exact bits. It also prints how many iterations took
each selection origin (``IterationRecord.origin``), so a change that moves a
selection from one candidate source to another shows by name.

Every problem of that set has fewer than 64 rows, so its factors come from
dgeqrf (``linalg.BLOCKED_QR_MIN_ROWS``). A second set, fingerprinted the
same way after the first, covers the dgeqrt route: ``generate_synthetic``
at (n, m) = (160, 64), (256, 100) and (384, 150) with seeds 1 and 2, with
max_iter 2000, since the short step needs up to about 1,100 iterations at
n = 384 and tol 1e-12. A third set takes the tolerances to
the edge of float64: the 20 problems of ``synthetic_family(20, n_max=24)``
at tol 1e-14 and 1e-16, otherwise as the first set. There the last iterates
spread x_i/s_i beyond 1e16, so the set shows how many solves break down
(``statuses``) as well as whether they changed. A fourth, one line, covers
the command line: AFIRO from its sidecar, solved by both algorithms through
``optlp solve --output json`` with ``--max-iter 1000``; the SHA-256 takes
every value of the parsed reports in order, floats by their bits, so it
shows whether a change to the report's encoding moved any value. None of
these solves takes a ``g_root`` pair, so a fifth set, fingerprinted like the
first, covers one: the pinned start ``G_ROOT_A/X/S`` of ``tests/helpers.py``
(n = 4, m = 2), whose first step is a g root at theta 0.7, solved by
``solve`` alone at theta 0.4, 0.7 and 0.99 and tol 1e-8 and 1e-12. The
start lies outside the theta = 0.4 neighborhood, so two of its six solves
end ``no_interior_start``. A sixth set, fingerprinted like the first,
covers gaps far from 1: ``tests/helpers.py::scale_family()``, 8 x 3
Gaussian LPs with seeds 0-2 from the exactly centred start x = s = 2^k e
(k = 32 and 256), whose gap mu starts at 2^64 and 2^512. The two LPs of a
seed differ by a power of two alone, and so do their iterates. Run it from
the root of a checkout, before and after a change, and compare the output:

    python tools/identical_solves.py
"""

import contextlib
import hashlib
import io
import json
import struct
import sys
from collections import Counter
from dataclasses import astuple
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from helpers import G_ROOT_A, G_ROOT_S, G_ROOT_X, scale_family, synthetic_family  # noqa: E402

from optlp import cli  # noqa: E402
from optlp.cli import read_start_file  # noqa: E402
from optlp.model import Iterate, SolverConfig, StandardLp  # noqa: E402
from optlp.mps import parse_mps, to_standard_form  # noqa: E402
from optlp.solver import generate_synthetic, solve, solve_shortstep_baseline  # noqa: E402

AFIRO = ROOT / "tests" / "data" / "netlib" / "afiro.mps"


def problems():
    lp, _ = to_standard_form(parse_mps(AFIRO.read_bytes()))
    yield lp, read_start_file(AFIRO.with_suffix(".start"), lp.n, lp.m)
    yield from synthetic_family(60, n_max=128)


def blocked_problems():
    for n, m in ((160, 64), (256, 100), (384, 150)):
        for seed in (1, 2):
            yield generate_synthetic(n, m, seed)


def g_root_problem():
    a, x, s = (np.array(v) for v in (G_ROOT_A, G_ROOT_X, G_ROOT_S))
    yield StandardLp(a, a @ x, s), Iterate(x, np.zeros(2), s)


def feed(digest, value) -> None:
    if isinstance(value, float):
        digest.update(struct.pack("<d", value))
    elif isinstance(value, int):
        digest.update(struct.pack("<q", value))
    else:
        digest.update(str(value).encode())


def fingerprint(problem_set, max_iter: int, tols=(1e-8, 1e-12), thetas=(0.4, 0.99),
                runners=(solve, solve_shortstep_baseline)) -> None:
    digest = hashlib.sha256()
    solves = iterations = 0
    statuses = Counter()
    origins = Counter()
    for lp, start in problem_set:
        for runner in runners:
            for theta in thetas:
                for tol in tols:
                    report = runner(lp, start, SolverConfig(theta=theta, tol=tol, max_iter=max_iter))
                    for rec in report.iterations:
                        for value in astuple(rec):
                            feed(digest, value)
                        origins[rec.origin] += 1
                    for vec in (report.final.x, report.final.y, report.final.s):
                        digest.update(vec.tobytes())
                    feed(digest, report.status)
                    feed(digest, report.objective)
                    solves += 1
                    iterations += report.iteration_count
                    statuses[report.status] += 1
    print("origins " + " ".join(f"{k}={v}" for k, v in sorted(origins.items())))
    print(f"solves {solves}")
    print(f"iterations {iterations}")
    print("statuses " + " ".join(f"{k}={v}" for k, v in sorted(statuses.items())))
    print(f"sha256 {digest.hexdigest()}", flush=True)


def feed_parsed(digest, value) -> None:
    """Every scalar of a parsed JSON value, dict keys included, in order."""
    if isinstance(value, dict):
        for key, item in value.items():
            feed(digest, key)
            feed_parsed(digest, item)
    elif isinstance(value, list):
        for item in value:
            feed_parsed(digest, item)
    else:
        feed(digest, value)


def cli_fingerprint() -> None:
    """AFIRO through the command line, one line of output."""
    digest = hashlib.sha256()
    iterations = 0
    statuses = Counter()
    for algorithm in cli.ALGORITHMS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["solve", str(AFIRO), "--start-file", str(AFIRO.with_suffix(".start")),
                             "--algorithm", algorithm, "--max-iter", "1000", "--output", "json"])
        report = json.loads(out.getvalue())
        feed(digest, code)
        feed_parsed(digest, report)
        iterations += len(report["iterations"])
        statuses[report["status"]] += 1
    print(f"cli solves {len(cli.ALGORITHMS)} iterations {iterations} statuses "
          + " ".join(f"{k}={v}" for k, v in sorted(statuses.items()))
          + f" sha256 {digest.hexdigest()}", flush=True)


def main() -> int:
    fingerprint(problems(), max_iter=1000)
    fingerprint(blocked_problems(), max_iter=2000)
    fingerprint(synthetic_family(20, n_max=24), max_iter=1000, tols=(1e-14, 1e-16))
    cli_fingerprint()
    fingerprint(g_root_problem(), max_iter=1000, thetas=(0.4, 0.7, 0.99), runners=(solve,))
    fingerprint(scale_family(), max_iter=1000)
    return 0


if __name__ == "__main__":
    sys.exit(main())

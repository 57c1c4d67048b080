"""Fingerprint a fixed set of 488 solves, to show that a change leaves every
iterate bit-identical.

The set is AFIRO from its sidecar start plus the 60 problems of
``tests/helpers.py::synthetic_family(60, n_max=128)``, each solved by both
algorithms at theta 0.4 and 0.99 and tol 1e-8 and 1e-12, with max_iter
1000. The SHA-256 covers, per solve and in that order, every
``IterationRecord``, the final x, y and s, the status and the objective.
Floats enter by their exact bits. It also prints how many iterations took
each selection origin (``IterationRecord.origin``), so a change that moves a
selection from one candidate source to another shows by name. Run it from
the root of a checkout, before and after a change, and compare the output:

    python tools/identical_solves.py
"""

import hashlib
import struct
import sys
from collections import Counter
from dataclasses import astuple
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from helpers import synthetic_family  # noqa: E402

from optlp.cli import read_start_file  # noqa: E402
from optlp.model import SolverConfig  # noqa: E402
from optlp.mps import parse_mps, to_standard_form  # noqa: E402
from optlp.solver import solve, solve_shortstep_baseline  # noqa: E402

AFIRO = ROOT / "tests" / "data" / "netlib" / "afiro.mps"


def problems():
    lp, _ = to_standard_form(parse_mps(AFIRO.read_bytes()))
    yield lp, read_start_file(AFIRO.with_suffix(".start"), lp.n, lp.m)
    yield from synthetic_family(60, n_max=128)


def feed(digest, value) -> None:
    if isinstance(value, float):
        digest.update(struct.pack("<d", value))
    elif isinstance(value, int):
        digest.update(struct.pack("<q", value))
    else:
        digest.update(str(value).encode())


def main() -> int:
    digest = hashlib.sha256()
    solves = iterations = 0
    statuses = Counter()
    origins = Counter()
    for lp, start in problems():
        for runner in (solve, solve_shortstep_baseline):
            for theta in (0.4, 0.99):
                for tol in (1e-8, 1e-12):
                    report = runner(lp, start, SolverConfig(theta=theta, tol=tol, max_iter=1000))
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
    print(f"sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The four workloads: the inputs each builds from a seed, and the call that
one timed solve makes.

A workload is a fixed list of cases. A run repeats whole passes over the
list, one solve at a time, so iteration counts repeat exactly. Importing
this module imports optlp; the benchmark times that as part of set-up.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import optlp  # from the checkout's src, which run.py puts on sys.path
from optlp import cli

from answers import Answer, read_mps_standard_form

ROOT = Path(__file__).resolve().parent.parent
if not Path(optlp.__file__).resolve().is_relative_to(ROOT / "src"):
    raise ImportError(f"optlp was imported from {optlp.__file__}, not from {ROOT / 'src'}")

AFIRO = ROOT / "tests" / "data" / "netlib" / "afiro.mps"

# Instances per seed on dense_n1024: the iteration count of a single
# instance varies 25-30 from seed to seed, and a mean over three keeps
# that variation inside the benchmark's bounds.
DENSE_INSTANCES = 3
GENERATED_FILES = 4
BATCH_SIZE = 200


@dataclass
class Case:
    label: str
    run: Callable[[], object]  # the timed call
    answer: Callable[[object], Answer]  # raw result of ``run`` -> Answer, untimed
    problem: Callable[[], tuple]  # (A, b, c) the answer is checked against


def _api_case(lp, start) -> Case:
    return Case(lp.name, lambda: optlp.solve(lp, start), _report_answer, lambda: (lp.a, lp.b, lp.c))


def _report_answer(report) -> Answer:
    f = report.final
    return Answer(report.status, f.x, f.y, f.s, report.iteration_count)


def _cli_case(mps_path: Path, *options: str) -> Case:
    argv = ["solve", str(mps_path), "--start-file", str(mps_path.with_suffix(".start")),
            *options, "--output", "json"]

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    return Case(mps_path.stem, run, _cli_answer, lambda: read_mps_standard_form(mps_path))


def _cli_answer(raw) -> Answer:
    code, out, err = raw
    if code != 0:
        return Answer(f"exit code {code}: {err.strip()[-200:]}")
    report = json.loads(out)
    final = report["final"]
    return Answer(report["status"], np.array(final["x"]), np.array(final["y"]),
                  np.array(final["s"]), len(report["iterations"]))


def dense_n1024(seed: int, workdir: Path, tiny: bool) -> list[Case]:
    n, m = (24, 8) if tiny else (1024, 400)
    return [_api_case(*optlp.generate_synthetic(n, m, DENSE_INSTANCES * seed + i))
            for i in range(DENSE_INSTANCES)]


def small_batch(seed: int, workdir: Path, tiny: bool) -> list[Case]:
    # the recipe of tests/helpers.synthetic_family, with n_max = 128
    count, n_max = (5, 16) if tiny else (BATCH_SIZE, 128)
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(count):
        n = int(rng.integers(6, n_max + 1))
        m = int(rng.integers(2, max(3, n // 2)))
        cases.append(_api_case(*optlp.generate_synthetic(n, m, seed=int(rng.integers(0, 2**31)))))
    return cases


def cli_mps(seed: int, workdir: Path, tiny: bool) -> list[Case]:
    n, m = (24, 8) if tiny else (384, 150)
    cases = [_cli_case(AFIRO)]
    for i in range(GENERATED_FILES):
        path = workdir / f"generated{i}.mps"
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["generate", str(n), str(m), str(GENERATED_FILES * seed + i), str(path)])
        if code != 0:
            raise RuntimeError(f"optlp generate exited with {code}")
        cases.append(_cli_case(path))
    return cases


def cli_shortstep(seed: int, workdir: Path, tiny: bool) -> list[Case]:
    # AFIRO is the only input; the seed changes nothing here
    return [_cli_case(AFIRO, "--algorithm", "shortstep", "--max-iter", "1000")]


WORKLOADS = {f.__name__: f for f in (dense_n1024, small_batch, cli_mps, cli_shortstep)}


def warm_up() -> None:
    """One untimed solve through each entry point, so lazy imports and
    first-call set-up inside numpy and scipy are not timed."""
    optlp.solve(*optlp.generate_synthetic(12, 4, 0))
    _cli_case(AFIRO).run()

"""Command-line front end: solve MPS files, generate synthetic instances,
run the benchmark table.

Exit codes for `solve`: 0 optimal, 1 parse/usage error, 2 no interior
start, 3 numerical breakdown, 4 iteration limit reached.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import logging
import os
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from . import mps, solver
from .errors import InvalidInputError, OptLpError
from .model import Iterate, SolverConfig, StandardLp
from .solver import (
    SHORTSTEP_THETA,
    STATUS_BREAKDOWN,
    STATUS_MAX_ITER,
    STATUS_NO_START,
    STATUS_OPTIMAL,
    SolveReport,
    generate_synthetic,
    heuristic_start,
)

log = logging.getLogger("optlp.cli")

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_NO_START = 2
EXIT_BREAKDOWN = 3
EXIT_MAX_ITER = 4

_STATUS_EXIT = {
    STATUS_OPTIMAL: EXIT_OK,
    STATUS_NO_START: EXIT_NO_START,
    STATUS_BREAKDOWN: EXIT_BREAKDOWN,
    STATUS_MAX_ITER: EXIT_MAX_ITER,
}

# Iteration counts reported for the optimal-(sigma, alpha) method on the
# eleven standard-form Netlib problems used for comparison.
REFERENCE_ITERATIONS = {
    "afiro": 4,
    "blend": 13,
    "scagr25": 5,
    "scagr7": 7,
    "scsd1": 18,
    "scsd6": 26,
    "scsd8": 19,
    "sctap1": 17,
    "sctap2": 17,
    "sctap3": 18,
    "share1b": 11,
}

# Each algorithm's runner in optlp.solver and its default theta, the radius
# its theory assumes, as the solver sets it; `bench` runs them in this
# order. A runner is looked up by name when it is called, so that a wrapper
# put on it (a tracer's span) is what runs.
ALGORITHMS = {
    "optimal": ("solve", SolverConfig.theta),
    "shortstep": ("solve_shortstep_baseline", SHORTSTEP_THETA),
}


def _setup_logging() -> None:
    level_name = os.environ.get("OPTLP_LOG", "warning").lower()
    level = {
        "debug": logging.DEBUG,
        "info": logging.INFO,
        "warning": logging.WARNING,
        "error": logging.ERROR,
    }.get(level_name, logging.WARNING)
    logging.basicConfig(stream=sys.stderr, level=level, format="%(name)s: %(message)s")


def write_start_file(path, it: Iterate) -> None:
    """Sidecar start-point format: three lines of floats (x, then y, then s)."""
    with open(path, "w") as fh:
        for vec in (it.x, it.y, it.s):
            fh.write(" ".join(repr(float(v)) for v in vec) + "\n")


def read_start_file(path, n: int, m: int) -> Iterate:
    """Read a sidecar start; token count must be exactly 2n + m. Read as
    bytes, a file that is not text fails as a bad count or a bad number."""
    tokens = Path(path).read_bytes().split()
    if len(tokens) != 2 * n + m:
        raise InvalidInputError(
            f"start file {path} holds {len(tokens)} numbers, expected {2 * n + m}"
        )
    try:
        vals = np.array([float(t) for t in tokens])
    except ValueError as exc:
        raise InvalidInputError(f"start file {path}: {exc}") from None
    return Iterate(vals[:n], vals[n:n + m], vals[n + m:])


def report_to_dict(report: SolveReport, problem: str) -> dict:
    return {
        "problem": problem,
        "status": report.status,
        "objective": report.objective,
        "mu": report.final.mu,
        # what asdict gives, without its deep copy of every field: a record's
        # __dict__ holds its fields, in order
        "iterations": [vars(rec).copy() for rec in report.iterations],
        "final": {
            "x": report.final.x.tolist(),
            "y": report.final.y.tolist(),
            "s": report.final.s.tolist(),
        },
    }


def _print_text_report(report: SolveReport, problem: str, out) -> None:
    print(f"problem          {problem}", file=out)
    print(f"status           {report.status}", file=out)
    print(f"objective        {report.objective:.12g}", file=out)
    print(f"final mu         {report.final.mu:.6e}", file=out)
    print(f"iterations       {report.iteration_count}", file=out)
    if report.iterations:
        print(f"{'k':>4} {'mu':>13} {'sigma':>9} {'alpha':>9} {'dist':>10} "
              f"{'primal':>10} {'dual':>10}  origin", file=out)
        for rec in report.iterations:
            print(
                f"{rec.k:>4} {rec.mu:>13.6e} {rec.sigma:>9.6f} {rec.alpha:>9.6f} "
                f"{rec.neighborhood_dist:>10.3e} {rec.primal_res:>10.3e} "
                f"{rec.dual_res:>10.3e}  {rec.origin}",
                file=out,
            )


def _load_problem(path) -> StandardLp:
    # a notice raised on the way, such as a dropped dependent row, is printed
    # like the other notices, without the warning machinery's source line
    with warnings.catch_warnings(record=True) as notices:
        warnings.simplefilter("always")
        try:
            lp, _ = mps.to_standard_form(mps.parse_mps(Path(path).read_bytes()))
        finally:
            for notice in notices:
                print(f"warning: {notice.message}", file=sys.stderr)
    if not lp.name:
        lp.name = Path(path).stem
    return lp


def _find_start(lp: StandardLp, start_file=None) -> Iterate | None:
    if start_file is not None:
        return read_start_file(start_file, lp.n, lp.m)
    return heuristic_start(lp)


def cmd_solve(args) -> int:
    runner_name, default_theta = ALGORITHMS[args.algorithm]
    theta = args.theta if args.theta is not None else default_theta
    try:
        cfg = SolverConfig(theta=theta, tol=args.tol, max_iter=args.max_iter)
        lp = _load_problem(args.path)
    except (OptLpError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        start = _find_start(lp, args.start_file)
    except (InvalidInputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_START
    if start is None:
        print(f"error: no interior starting point found for {lp.name}", file=sys.stderr)
        return EXIT_NO_START
    report = getattr(solver, runner_name)(lp, start, cfg)
    if args.output == "json":
        # one string and one write: json.dump writes every token separately;
        # without indent, json's C encoder makes the string. The report
        # holds no cycle, so the encoder's check for one per container goes
        print(json.dumps(report_to_dict(report, lp.name), check_circular=False))
    else:
        _print_text_report(report, lp.name, sys.stdout)
    if report.status != STATUS_OPTIMAL:
        print(f"warning: solve finished with status {report.status}", file=sys.stderr)
    return _STATUS_EXIT[report.status]


def cmd_generate(args) -> int:
    try:
        lp, start = generate_synthetic(args.n, args.m, args.seed)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    out = Path(args.out)
    start_path = out.with_suffix(".start")
    try:
        out.write_text(mps.format_mps(lp))
        write_start_file(start_path, start)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    print(f"wrote {out} and {start_path}", file=sys.stderr)
    return EXIT_OK


def _bench_one(path: Path, runs):
    """Solves one file from one start with each (runner, config) of
    ``runs``, optimal then baseline. Returns (problem, iters_optimal,
    iters_baseline, secs_optimal, secs_baseline, start_found); iteration
    fields hold strings for failures, and each seconds field holds its
    solve's wall time, or is empty where no solve ran."""
    name = path.stem
    try:
        lp = _load_problem(path)
    except (OptLpError, OSError) as exc:
        log.warning("%s: %s", path, exc)
        return name, "failed", "failed", "", "", False
    sidecar = path.with_suffix(".start")
    start = None
    try:
        start = _find_start(lp, sidecar if sidecar.exists() else None)
    except (OptLpError, OSError) as exc:
        log.warning("%s: start file rejected: %s", path, exc)
    if start is None:
        return name, "start-failed", "start-failed", "", "", False
    results, seconds = [], []
    start_found = False
    for runner, cfg in runs:
        began = time.perf_counter()
        report = runner(lp, start, cfg)
        seconds.append(f"{time.perf_counter() - began:.6f}")
        if report.status == STATUS_NO_START:
            results.append("start-failed")
            continue
        start_found = True
        if report.status == STATUS_OPTIMAL:
            results.append(report.iteration_count)
        else:
            results.append("failed")
    return name, *results, *seconds, start_found


def cmd_bench(args) -> int:
    try:
        runs = [(getattr(solver, runner_name),
                 SolverConfig(theta=theta, tol=args.tol, max_iter=args.max_iter))
                for runner_name, theta in ALGORITHMS.values()]
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    directory = Path(args.dir)
    if not directory.is_dir():
        print(f"error: {directory} is not a directory", file=sys.stderr)
        return EXIT_PARSE
    paths = sorted(
        (p for p in directory.iterdir() if p.suffix.lower() == ".mps"),
        key=lambda p: p.stem.lower(),
    )
    # opened before the solves, so that a bad path fails at once
    try:
        out = open(args.out, "w", newline="") if args.out else sys.stdout
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        rows = [_bench_one(p, runs) for p in paths]
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["problem", "iters_optimal", "iters_baseline", "paper_iters",
                         "secs_optimal", "secs_baseline"])
        started = 0
        for name, opt_iters, base_iters, opt_secs, base_secs, start_found in rows:
            ref = REFERENCE_ITERATIONS.get(name.lower(), "")
            if name.lower() in REFERENCE_ITERATIONS and start_found:
                started += 1
            writer.writerow([name, opt_iters, base_iters, ref, opt_secs, base_secs])
    finally:
        if args.out:
            out.close()
    print(
        f"interior start found for {started} of {len(REFERENCE_ITERATIONS)} "
        f"reference problems; {len(rows)} file(s) benchmarked",
        file=sys.stderr,
    )
    return EXIT_OK


_TOL_HELP = ("stop once mu / max(1, |c.x|, |b.y|) < TOL (default %(default)s); the gap "
             "x.s is n mu, so the relative duality gap can reach n TOL")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built on the first call and kept: building
    it costs more than a parse, and importing this module builds nothing."""
    parser = argparse.ArgumentParser(
        prog="optlp",
        description="Primal-dual path-following LP solver with jointly optimal "
        "centering and step size.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one MPS file")
    p_solve.add_argument("path")
    p_solve.add_argument("--theta", type=float, default=None,
                         help=f"neighborhood radius (default {ALGORITHMS['optimal'][1]}; "
                         f"{ALGORITHMS['shortstep'][1]} for shortstep)")
    p_solve.add_argument("--tol", type=float, default=SolverConfig.tol, help=_TOL_HELP)
    p_solve.add_argument("--max-iter", type=int, default=SolverConfig.max_iter)
    p_solve.add_argument("--algorithm", choices=tuple(ALGORITHMS), default="optimal")
    p_solve.add_argument("--start-file", default=None,
                         help="sidecar with x, y, s (whitespace-separated)")
    p_solve.add_argument("--output", choices=("text", "json"), default="text")
    p_solve.set_defaults(func=cmd_solve)

    p_gen = sub.add_parser("generate", help="write a synthetic instance + start file")
    p_gen.add_argument("n", type=int)
    p_gen.add_argument("m", type=int)
    p_gen.add_argument("seed", type=int)
    p_gen.add_argument("out", help="output MPS path; start goes to <out>.start")
    p_gen.set_defaults(func=cmd_generate)

    p_bench = sub.add_parser("bench", help="benchmark a directory of MPS files")
    p_bench.add_argument("dir")
    p_bench.add_argument("--tol", type=float, default=SolverConfig.tol, help=_TOL_HELP)
    p_bench.add_argument("--max-iter", type=int, default=SolverConfig.max_iter)
    p_bench.add_argument("--out", default=None, help="CSV path (default: stdout)")
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OptLpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BREAKDOWN


if __name__ == "__main__":
    sys.exit(main())

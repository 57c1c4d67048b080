"""optlp benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload small_batch --seed 1 --seconds 50 --trace 0

Runs from the root of a source checkout and imports optlp from its ``src``.
One process, a closed loop with one solve at a time and single-threaded
BLAS. Every answer is checked (see answers.py). ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run
(see spans.py). The last line of standard output is the JSON result; the
lines before it hold the environment record and the metrics as text.
"""

from __future__ import annotations

import os

# Pinned before anything imports numpy: threaded OpenBLAS made n=256
# solves about 2.5x slower on a 2-core machine.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

WORKLOAD_NAMES = ("dense_n1024", "small_batch", "cli_mps", "cli_shortstep")
# fresh processes whose set-up times give setup_s (their median)
SETUP_SAMPLES = 3
# Untraced passes a run makes at least, so that each case's best time is
# the fastest of several attempts.
MIN_PASSES = 2
CHILD_TIMEOUT_S = 120
# The host's speed drifts by up to 1.6x over minutes, as other tenants load
# it. A fixed pure-Python loop, timed between solves, tracks that drift:
# time metrics are scaled by CALIBRATION_REF_S over the loop's best time
# in the run, which reads them as seconds at the speed where the loop takes
# CALIBRATION_REF_S (its best time on the 2-core host of the README's
# baselines). After each solve the loop runs for CALIBRATION_SHARE of that
# solve's time, and at least once.
CALIBRATION_REF_S = 0.007
CALIBRATION_SHARE = 0.1
WORK_DIR = ROOT / ".perfbench_work"
REF_CACHE = ROOT / ".perfbench_cache" / "refs.json"


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="shrink every workload to a few small problems (for tests)")
    p.add_argument("--probe", choices=("setup", "refs"), default=None,
                   help="internal: time one set-up, or fill the reference cache, and exit")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    return args


@contextlib.contextmanager
def _workdir():
    path = WORK_DIR / str(os.getpid())
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()


def _child(args, probe: str) -> str:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--probe", probe] + (["--tiny"] if args.tiny else [])
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"--probe {probe} failed:\n{done.stderr}")
    return done.stdout


def probe_setup(args) -> float:
    """Seconds to import optlp and build the workload's inputs."""
    with _workdir() as workdir:
        start = time.perf_counter()
        import workloads

        workloads.WORKLOADS[args.workload](args.seed, workdir, args.tiny)
        return time.perf_counter() - start


def _setup_sample(args) -> float:
    return json.loads(_child(args, "setup"))["setup_s"]


def probe_refs(args) -> None:
    """Compute with HiGHS every reference optimum missing from the cache."""
    import answers
    import workloads

    cache = answers.RefCache(REF_CACHE)
    with _workdir() as workdir:
        for case in workloads.WORKLOADS[args.workload](args.seed, workdir, args.tiny):
            problem = case.problem()
            key = answers.problem_key(problem)
            if key not in cache.values:
                cache.values[key] = answers.highs_optimum(problem)
    cache.save()


def reference_optima(args, problems) -> list[float]:
    """HiGHS optima of ``problems``, computed in a child process when not
    cached, so neither its time nor its memory lands in this process."""
    import answers

    keys = [answers.problem_key(p) for p in problems]
    if not all(k in answers.RefCache(REF_CACHE).values for k in keys):
        _child(args, "refs")
    values = answers.RefCache(REF_CACHE).values
    return [values[k] for k in keys]


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "machine": platform.machine(),
    }


class Run:
    """Outcomes of every solve of one run, kept per case."""

    def __init__(self, n_cases: int):
        # seconds of each attempt, per case, for untraced (False) and traced (True) passes
        self.tts = {traced: [[] for _ in range(n_cases)] for traced in (False, True)}
        self.iterations: list[int | None] = [None] * n_cases  # None where no report came back
        self.failures: list[str] = []
        self.passes = {False: 0, True: 0}
        self.calibration: list[float] = []  # seconds of each calibration_loop

    @property
    def slowdown(self) -> float:
        """How much slower the host ran than the reference speed, at its
        fastest in this run."""
        return min(self.calibration) / CALIBRATION_REF_S

    @property
    def attempted(self) -> int:
        return sum(len(t) for per_case in self.tts.values() for t in per_case)

    def best(self, traced: bool = False) -> list[float]:
        """Each case's fastest attempt. Repeats of a case do identical work;
        they differ only by interference from outside the process."""
        return [min(t) for t in self.tts[traced]]

    def best_at_reference_speed(self) -> list[float]:
        return [t / self.slowdown for t in self.best()]


def calibration_loop() -> float:
    """Seconds one fixed pass of interpreter arithmetic takes. It calls
    nothing of optlp, so a change to optlp cannot move it."""
    start = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i % 7
    return time.perf_counter() - start


def calibrate(run: Run, seconds: float) -> None:
    """Time calibration_loop until ``seconds`` have passed, at least once."""
    spent = 0.0
    while True:
        run.calibration.append(calibration_loop())
        spent += run.calibration[-1]
        if spent >= seconds:
            return


def run_pass(cases, problems, refs, run: Run, traced: bool, deadline: float | None = None) -> None:
    """Solve the cases once each, timed, each followed by calibration, then
    check the answers untimed. With a deadline, the pass ends early at the
    first case that would start after it."""
    from answers import check

    raws = []
    for case in cases:
        if deadline is not None and time.perf_counter() >= deadline:
            break
        start = time.perf_counter()
        try:
            raw, error = case.run(), None
        except (Exception, SystemExit) as exc:
            raw, error = None, f"{type(exc).__name__}: {exc}"
        tts = time.perf_counter() - start
        raws.append((tts, raw, error))
        calibrate(run, CALIBRATION_SHARE * tts)
    run.passes[traced] += 1

    for i, (case, problem, ref, (tts, raw, error)) in enumerate(zip(cases, problems, refs, raws)):
        run.tts[traced][i].append(tts)
        if error is None:
            try:
                answer = case.answer(raw)
                run.iterations[i] = answer.iterations
                error = check(problem, answer, ref)
            except Exception as exc:  # a malformed report is a failed solve
                error = f"{type(exc).__name__}: {exc}"
        if error is not None:
            run.failures.append(f"{case.label}: {error}")


def measure(cases, problems, refs, seconds: float, tracer=None) -> Run:
    """Passes over ``cases`` until ``seconds`` have passed. Without a
    tracer: at least MIN_PASSES whole passes, and then passes that end at
    the first case that would start after the deadline. With a tracer,
    whole passes alternate untraced and traced, at least one of each, so
    per-layer figures average over the whole case list."""
    run = Run(len(cases))
    need = {False: 1, True: 1} if tracer else {False: MIN_PASSES, True: 0}
    deadline = time.perf_counter() + seconds
    while True:
        done = all(run.passes[t] >= n for t, n in need.items())
        if done and time.perf_counter() >= deadline:
            return run
        traced = tracer is not None and run.passes[False] > run.passes[True]
        with tracer.active() if traced else contextlib.nullcontext():
            run_pass(cases, problems, refs, run, traced, deadline if done and not tracer else None)


def end_to_end_metrics(run: Run, setup_samples: list[float]) -> dict:
    best = run.best_at_reference_speed()
    passed_frac = 1.0 - len(run.failures) / run.attempted
    reported = [(t, k) for t, k in zip(best, run.iterations) if k is not None]
    iterations = sum(k for _, k in reported)
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "solves_per_s": (passed_frac * len(best) / sum(best), "1/s"),
        "tts_p50_s": (statistics.median(best), "s"),
        "tts_p90_s": (_p90(best), "s"),
        "iters_per_solve": (iterations / len(reported) if reported else 0.0, "iterations"),
        "iter_ms": (1000.0 * sum(t for t, _ in reported) / iterations if iterations else 0.0, "ms"),
        "passed_frac": (passed_frac, "fraction"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def per_layer_metrics(run: Run, tracer) -> dict:
    traced = run.tts[True]
    out = tracer.metrics(sum(len(t) for t in traced))
    out["trace.overhead_frac"] = (sum(run.best(True)) / sum(run.best(False)) - 1.0, "fraction")
    out["trace.attributed_frac"] = (tracer.total_self_s() / sum(map(sum, traced)), "fraction")
    return out


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.probe == "setup":
        print(json.dumps({"setup_s": probe_setup(args)}))
        return 0
    if args.probe == "refs":
        probe_refs(args)
        return 0

    with _workdir() as workdir:
        import workloads

        cases = workloads.WORKLOADS[args.workload](args.seed, workdir, args.tiny)
        problems = [case.problem() for case in cases]
        refs = reference_optima(args, problems)
        tracer = None
        if args.trace:
            import spans

            tracer = spans.Tracer()
        # set-up probes go before and after the timed passes, so their
        # median does not rest on one short stretch of machine time
        probes = 0 if tracer else SETUP_SAMPLES
        setup_samples = [_setup_sample(args) for _ in range(probes // 2)]
        workloads.warm_up()
        run = measure(cases, problems, refs, args.seconds, tracer)
        setup_samples += [_setup_sample(args) for _ in range(probes - probes // 2)]
        metrics = per_layer_metrics(run, tracer) if tracer else end_to_end_metrics(run, setup_samples)

    print(json.dumps({"environment": environment(), "workload": args.workload, "seed": args.seed,
                      "cases": len(cases),
                      "passes": {"untraced": run.passes[False], "traced": run.passes[True]},
                      "solves": run.attempted,
                      "absent_spans": tracer.absent if tracer else []}))
    for failure in run.failures[:10]:
        print(f"failed: {failure}", file=sys.stderr)
    print(f"failed_frac {len(run.failures) / run.attempted:.6g} fraction "
          f"({len(run.failures)} of {run.attempted} solves)")
    print(f"host_slowdown {run.slowdown:.6g} (calibration loop best {min(run.calibration):.6g} s "
          f"over {len(run.calibration)} timings; time metrics below are divided by it)")
    print(f"wall_tts_p50_s {statistics.median(run.best()):.6g} s (unscaled)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

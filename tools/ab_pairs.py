"""Compare two checkouts on one benchmark workload with alternating runs.

    python tools/ab_pairs.py PARENT CHANGE --workload cli_shortstep --pairs 10 --seconds 50

Runs the benchmark command of ``BENCHMARK.json`` (``perfbench/run.py``)
from each checkout in turn, each in its own process and directory: the
parent first in odd pairs and the change first in even ones, so that a
slow stretch of the host does not fall on one side only. Every run's line
is printed as it ends. Then, for each end-to-end metric of
``BENCHMARK.json``, it prints each side's median and quartiles, how many
pairs the change won, and whether the change's median beats the parent's
by more than the distance between the parent's quartiles.

A failed run (a nonzero exit, output without a result, a timeout, or
failed solves) is printed with its reason and counted, and its pair counts
as lost for its side; the medians and quartiles are over the runs that
gave metrics. The metric list and the command are read from the change's
``BENCHMARK.json``. Nothing under either checkout is edited; the benchmark
itself writes only its own work and cache directories there.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, command: list[str], workload: str, seconds: float) -> dict:
    """One benchmark run: {"metrics": {name: value}} or {"error": reason}."""
    cmd = [sys.executable if command[0].startswith("python") else command[0], *command[1:],
           "--workload", workload, "--seconds", str(seconds)]
    try:
        done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                              timeout=10 * seconds + 600)
    except subprocess.TimeoutExpired:
        return {"error": "timed out"}
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return {"error": f"exit code {done.returncode}: {done.stderr.strip()[-300:]}"}
    try:
        result = json.loads(lines[-1])
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
    except (ValueError, KeyError, TypeError) as exc:
        return {"error": f"no result line ({type(exc).__name__}: {exc})"}
    if result.get("failed"):
        return {"error": f"{result['failed']} of {result['attempted']} solves failed",
                "metrics": metrics}
    return {"metrics": metrics}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(specs: list[dict], pairs: list[tuple[dict, dict]]) -> None:
    print(f"{'metric':<16} {'parent q1/median/q3':>32} {'change q1/median/q3':>32} "
          f"{'won':>7} {'beyond IQR':>10}")
    for spec in specs:
        name, lower = spec["name"], spec["better"] == "lower"
        sides = [[run["metrics"][name] for run in side
                  if "metrics" in run and name in run["metrics"]] for side in zip(*pairs)]
        if not all(sides):
            print(f"{name:<16} no values on one side")
            continue
        won = 0
        for parent, change in pairs:
            if "error" in change:
                continue
            if "error" in parent:
                won += 1
                continue
            a, b = parent["metrics"][name], change["metrics"][name]
            won += b < a if lower else b > a
        (p1, pm, p3), (c1, cm, c3) = quartiles(sides[0]), quartiles(sides[1])
        beyond = (pm - cm if lower else cm - pm) > p3 - p1
        print(f"{name:<16} {p1:>10.5g} {pm:>10.5g} {p3:>10.5g} {c1:>10.5g} {cm:>10.5g} {c3:>10.5g} "
              f"{won:>3}/{len(pairs):<3} {'yes' if beyond else 'no':>10}")
    for label, side in zip(("parent", "change"), zip(*pairs)):
        failed = sum("error" in run for run in side)
        print(f"{label}: {failed} of {len(side)} runs failed")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=50.0)
    args = p.parse_args(argv)
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    specs, command = bench["end_to_end"], bench["command"]
    show = ("iter_ms", "tts_p50_s", "peak_rss_mb")

    pairs = []
    for k in range(1, args.pairs + 1):
        order = ("parent", "change") if k % 2 else ("change", "parent")
        runs = {}
        for label in order:
            runs[label] = run = run_once(getattr(args, label), command, args.workload, args.seconds)
            values = " ".join(f"{m} {run['metrics'][m]:.6g}" for m in show
                              if m in run.get("metrics", {}))
            print(f"pair {k} {label}: " + (f"failed ({run['error']}) " if "error" in run else "")
                  + values, flush=True)
        pairs.append((runs["parent"], runs["change"]))
    summarize(specs, pairs)
    return 0


if __name__ == "__main__":
    sys.exit(main())

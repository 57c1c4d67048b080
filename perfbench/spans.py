"""Per-layer spans, recorded from outside the program.

``Tracer`` replaces each public function named in ``TARGETS`` by a timing
wrapper, in every loaded ``optlp`` module that binds it (``from .x import f``
makes a second binding), and restores the originals afterwards. A span's
self time is its duration minus the time of the spans it encloses, so the
self times of one solve add up to the duration of its outermost span.
"""

from __future__ import annotations

import contextlib
import importlib
import math
import sys
import time
from collections import defaultdict

TARGETS = [
    "mps.parse_mps",
    "mps.to_standard_form",
    "linalg.null_space_basis",
    "linalg.qr_thin",
    "linalg.rank_reveal",
    "direction.build_factors",
    "direction.decompose",
    "direction.step_polynomials",
    "direction.assemble_direction",
    "stepsel.select_step",
    "stepsel.real_roots_in_open_unit",
    "solver.solve",
    "solver.solve_shortstep_baseline",
    "solver.safeguarded_step",
    "model.residuals",
    "model.stopping_criterion",
    "cli.read_start_file",
    "cli.report_to_dict",
    "cli.main",
]

# The drivers' self time is their own loop and bookkeeping; it is named
# ``.self_s`` to keep it apart from the time of what they call.
DRIVERS = {"solver.solve", "solver.solve_shortstep_baseline", "cli.main"}

ORIGINS = ("a0_zero", "f_root_alpha1", "g_root", "grid_fallback")


def _qr_flops(rows: int, cols: int) -> float:
    # Householder QR (2rc^2 - 2c^3/3) plus forming the thin Q (the same again)
    return 4.0 * rows * cols * cols - 4.0 * cols**3 / 3.0


class Tracer:
    """Self time and call counts per span name, plus a few counters."""

    def __init__(self, targets=TARGETS):
        self.targets = list(targets)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self._stack: list[list] = []  # [name, seconds spent in child spans]

    @contextlib.contextmanager
    def active(self):
        """Wrap the targets for the duration of the block."""
        patches = []
        self.absent = []
        for target in self.targets:
            mod_name, fn_name = target.rsplit(".", 1)
            try:
                original = getattr(importlib.import_module(f"optlp.{mod_name}"), fn_name)
            except (ImportError, AttributeError):
                self.absent.append(target)
                continue
            wrapper = self._wrap(target, original)
            for name, module in list(sys.modules.items()):
                if name == "optlp" or name.startswith("optlp."):
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            patches.append((module, attr, original))
                            setattr(module, attr, wrapper)
        try:
            yield self
        finally:
            for module, attr, original in reversed(patches):
                setattr(module, attr, original)

    def _wrap(self, name, fn):
        stack = self._stack
        hook = getattr(self, "_after_" + name.replace(".", "_"), None)

        def span(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                self.self_s[name] += duration - frame[1]
                self.calls[name] += 1
                if stack:
                    stack[-1][1] += duration
            if hook is not None:
                hook(args, kwargs, result, duration)
            return result

        return span

    def _after_mps_parse_mps(self, args, kwargs, result, duration):
        text = args[0] if args else kwargs["text"]
        self.counters["mps.parse_mps.bytes"] += len(text)

    def _after_linalg_qr_thin(self, args, kwargs, result, duration):
        if self._stack and self._stack[-1][0] == "direction.build_factors":
            rows, cols = (args[0] if args else kwargs["mat"]).shape
            self.counters["direction.build_factors.flops"] += _qr_flops(rows, cols)

    def _after_direction_build_factors(self, args, kwargs, result, duration):
        self.counters["direction.build_factors.total_s"] += duration

    def _after_stepsel_select_step(self, args, kwargs, result, duration):
        self.counters[f"stepsel.origin.{result.origin}"] += 1

    def _after_solver_safeguarded_step(self, args, kwargs, result, duration):
        pair = args[2] if len(args) > 2 else kwargs["pair"]
        self.counters["solver.safeguard_halvings"] += round(math.log2(pair.alpha / result[1]))

    def metrics(self, solves: int) -> dict[str, tuple[float, str]]:
        """Per-solve means of every span and counter, as (value, unit)."""
        out = {}
        for name in self.targets:
            out[f"{name}.self_s" if name in DRIVERS else f"{name}.s"] = (self.self_s[name] / solves, "s/solve")
            out[f"{name}.calls"] = (self.calls[name] / solves, "calls/solve")
        parse_s = self.self_s["mps.parse_mps"]
        out["mps.parse_mps.mb_per_s"] = (
            self.counters["mps.parse_mps.bytes"] / 1e6 / parse_s if parse_s else 0.0, "MB/s")
        factor_s = self.counters["direction.build_factors.total_s"]
        out["direction.build_factors.total_s"] = (factor_s / solves, "s/solve")
        out["direction.build_factors.gflop_s_computed"] = (
            self.counters["direction.build_factors.flops"] / 1e9 / factor_s if factor_s else 0.0, "GFLOP/s")
        for origin in ORIGINS:
            out[f"stepsel.origin.{origin}"] = (self.counters[f"stepsel.origin.{origin}"] / solves, "count/solve")
        out["solver.safeguard_halvings"] = (self.counters["solver.safeguard_halvings"] / solves, "count/solve")
        return out

    def total_self_s(self) -> float:
        return sum(self.self_s.values())

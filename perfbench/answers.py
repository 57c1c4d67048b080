"""The benchmark's own answer check, written without optlp code.

A solve passes when its (x, y, s) satisfies, recomputed here with numpy:

* scaled primal and dual residuals at most ``RES_TOL``;
* x >= 0 and s >= 0;
* ``-EPS*max(1,|ref|) <= c.x - ref <= n*mu + EPS*max(1,|ref|)``, the
  weak-duality window (c.x - b.y = x.s = n*mu on feasible points), where
  ``ref`` is the optimum HiGHS (``scipy.optimize.linprog``) finds.

MPS files are read by the small reader below, not by optlp's parser, so a
parse or standard-form defect in the program shows up as a failed check.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Starts may carry scaled residuals up to 1e-8 and the iteration keeps
# feasibility, so a final residual above 1e-6 means a wrong answer.
RES_TOL = 1e-6
# Slack for HiGHS's own accuracy on the reference optimum.
EPS = 1e-6


@dataclass
class Answer:
    """What one solve returned, reduced to what the check needs."""

    status: str  # "optimal" when the program reports success
    x: np.ndarray | None = None
    y: np.ndarray | None = None
    s: np.ndarray | None = None
    iterations: int | None = None


def check(problem, answer: Answer, ref: float) -> str | None:
    """None when ``answer`` solves ``problem`` = (A, b, c); otherwise the reason."""
    if answer.status != "optimal":
        return f"status {answer.status}"
    a, b, c = problem
    x, y, s = answer.x, answer.y, answer.s
    if x.shape != c.shape or s.shape != c.shape or y.shape != b.shape:
        return f"answer shapes x{x.shape} y{y.shape} s{s.shape} do not fit A{a.shape}"
    primal = np.linalg.norm(a @ x - b) / (1.0 + np.linalg.norm(b))
    dual = np.linalg.norm(a.T @ y + s - c) / (1.0 + np.linalg.norm(c))
    if not primal <= RES_TOL:
        return f"primal residual {primal:.3e} > {RES_TOL:.0e}"
    if not dual <= RES_TOL:
        return f"dual residual {dual:.3e} > {RES_TOL:.0e}"
    if np.min(x) < 0.0 or np.min(s) < 0.0:
        return f"negative component: min x {np.min(x):.3e}, min s {np.min(s):.3e}"
    gap = float(c @ x) - ref
    slack = EPS * max(1.0, abs(ref))
    if not -slack <= gap <= float(x @ s) + slack:
        return f"c.x - ref = {gap:.3e} outside [-{slack:.1e}, x.s + {slack:.1e}] (x.s = {float(x @ s):.3e})"
    return None


def problem_key(problem) -> str:
    """Content hash of (A, b, c), the key of the reference cache."""
    h = hashlib.sha256()
    for arr in problem:
        arr = np.ascontiguousarray(arr, dtype=float)
        h.update(repr(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def highs_optimum(problem) -> float:
    """Optimal value of min c.x s.t. Ax = b, x >= 0, found by HiGHS.

    The interior-point method (with crossover) takes about 30% less time
    than the simplex default on the dense n=1024 instances and agrees with
    it to about 1e-10 relative.
    """
    from scipy.optimize import linprog

    a, b, c = problem
    res = linprog(c, A_eq=a, b_eq=b, bounds=(0, None), method="highs-ipm")
    if res.status != 0:
        raise RuntimeError(f"HiGHS found no optimum ({res.message})")
    return float(res.fun)


class RefCache:
    """Reference optima on disk, keyed by :func:`problem_key`."""

    def __init__(self, path: Path):
        self.path = path
        self.values: dict[str, float] = json.loads(path.read_text()) if path.exists() else {}

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_name(f"{self.path.name}.{os.getpid()}.tmp")
        tmp.write_text(json.dumps(self.values, indent=0, sort_keys=True))
        os.replace(tmp, self.path)


def read_mps_standard_form(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(A, b, c) of an MPS file in the standard form optlp documents.

    Columns keep their order of first appearance; every L and G row gains a
    +1 slack column, in row order, after the structural columns, and G rows
    are negated first. Only the default bound x >= 0 is accepted.
    """
    section = None
    objective = None
    rows: dict[str, str] = {}  # constraint row -> kind, in file order
    columns: dict[str, int] = {}
    entries: list[tuple[str, str, float]] = []
    rhs: dict[str, float] = {}
    for line in Path(path).read_text().splitlines():
        if not line.strip() or line.startswith("*"):
            continue
        tokens = line.split()
        if not line[0].isspace():
            section = tokens[0]
            if section not in ("NAME", "ROWS", "COLUMNS", "RHS", "BOUNDS", "ENDATA"):
                raise ValueError(f"{path}: unsupported section {section}")
            continue
        if section == "ROWS":
            kind, row = tokens
            if kind == "N":
                objective = objective or row
            else:
                rows[row] = kind
        elif section == "COLUMNS":
            columns.setdefault(tokens[0], len(columns))
            entries += [(tokens[0], row, _number(v)) for row, v in zip(tokens[1::2], tokens[2::2])]
        elif section == "RHS":
            pairs = tokens[1:] if len(tokens) % 2 else tokens
            rhs.update((row, _number(v)) for row, v in zip(pairs[0::2], pairs[1::2]))
        elif section == "BOUNDS":
            if tokens[0] != "LO" or _number(tokens[-1]) != 0.0:
                raise ValueError(f"{path}: unsupported bound {line.strip()!r}")
    row_index = {row: i for i, row in enumerate(rows)}
    logical = [row for row, kind in rows.items() if kind in ("L", "G")]
    n_struct = len(columns)
    a = np.zeros((len(rows), n_struct + len(logical)))
    c = np.zeros(n_struct + len(logical))
    for col, row, value in entries:
        if row == objective:
            c[columns[col]] = value
        else:
            a[row_index[row], columns[col]] = value
    b = np.array([rhs.get(row, 0.0) for row in rows])
    for j, row in enumerate(logical):
        i = row_index[row]
        if rows[row] == "G":
            a[i] = -a[i]
            b[i] = -b[i]
        a[i, n_struct + j] = 1.0
    return a, b, c


def _number(token: str) -> float:
    return float(token.replace("D", "E").replace("d", "e"))

"""Problem and iterate representations (an iterate caches its duality gap
mu), feasibility residuals, the central-path neighborhood test and the
stopping criterion."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .linalg import DEFAULT_RANK_TOL, as_matrix, rank_reveal


def norm(v: np.ndarray) -> float:
    """2-norm of a contiguous 1-d float vector.

    Where the sum of squares v.v is finite, this is ``np.linalg.norm(v)`` to
    the bit, since that computes sqrt(v.v) too: ``np.vdot`` takes v.v by the
    same BLAS ddot as ``v.dot(v)``, only without numpy's floating-point error
    check. So where v.v overflows (||v|| above about 1.3e154) no warning
    escapes, and the norm is taken of v over its largest magnitude and scaled
    back.
    """
    sq = np.vdot(v, v)
    if sq < math.inf:
        return math.sqrt(sq)
    big = float(np.abs(v).max())
    if not big < math.inf:  # an inf or NaN entry
        return big
    w = v / big
    return big * math.sqrt(np.vdot(w, w))


def gap_and_distance(xs: np.ndarray) -> tuple[float, float]:
    """The gap mu = x.s/n and the neighborhood distance ||x o s - mu e|| of
    a stacked (x; s).

    The distance is NaN where mu overflowed, so that no neighborhood test
    ``dist <= theta * mu`` passes there: where only the sum x.s overflowed,
    it would be inf, and inf <= inf. x.s is taken by ``np.vdot``, which,
    unlike ``np.dot``, does not warn where it overflows (:func:`norm`).
    """
    n = xs.shape[0] // 2
    x, s = xs[:n], xs[n:]
    mu = float(np.vdot(x, s)) / n
    return mu, norm(x * s - mu) if mu < math.inf else math.nan


def _as_vector(v, name: str) -> np.ndarray:
    a = np.ascontiguousarray(v, dtype=float)
    if a.ndim != 1:
        raise InvalidInputError(f"{name} must be a 1-d vector, got ndim={a.ndim}")
    if not np.isfinite(a).all():
        raise InvalidInputError(f"{name} contains non-finite entries")
    return a


class StandardLp:
    """A linear program in standard equality form:

        minimize c.x  subject to  A x = b, x >= 0

    Construction coerces A to full row rank: numerically dependent rows are
    dropped (with a warning) together with their right-hand sides. A dropped
    row must be consistent: its b has to match the combination of kept rows
    that reproduces its coefficients, to DEFAULT_RANK_TOL relative to the
    sum of the magnitudes of that combination's terms; otherwise A x = b has
    no solution and the row is rejected by index. Requires 1 <= m < n after
    the reduction: an LP with no independent row left, such as one whose
    only constraint has no coefficients, is rejected.
    """

    def __init__(self, a, b, c, name: str = ""):
        given = (a, b, c)
        a = as_matrix(a)
        b = _as_vector(b, "b")
        c = _as_vector(c, "c")
        m, n = a.shape
        if b.shape[0] != m:
            raise InvalidInputError(f"b has length {b.shape[0]}, expected {m}")
        if c.shape[0] != n:
            raise InvalidInputError(f"c has length {c.shape[0]}, expected {n}")
        rank, kept = rank_reveal(a)
        if rank < m:
            warnings.warn(
                f"constraint matrix of {name or 'LP'} has rank {rank} < {m}; "
                f"dropping {m - rank} dependent row(s)",
                stacklevel=2,
            )
            dropped = np.setdiff1d(np.arange(m), kept)
            # w holds, per dropped row, the coefficients of the kept rows
            # that reproduce it; full-rank LPs never get here
            w = np.linalg.lstsq(a[kept].T, a[dropped].T, rcond=None)[0]
            combo = w.T @ b[kept]
            bad = np.flatnonzero(np.abs(b[dropped] - combo)
                                 > DEFAULT_RANK_TOL * (np.abs(w.T) @ np.abs(b[kept])))
            if bad.size:
                j = int(bad[0])
                raise InvalidInputError(
                    f"constraint row {dropped[j]} of {name or 'LP'} is a combination of "
                    f"the others, but its right-hand side {b[dropped[j]]:.17g} differs "
                    f"from theirs, {combo[j]:.17g}: the constraints are inconsistent"
                )
            a = np.ascontiguousarray(a[kept])
            b = b[kept]
            m = rank
        if m == 0:
            raise InvalidInputError("standard form needs at least one independent constraint row")
        if m >= n:
            raise InvalidInputError(
                f"standard form needs fewer independent rows than columns, got {m}x{n}"
            )
        # coercion passes contiguous float64 input through as it is: copy what
        # is still the caller's, so that writing to it cannot change this LP
        # under its cached scales (after rank_reveal, whose workspace is freed)
        self.a, self.b, self.c = (v.copy() if v is g else v for v, g in zip((a, b, c), given))
        self.name = name
        # the residual scales 1 + ||b|| and 1 + ||c||
        self.b_scale = 1.0 + norm(b)
        self.c_scale = 1.0 + norm(c)

    @property
    def m(self) -> int:
        return self.a.shape[0]

    @property
    def n(self) -> int:
        return self.a.shape[1]

    def objective(self, x) -> float:
        """c.x, inf or NaN without a warning where the product overflows."""
        with np.errstate(over="ignore", invalid="ignore"):
            return float(self.c @ np.asarray(x, dtype=float))

    def __repr__(self) -> str:
        return f"StandardLp(name={self.name!r}, m={self.m}, n={self.n})"


class Iterate:
    """A strictly positive primal-dual point (x, y, s) with its cached gap
    mu = x.s/n and neighborhood distance ||x o s - mu e||.

    x and s are held stacked in one 2n vector ``xs`` = (x; s), of which
    ``x`` and ``s`` are the halves (views), so that a step updates both in
    one pass. Construction copies x, y and s, and the cached values are
    fixed at construction: all updates go through new constructions, so
    the cache can never drift from the vectors.
    """

    __slots__ = ("xs", "x", "y", "s", "mu", "neighborhood_dist")

    def __init__(self, x, y, s):
        x = _as_vector(x, "x")
        y = _as_vector(y, "y")
        s = _as_vector(s, "s")
        if x.shape[0] != s.shape[0]:
            raise InvalidInputError("x and s must have equal length")
        if x.shape[0] == 0:
            raise InvalidInputError("empty iterate")
        if np.min(x) <= 0.0:
            raise InvalidInputError("x must be strictly positive")
        if np.min(s) <= 0.0:
            raise InvalidInputError("s must be strictly positive")
        xs = np.concatenate((x, s))
        self._set(xs, y.copy(), *gap_and_distance(xs))

    @classmethod
    def unchecked(cls, xs: np.ndarray, y: np.ndarray, mu: float, dist: float) -> "Iterate":
        """A point the solver made and vetted (finite, x and s > 0, or >= 0
        on the exact step's boundary point), from its stacked (x; s), with
        its gap mu and neighborhood distance; nothing is coerced, copied or
        checked again. Points from outside use ``__init__``."""
        it = cls.__new__(cls)
        it._set(xs, y, mu, dist)
        return it

    def _set(self, xs, y, mu, dist) -> None:
        n = xs.shape[0] // 2
        self.xs, self.x, self.s = xs, xs[:n], xs[n:]
        self.y, self.mu, self.neighborhood_dist = y, mu, dist

    def __repr__(self) -> str:
        return f"Iterate(n={self.x.shape[0]}, mu={self.mu:.3e})"


@dataclass
class SolverConfig:
    """Tunable parameters of a solve.

    theta is the central-path neighborhood radius. Its default suits the
    optimal step selection; the short-step baseline wants
    ``solver.SHORTSTEP_THETA``. The defaults are also those of the command
    line. max_iter's is enough for the short step, which takes 290
    iterations on AFIRO.
    """

    theta: float = 0.99
    tol: float = 1e-8
    max_iter: int = 1000

    def __post_init__(self):
        if not 0.0 < self.theta < 1.0:
            raise InvalidInputError(f"theta must be in (0,1), got {self.theta}")
        if not self.tol > 0.0:
            raise InvalidInputError("tol must be positive")
        # bool is an int subclass, but max_iter=True is a mistake, not 1
        if (isinstance(self.max_iter, bool) or not isinstance(self.max_iter, (int, np.integer))
                or self.max_iter <= 0):
            raise InvalidInputError(f"max_iter must be a positive integer, got {self.max_iter!r}")


def residuals(lp: StandardLp, it: Iterate) -> tuple[float, float]:
    """Scaled primal and dual feasibility residuals.

    primal = ||A x - b|| / (1 + ||b||), dual = ||A^T y + s - c|| / (1 + ||c||).
    A product that overflows gives an inf or NaN residual, without a
    warning, which no residual test passes.
    """
    if it.x.shape[0] != lp.n or it.y.shape[0] != lp.m:
        raise InvalidInputError(
            f"iterate of shape (n={it.x.shape[0]}, m={it.y.shape[0]}) does not "
            f"match problem (n={lp.n}, m={lp.m})"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        primal, dual = np.dot(lp.a, it.x) - lp.b, np.dot(lp.a.T, it.y) + it.s - lp.c
    return norm(primal) / lp.b_scale, norm(dual) / lp.c_scale


def stopping_criterion(lp: StandardLp, it: Iterate, tol: float) -> bool:
    """mu / max{1, |c.x|, |b.y|} < tol, with c.x and b.y taken by
    ``np.vdot``, without a warning where they overflow."""
    scale = max(1.0, abs(float(np.vdot(lp.c, it.x))), abs(float(np.vdot(lp.b, it.y))))
    return it.mu / scale < tol

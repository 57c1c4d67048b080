"""Feasible primal-dual path-following LP solver that picks the centering
parameter and step length jointly, from the roots of two quartics in (0, 1)."""

from .errors import (
    DegenerateInputError,
    IllConditionedError,
    InvalidInputError,
    MpsParseError,
    NoFeasibleStepError,
    OptLpError,
    UnsupportedMpsFeatureError,
)
from .model import Iterate, SolverConfig, StandardLp
from .mps import MpsProblem, parse_mps, to_standard_form
from .solver import (
    IterationRecord,
    SolveReport,
    generate_synthetic,
    heuristic_start,
    solve,
    solve_shortstep_baseline,
)

__all__ = [
    "DegenerateInputError",
    "IllConditionedError",
    "InvalidInputError",
    "Iterate",
    "IterationRecord",
    "MpsParseError",
    "MpsProblem",
    "NoFeasibleStepError",
    "OptLpError",
    "SolveReport",
    "SolverConfig",
    "StandardLp",
    "UnsupportedMpsFeatureError",
    "generate_synthetic",
    "heuristic_start",
    "parse_mps",
    "solve",
    "solve_shortstep_baseline",
    "to_standard_form",
]

__version__ = "0.1.0"

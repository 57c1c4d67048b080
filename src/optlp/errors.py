"""Exception types shared across the solver stack."""


class OptLpError(Exception):
    """Base class for all package errors."""


class InvalidInputError(OptLpError, ValueError):
    """Malformed or non-finite numerical input."""


class IllConditionedError(OptLpError):
    """The direction at an iterate cannot be computed in floating point: a
    ratio x_i/s_i overflowed to inf or underflowed to 0, R1's diagonal or
    the dual direction y is not finite, or R1 is singular. The
    message names the component at fault where one is, such as x[3]/s[3] or
    R1's diagonal 2.
    """


class NoFeasibleStepError(OptLpError):
    """The step safeguard could not produce an acceptable step; signals
    numerical breakdown of the current solve."""


class DegenerateInputError(OptLpError, ValueError):
    """An input is degenerate beyond recovery (e.g. the zero polynomial)."""


class MpsParseError(OptLpError, ValueError):
    """MPS input could not be parsed. ``line`` is 1-based."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class UnsupportedMpsFeatureError(MpsParseError):
    """Valid MPS, but uses a feature this reader deliberately rejects."""

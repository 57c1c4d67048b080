"""Exception types shared across the solver stack."""


class OptLpError(Exception):
    """Base class for all package errors."""


class InvalidInputError(OptLpError, ValueError):
    """Malformed or non-finite numerical input."""


class IllConditionedError(OptLpError):
    """The direction at an iterate cannot be computed in floating point: a
    ratio x_i/s_i overflowed to inf or underflowed to 0, the scaled QR
    factors are not finite, or R1 is singular.

    ``index`` is the offending component (of the iterate, or of R1's
    diagonal), or -1 when no single one is to blame.
    """

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


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

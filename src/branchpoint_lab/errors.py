"""Exception types shared across the package."""


class ValidationError(ValueError):
    """A parameter violates a documented precondition."""


class BranchCutError(ValueError):
    """Evaluation requested on the branch cut of the principal logarithm."""


class SingularPointError(ValueError):
    """The point is indistinguishable from the singular set at the current depth."""


class ConvergenceError(RuntimeError):
    """An adaptive quadrature hit its node cap without meeting its tolerance.

    `estimates` holds the log-estimates it reached, one per mesh level.
    """

    def __init__(self, message: str, estimates: tuple[float, ...] = ()) -> None:
        super().__init__(message)
        self.estimates = estimates


class DegenerateMassError(RuntimeError):
    """The boundary mass underflowed; use the log-scale frequency path instead."""

"""The package's errors.  `exit_code` is the one map from errors to exit
codes: 3 for a MathDomainError, 2 for any other SparseBoundsError."""

__all__ = [
    "SparseBoundsError", "InvalidInputError", "MathDomainError", "DegenerateModelError",
    "SingularMatrixError", "OverflowingMatrixError", "NoUnbiasedEstimatorError",
    "WrongRegimeError", "UnsupportedSizeError", "AssumptionViolatedError",
    "DivergentTestPointError", "OverflowingTestPointError", "ExcessiveFailureError",
    "InfeasibleOffsetError", "UnsupportedMatrixError",
]


class SparseBoundsError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 2


class InvalidInputError(SparseBoundsError, ValueError):
    """An argument fails a precondition (shape, range, or sparsity)."""


class MathDomainError(SparseBoundsError):
    """The requested quantity does not exist or cannot be computed."""

    exit_code = 3


class DegenerateModelError(MathDomainError):
    """The equivalent noise variance is zero, so no likelihood exists."""


class SingularMatrixError(MathDomainError):
    """A required Gram matrix is singular or numerically rank deficient."""


class OverflowingMatrixError(OverflowError, MathDomainError):
    """A result leaves double range (model._finite)."""


class NoUnbiasedEstimatorError(MathDomainError):
    """The Fisher information is singular: no finite-variance unbiased
    estimator exists for this signal."""


class WrongRegimeError(InvalidInputError, MathDomainError):
    """The signal's sparsity does not match the requested bound regime."""


class UnsupportedSizeError(MathDomainError):
    """The exact combinatorial computation is too large to enumerate."""


class AssumptionViolatedError(MathDomainError):
    """A restricted-eigenvalue assumption fails for the given matrix."""


class DivergentTestPointError(MathDomainError):
    """A test-point pair makes the bound's defining integral diverge."""


class OverflowingTestPointError(OverflowError, MathDomainError):
    """A test-point pair's entry of H exceeds double precision."""


class ExcessiveFailureError(MathDomainError):
    """More than the tolerated share of Monte Carlo trials failed."""


class InfeasibleOffsetError(InvalidInputError, MathDomainError):
    """A test-point offset leaves the sparse parameter set."""


class UnsupportedMatrixError(InvalidInputError, MathDomainError):
    """The operation has a closed form only for the identity matrix."""

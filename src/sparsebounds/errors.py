"""Exception types raised by the bound computations.

A MathDomainError means the input is well formed but the mathematics has
no answer for it.  `exit_code` is the one map from errors to command-line
exit codes: 3 for a MathDomainError, 2 for any other SparseBoundsError.
"""


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
    """A required matrix or its spectrum exceeds double precision."""


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
